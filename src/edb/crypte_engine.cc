#include "edb/crypte_engine.h"

namespace dpsync::edb {

ObliDbConfig LinearConfig(const CryptEpsConfig& config) {
  ObliDbConfig linear;
  linear.master_seed = config.master_seed;
  linear.admission = config.admission;
  linear.storage = config.storage;
  return linear;
}

}  // namespace dpsync::edb

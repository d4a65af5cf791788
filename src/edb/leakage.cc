#include "edb/leakage.h"

namespace dpsync::edb {

CompatibilityResult CheckCompatibility(const LeakageProfile& profile) {
  CompatibilityResult result;
  if (!profile.encrypts_records_atomically) {
    result.reason =
        "records must be encrypted independently (ciphertext batching may "
        "reveal batch capacity)";
    return result;
  }
  if (!profile.supports_insertion) {
    result.reason = "scheme is static: cannot support growing databases";
    return result;
  }
  if (!profile.update_leaks_only_pattern) {
    result.reason =
        "update protocol leaks more than the update pattern; DP guarantee "
        "cannot be stated over UpdtPatt alone";
    return result;
  }
  switch (profile.query_class) {
    case LeakageClass::kL2:
      result.reason =
          "L-2: access-pattern leakage would expose update patterns through "
          "the query protocol";
      return result;
    case LeakageClass::kL1:
      result.compatible = true;
      result.needs_volume_padding = true;
      result.reason =
          "L-1: compatible only with volume-hiding countermeasures (naive "
          "padding / pseudorandom transformation)";
      return result;
    case LeakageClass::kLDP:
      result.compatible = true;
      result.reason = "L-DP: DP volume leakage cannot expose dummy records";
      return result;
    case LeakageClass::kL0:
      result.compatible = true;
      result.reason =
          "L-0: volume hiding; dummies are invisible to the query protocol";
      return result;
  }
  return result;
}

const std::vector<SchemeEntry>& SchemeCatalog() {
  static const std::vector<SchemeEntry>* catalog = new std::vector<SchemeEntry>{
      {"VLH/AVLH", LeakageClass::kL0},    {"ObliDB", LeakageClass::kL0},
      {"SEAL", LeakageClass::kL0},        {"Opaque", LeakageClass::kL0},
      {"CSAGR19", LeakageClass::kL0},     {"dp-MM", LeakageClass::kLDP},
      {"Hermetic", LeakageClass::kLDP},   {"KKNO17", LeakageClass::kLDP},
      {"CryptEpsilon", LeakageClass::kLDP},
      {"AHKM19", LeakageClass::kLDP},     {"Shrinkwrap", LeakageClass::kLDP},
      {"PPQED_a", LeakageClass::kL1},     {"StealthDB", LeakageClass::kL1},
      {"SisoSPIR", LeakageClass::kL1},    {"CryptDB", LeakageClass::kL2},
      {"Cipherbase", LeakageClass::kL2},  {"Arx", LeakageClass::kL2},
      {"HardIDX", LeakageClass::kL2},     {"EnclaveDB", LeakageClass::kL2},
  };
  return *catalog;
}

}  // namespace dpsync::edb

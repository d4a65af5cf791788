/// \file leakage.h
/// Leakage classification of encrypted databases (§6, Table 3). DP-Sync is
/// only safe on top of schemes whose query protocol does not let the server
/// re-identify dummy records: L-0 (volume hiding) and L-DP (DP volume) are
/// directly compatible; L-1 needs padding countermeasures; L-2 (access
/// pattern revealed) is incompatible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dpsync::edb {

/// Query-leakage classes from §6.
enum class LeakageClass {
  kL0,   ///< access-pattern and volume hiding (e.g. ObliDB, Opaque)
  kLDP,  ///< differentially-private volume leakage (e.g. Crypt-eps, Shrinkwrap)
  kL1,   ///< hides access pattern but reveals exact response volume
  kL2,   ///< reveals access pattern (SSE/deterministic/OPE systems)
};

/// What a scheme's protocols reveal.
struct LeakageProfile {
  LeakageClass query_class = LeakageClass::kL2;
  bool update_leaks_only_pattern = true;  ///< P4 constraint on Pi_Update
  bool encrypts_records_atomically = true;  ///< no ciphertext batching
  bool supports_insertion = true;
  std::string scheme_name;
};

/// Compatibility verdict with explanation.
struct CompatibilityResult {
  bool compatible = false;
  bool needs_volume_padding = false;  ///< L-1 schemes: pad/transform volumes
  std::string reason;
};

/// Applies the §2/§6 constraints (P4): atomically encrypted records,
/// insert support, update leakage == f(update pattern), and a query class
/// that cannot expose dummies.
CompatibilityResult CheckCompatibility(const LeakageProfile& profile);

/// One row of Table 3: a published scheme and its class.
struct SchemeEntry {
  std::string name;
  LeakageClass query_class;
};

/// The paper's Table 3 catalog of encrypted database schemes.
const std::vector<SchemeEntry>& SchemeCatalog();

}  // namespace dpsync::edb

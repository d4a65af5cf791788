/// \file key_manager.h
/// Owner-side key hierarchy. A single master key is expanded via HKDF into
/// independent purpose-scoped sub-keys, such as each table's record
/// encryption key — so compromising one purpose-key reveals nothing about
/// the others.
#pragma once

#include <string>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace dpsync::crypto {

/// Derives and caches purpose-scoped sub-keys from a master secret.
class KeyManager {
 public:
  /// Deterministic construction from a master secret (any length; it is
  /// HKDF-extracted). For tests/simulations a short string works.
  explicit KeyManager(const Bytes& master_secret);

  /// Convenience: derive from a 64-bit seed (simulation setups).
  static KeyManager FromSeed(uint64_t seed);

  /// Derives a 32-byte sub-key bound to `purpose` (the engines use
  /// "table-aead:<table>"). Deterministic: same purpose -> same key.
  Bytes DeriveKey(const std::string& purpose) const;

 private:
  Bytes prk_;
};

}  // namespace dpsync::crypto

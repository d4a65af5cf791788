/// \file hmac.h
/// HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869), built on our SHA-256.
/// KeyManager derives its purpose-scoped sub-keys (record encryption)
/// from a single master key with HkdfExtract and HkdfExpand.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace dpsync::crypto {

/// Computes HMAC-SHA-256 of `data` under `key`.
Bytes HmacSha256(const Bytes& key, const Bytes& data);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes HkdfExtract(const Bytes& salt, const Bytes& ikm);

/// HKDF-Expand: derives `length` bytes of output keying material from `prk`
/// and context string `info`. `length` must be <= 255 * 32.
Bytes HkdfExpand(const Bytes& prk, const Bytes& info, size_t length);

}  // namespace dpsync::crypto

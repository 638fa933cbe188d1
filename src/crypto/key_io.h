// Serialization of Paillier key material.
//
// Wire/disk format (little-endian framing via ByteWriter):
//   PublicKey: u32 key_bits, length-prefixed big-endian N
//   KeyPair:   PublicKey, then length-prefixed lambda, p, q
//
// Deserialization validates the algebra (N = p*q, lambda = lcm(p-1,q-1),
// full key width, N odd, distinct factors above 1), so a corrupted or
// mismatched key file fails loudly instead of producing garbage
// ciphertexts, and every modulus Paillier exponentiates over admits a
// Montgomery context.

#ifndef PPGNN_CRYPTO_KEY_IO_H_
#define PPGNN_CRYPTO_KEY_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/paillier.h"

namespace ppgnn {

std::vector<uint8_t> SerializePublicKey(const PublicKey& pk);
[[nodiscard]] Result<PublicKey> DeserializePublicKey(const std::vector<uint8_t>& bytes);

std::vector<uint8_t> SerializeKeyPair(const KeyPair& keys);
[[nodiscard]] Result<KeyPair> DeserializeKeyPair(const std::vector<uint8_t>& bytes);

/// Writes/reads the KeyPair format to a file. The file holds the SECRET
/// key; callers own its protection.
[[nodiscard]] Status SaveKeyPair(const std::string& path, const KeyPair& keys);
[[nodiscard]] Result<KeyPair> LoadKeyPair(const std::string& path);

}  // namespace ppgnn

#endif  // PPGNN_CRYPTO_KEY_IO_H_

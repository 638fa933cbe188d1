#include "crypto/key_io.h"

#include <fstream>

#include "bigint/modular.h"
#include "common/bytes.h"

// ppgnn: secret(lambda, p, q, sec)

namespace ppgnn {
namespace {

void PutBigInt(ByteWriter& w, const BigInt& v) { w.PutBytes(v.ToBytes()); }

Result<BigInt> GetBigInt(ByteReader& r) {
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, r.GetBytes());
  return BigInt::FromBytes(bytes);
}

Status ValidateKeyPair(const KeyPair& keys) {
  if (keys.pub.n.BitLength() != keys.pub.key_bits)
    return Status::CryptoError("public key is not full width");
  if (!keys.pub.n.IsOdd()) return Status::CryptoError("public key N is even");
  // ppgnn-lint: allow(secret-flow): owner-side integrity check after key import; attacker never observes this branch
  if (keys.sec.p * keys.sec.q != keys.pub.n)
    return Status::CryptoError("N != p*q: corrupted key material");
  // N odd and distinct factors above 1 make p^{s+1} and q^{s+1} coprime
  // odd moduli >= 3.
  // ppgnn-lint: allow(secret-flow): owner-side integrity check after key import; attacker never observes this branch
  if (keys.sec.p == BigInt(1) || keys.sec.q == BigInt(1) ||
      keys.sec.p == keys.sec.q)
    return Status::CryptoError("N's factors must be distinct and above 1");
  BigInt lambda =
      Lcm(keys.sec.p - BigInt(1), keys.sec.q - BigInt(1));
  // ppgnn-lint: allow(secret-flow): owner-side integrity check after key import; attacker never observes this branch
  if (lambda != keys.sec.lambda)
    return Status::CryptoError("lambda != lcm(p-1, q-1)");
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> SerializePublicKey(const PublicKey& pk) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(pk.key_bits));
  PutBigInt(w, pk.n);
  return w.Release();
}

Result<PublicKey> DeserializePublicKey(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  PublicKey pk;
  PPGNN_ASSIGN_OR_RETURN(uint32_t key_bits, r.GetU32());
  pk.key_bits = static_cast<int>(key_bits);
  PPGNN_ASSIGN_OR_RETURN(pk.n, GetBigInt(r));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after key");
  if (pk.key_bits < 64 || pk.n.BitLength() != pk.key_bits)
    return Status::CryptoError("public key is not full width");
  if (!pk.n.IsOdd()) return Status::CryptoError("public key N is even");
  return pk;
}

std::vector<uint8_t> SerializeKeyPair(const KeyPair& keys) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(keys.pub.key_bits));
  PutBigInt(w, keys.pub.n);
  PutBigInt(w, keys.sec.lambda);
  PutBigInt(w, keys.sec.p);
  PutBigInt(w, keys.sec.q);
  return w.Release();
}

Result<KeyPair> DeserializeKeyPair(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  KeyPair keys;
  PPGNN_ASSIGN_OR_RETURN(uint32_t key_bits, r.GetU32());
  keys.pub.key_bits = static_cast<int>(key_bits);
  PPGNN_ASSIGN_OR_RETURN(keys.pub.n, GetBigInt(r));
  PPGNN_ASSIGN_OR_RETURN(keys.sec.lambda, GetBigInt(r));
  PPGNN_ASSIGN_OR_RETURN(keys.sec.p, GetBigInt(r));
  PPGNN_ASSIGN_OR_RETURN(keys.sec.q, GetBigInt(r));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after key");
  PPGNN_RETURN_IF_ERROR(ValidateKeyPair(keys));
  return keys;
}

Status SaveKeyPair(const std::string& path, const KeyPair& keys) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::Internal("cannot write " + path);
  std::vector<uint8_t> bytes = SerializeKeyPair(keys);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<KeyPair> LoadKeyPair(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return DeserializeKeyPair(bytes);
}

}  // namespace ppgnn

// Authenticated CBC envelope over the XTEA block cipher.
//
// Seal() produces: IV (8 bytes) || CBC( plaintext || length || checksum ),
// where the checksum is a 64-bit FNV-1a over the plaintext. Open() inverts
// the envelope and returns kTamperDetected if any bit of the ciphertext was
// altered (the checksum or length fails to verify). This gives the
// "end-to-end encryption" with integrity the Vice-Virtue connection needs;
// it is the reproduction stand-in for the encrypted-RPC channel of §3.5.3.
//
// Host cost. Each call builds one XteaSchedule (xtea.h) and reuses it for
// every block. Seal is serial: CBC feeds each ciphertext block into the
// next encryption, so it runs at the latency of one block's 64 rounds, with
// the checksum computed in the same pass. Open is parallel: plaintext block
// i is D(C[i]) ^ C[i-1], which needs only ciphertext, so it decrypts eight
// blocks at a time in vector lanes and writes the plaintext once, straight
// into the returned buffer. None of this touches the wire format: the bytes
// equal a one-block-at-a-time CBC over XteaEncryptBlock, and known-answer
// tests in tests/crypto pin them.
//
// The RPC path pays none of that cost unless something reads the bytes. A
// Sealed envelope built from (key, iv_seed, plaintext) is deferred: its
// size() is SealedSize() of the plaintext, and Open under the same key hands
// the plaintext back without running the cipher. The ciphertext is
// materialized, once and through the real Seal, the first time anything
// asks for bytes(): a test, a fuzzer, a wiretap, or an Open under any other
// key. So every byte anyone observes is exactly Seal's output, and every
// Open that could fail runs the real Open on those bytes.

#ifndef SRC_CRYPTO_CBC_H_
#define SRC_CRYPTO_CBC_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/crypto/key.h"
#include "src/crypto/xtea.h"

namespace itc::crypto {

// Bytes Seal produces for a `plaintext_len`-byte message: the IV block, then
// the plaintext and the 16-byte trailer rounded up to whole blocks.
constexpr size_t SealedSize(uint64_t plaintext_len) {
  constexpr uint64_t kBlock = kBlockSize;
  return kBlock + (plaintext_len + 2 * kBlock + kBlock - 1) / kBlock * kBlock;
}

// Encrypts `plaintext` under `key`. `iv_seed` selects the initialization
// vector deterministically (callers pass a per-message sequence number so
// equal plaintexts yield different ciphertexts).
Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed);

// Decrypts and verifies a sealed message. Returns kTamperDetected on any
// integrity failure, kInvalidArgument if the buffer is structurally invalid.
[[nodiscard]] Result<Bytes> Open(const Key& key, const Bytes& sealed);

// Plaintext bytes every Seal in this process has encrypted so far, handshakes
// and materialized envelopes included. A deterministic work counter: it
// moves only when the cipher really runs.
uint64_t SealedByteCount();

// One message on the wire, sealed or not yet sealed (see "Host cost" above).
class Sealed {
 public:
  // Deferred: the message Seal(key, plaintext, iv_seed) would produce.
  Sealed(const Key& key, Bytes plaintext, uint64_t iv_seed)
      : key_(key), iv_seed_(iv_seed), deferred_(true), bytes_(std::move(plaintext)) {}
  // Observed: bytes as they were seen on the wire (from a test, a fuzzer or
  // a wiretap), or an unencrypted frame, carried as is.
  explicit Sealed(Bytes bytes) : bytes_(std::move(bytes)) {}

  // Wire length, without materializing anything.
  size_t size() const { return deferred_ ? SealedSize(bytes_.size()) : bytes_.size(); }

  // The wire bytes. A deferred envelope is sealed here, once, and is
  // observed from then on.
  const Bytes& bytes() & {
    Materialize();
    return bytes_;
  }
  Bytes bytes() && {
    Materialize();
    return std::move(bytes_);
  }

  // Returns the plaintext without the cipher when `sealed` is deferred under
  // `key`. Otherwise materializes its bytes and runs Open on them, so a
  // wrong key, garbage or tampered bytes get exactly Open's status.
  [[nodiscard]] friend Result<Bytes> Open(const Key& key, Sealed&& sealed) {
    if (sealed.deferred_ && sealed.key_ == key) return std::move(sealed.bytes_);
    return Open(key, sealed.bytes());
  }

 private:
  void Materialize();

  Key key_{};
  uint64_t iv_seed_ = 0;
  bool deferred_ = false;
  Bytes bytes_;  // plaintext while deferred, wire bytes once observed
};

// The friend above, visible to qualified calls (crypto::Open).
[[nodiscard]] Result<Bytes> Open(const Key& key, Sealed&& sealed);

}  // namespace itc::crypto

#endif  // SRC_CRYPTO_CBC_H_

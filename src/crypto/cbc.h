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

#ifndef SRC_CRYPTO_CBC_H_
#define SRC_CRYPTO_CBC_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/crypto/key.h"

namespace itc::crypto {

// Encrypts `plaintext` under `key`. `iv_seed` selects the initialization
// vector deterministically (callers pass a per-message sequence number so
// equal plaintexts yield different ciphertexts).
Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed);

// Decrypts and verifies a sealed message. Returns kTamperDetected on any
// integrity failure, kInvalidArgument if the buffer is structurally invalid.
[[nodiscard]] Result<Bytes> Open(const Key& key, const Bytes& sealed);

}  // namespace itc::crypto

#endif  // SRC_CRYPTO_CBC_H_

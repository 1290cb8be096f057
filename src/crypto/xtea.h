// XTEA block cipher: 64-bit blocks, 128-bit keys, 64 Feistel rounds.
//
// Stands in for the DES hardware the paper expected ("VLSI technology has
// made encryption chips available", Section 3.4). XTEA is compact, has real
// diffusion (so tamper-detection tests are meaningful), and is endian-stable
// here by explicit little-endian packing. It is NOT a modern cipher; itcfs
// uses it to exercise the security architecture, not to protect real data.
//
// Every round adds `sum + k[...]` for a fixed sequence of `sum` values, so
// the 64 words those terms take depend on the key alone. XteaSchedule
// computes them once; a message-sized caller (the sealed envelope in cbc.h)
// builds one schedule per message and then runs only the rounds per block.
// The rounds are a template over the word type, so the same code encrypts a
// scalar block or several blocks at once in vector lanes, with identical
// results per block.

#ifndef SRC_CRYPTO_XTEA_H_
#define SRC_CRYPTO_XTEA_H_

#include <cstdint>

#include "src/crypto/key.h"

namespace itc::crypto {

inline constexpr int kXteaRounds = 64;
inline constexpr int kBlockSize = 8;  // bytes

// The per-round key words, in encryption order: round[2i] is added into v0
// and round[2i + 1] into v1 during cycle i.
struct XteaSchedule {
  explicit XteaSchedule(const Key& key);

  uint32_t round[kXteaRounds];
};

// Encrypts the block (v0, v1) in place. W is uint32_t for one block, or a
// GCC/Clang vector of uint32_t for one block per lane.
template <typename W>
inline void XteaEncryptRounds(const XteaSchedule& s, W& v0, W& v1) {
  for (int i = 0; i < kXteaRounds; i += 2) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ s.round[i];
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ s.round[i + 1];
  }
}

// Decrypts the block (v0, v1) in place; the exact inverse of the above.
template <typename W>
inline void XteaDecryptRounds(const XteaSchedule& s, W& v0, W& v1) {
  for (int i = kXteaRounds - 2; i >= 0; i -= 2) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ s.round[i + 1];
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ s.round[i];
  }
}

// Little-endian word access, independent of host byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreLe32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// Single-block wrappers for one-off use (key derivation, the handshake).
// Each builds a schedule, so a loop over many blocks should build one
// XteaSchedule itself and call the rounds directly.

// Encrypts one 64-bit block in place. `block` is two little-endian words.
void XteaEncryptBlock(const Key& key, uint32_t block[2]);

// Decrypts one 64-bit block in place.
void XteaDecryptBlock(const Key& key, uint32_t block[2]);

// Byte-oriented convenience wrappers over 8-byte blocks.
void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]);
void XteaDecryptBlock(const Key& key, uint8_t block[kBlockSize]);

}  // namespace itc::crypto

#endif  // SRC_CRYPTO_XTEA_H_

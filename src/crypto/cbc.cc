#include "src/crypto/cbc.h"

#include <atomic>
#include <cstring>

#include "src/crypto/xtea.h"

namespace itc::crypto {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Bytes of the trailer: 8-byte length, then 8-byte checksum.
constexpr size_t kTrailer = 16;

// Blocks Open decrypts per step, one per vector lane.
constexpr size_t kLanes = 8;
using Lanes = uint32_t __attribute__((vector_size(kLanes * sizeof(uint32_t))));

uint64_t Fnv1a(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// Plaintext bytes sealed so far (SealedByteCount).
std::atomic<uint64_t> sealed_bytes{0};

// One CBC encryption step: XORs the block (w0, w1) into the chaining value
// (c0, c1), encrypts it there, and stores the ciphertext at `out`.
void SealBlock(const XteaSchedule& s, uint32_t w0, uint32_t w1, uint32_t& c0, uint32_t& c1,
               uint8_t* out) {
  c0 ^= w0;
  c1 ^= w1;
  XteaEncryptRounds(s, c0, c1);
  StoreLe32(c0, out);
  StoreLe32(c1, out + 4);
}

// Decrypts the ciphertext block at `in` and XORs in the chaining value (the
// ciphertext block before it), returning the plaintext words.
void OpenBlock(const XteaSchedule& s, const uint8_t* in, uint32_t& w0, uint32_t& w1) {
  w0 = LoadLe32(in);
  w1 = LoadLe32(in + 4);
  XteaDecryptRounds(s, w0, w1);
  w0 ^= LoadLe32(in - kBlockSize);
  w1 ^= LoadLe32(in - kBlockSize + 4);
}

}  // namespace

Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed) {
  const XteaSchedule schedule(key);
  const uint64_t n = plaintext.size();
  sealed_bytes.fetch_add(n, std::memory_order_relaxed);
  Bytes out(SealedSize(n));
  uint8_t* dst = out.data();

  // Derive the IV by encrypting the seed, so IVs are unpredictable without
  // the key but reproducible for a given (key, seed). The IV is the first
  // chaining value.
  uint32_t c0 = static_cast<uint32_t>(iv_seed);
  uint32_t c1 = static_cast<uint32_t>(iv_seed >> 32);
  XteaEncryptRounds(schedule, c0, c1);
  StoreLe32(c0, dst);
  StoreLe32(c1, dst + 4);
  dst += kBlockSize;

  // Whole plaintext blocks. Each is hashed before it is encrypted; the
  // checksum travels in the last block, after every plaintext byte.
  const uint8_t* src = plaintext.data();
  uint64_t h = kFnvOffset;
  for (size_t off = 0; off + kBlockSize <= n; off += kBlockSize) {
    h = Fnv1a(h, src + off, kBlockSize);
    SealBlock(schedule, LoadLe32(src + off), LoadLe32(src + off + 4), c0, c1, dst);
    dst += kBlockSize;
  }
  // A partial last block is zero-padded.
  if (const size_t tail = n % kBlockSize; tail != 0) {
    uint8_t block[kBlockSize] = {};
    std::memcpy(block, src + n - tail, tail);
    h = Fnv1a(h, block, tail);
    SealBlock(schedule, LoadLe32(block), LoadLe32(block + 4), c0, c1, dst);
    dst += kBlockSize;
  }
  // Trailer: length, then checksum, one block each.
  SealBlock(schedule, static_cast<uint32_t>(n), static_cast<uint32_t>(n >> 32), c0, c1, dst);
  SealBlock(schedule, static_cast<uint32_t>(h), static_cast<uint32_t>(h >> 32), c0, c1,
            dst + kBlockSize);
  return out;
}

Result<Bytes> Open(const Key& key, const Bytes& sealed) {
  if (sealed.size() < kBlockSize + 2 * kBlockSize ||
      (sealed.size() - kBlockSize) % kBlockSize != 0) {
    return Status::kInvalidArgument;
  }
  const XteaSchedule schedule(key);
  const size_t padded = sealed.size() - kBlockSize;
  // Ciphertext block i sits at body + 8i; its chaining value is the 8 bytes
  // before it (the IV for block 0), read straight from `sealed`.
  const uint8_t* body = sealed.data() + kBlockSize;

  // The trailer first: a length that disagrees with the padding is
  // rejected before any plaintext is allocated. The first check also keeps
  // SealedSize from wrapping on a hostile length.
  uint32_t w0 = 0, w1 = 0;
  OpenBlock(schedule, body + padded - kTrailer, w0, w1);
  const uint64_t length = w0 | (static_cast<uint64_t>(w1) << 32);
  OpenBlock(schedule, body + padded - kBlockSize, w0, w1);
  const uint64_t checksum = w0 | (static_cast<uint64_t>(w1) << 32);
  if (length > padded - kTrailer) return Status::kTamperDetected;
  if (SealedSize(length) != sealed.size()) return Status::kTamperDetected;

  // CBC decryption of block i needs only ciphertext blocks i and i-1, so
  // blocks are independent: decrypt kLanes of them per step, one per lane.
  // The plaintext is written once, into the buffer that is returned, and
  // hashed right behind the decryption.
  Bytes plain(length);
  uint8_t* dst = plain.data();
  const size_t whole = length / kBlockSize;
  uint64_t h = kFnvOffset;
  size_t i = 0;
  for (; i + kLanes <= whole; i += kLanes) {
    const uint8_t* in = body + i * kBlockSize;
    uint8_t* out = dst + i * kBlockSize;
    Lanes v0 = {}, v1 = {};
    for (size_t j = 0; j < kLanes; ++j) {
      v0[j] = LoadLe32(in + j * kBlockSize);
      v1[j] = LoadLe32(in + j * kBlockSize + 4);
    }
    XteaDecryptRounds(schedule, v0, v1);
    for (size_t j = 0; j < kLanes; ++j) {
      const uint8_t* prev = in + j * kBlockSize - kBlockSize;
      StoreLe32(v0[j] ^ LoadLe32(prev), out + j * kBlockSize);
      StoreLe32(v1[j] ^ LoadLe32(prev + 4), out + j * kBlockSize + 4);
    }
    h = Fnv1a(h, out, kLanes * kBlockSize);
  }
  for (; i < whole; ++i) {
    uint8_t* out = dst + i * kBlockSize;
    OpenBlock(schedule, body + i * kBlockSize, w0, w1);
    StoreLe32(w0, out);
    StoreLe32(w1, out + 4);
    h = Fnv1a(h, out, kBlockSize);
  }
  if (const size_t tail = length % kBlockSize; tail != 0) {
    uint8_t block[kBlockSize];
    OpenBlock(schedule, body + whole * kBlockSize, w0, w1);
    StoreLe32(w0, block);
    StoreLe32(w1, block + 4);
    std::memcpy(dst + whole * kBlockSize, block, tail);
    h = Fnv1a(h, block, tail);
    // Seal zero-pads, and the checksum does not cover the padding. When
    // this is the first block, the IV is its only chaining value, so a
    // flipped IV byte over the padding would otherwise go unnoticed.
    for (size_t j = tail; j < kBlockSize; ++j) {
      if (block[j] != 0) return Status::kTamperDetected;
    }
  }
  if (h != checksum) return Status::kTamperDetected;
  return plain;
}

uint64_t SealedByteCount() { return sealed_bytes.load(std::memory_order_relaxed); }

void Sealed::Materialize() {
  if (!deferred_) return;
  bytes_ = Seal(key_, bytes_, iv_seed_);
  deferred_ = false;
}

}  // namespace itc::crypto

#include "src/crypto/xtea.h"

namespace itc::crypto {

namespace {

constexpr uint32_t kDelta = 0x9e3779b9u;

}  // namespace

XteaSchedule::XteaSchedule(const Key& key) {
  uint32_t k[4];
  for (int i = 0; i < 4; ++i) k[i] = LoadLe32(key.bytes.data() + 4 * i);
  uint32_t sum = 0;
  for (int i = 0; i < kXteaRounds; i += 2) {
    round[i] = sum + k[sum & 3];
    sum += kDelta;
    round[i + 1] = sum + k[(sum >> 11) & 3];
  }
}

void XteaEncryptBlock(const Key& key, uint32_t block[2]) {
  XteaEncryptRounds(XteaSchedule(key), block[0], block[1]);
}

void XteaDecryptBlock(const Key& key, uint32_t block[2]) {
  XteaDecryptRounds(XteaSchedule(key), block[0], block[1]);
}

void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]) {
  uint32_t v[2] = {LoadLe32(block), LoadLe32(block + 4)};
  XteaEncryptBlock(key, v);
  StoreLe32(v[0], block);
  StoreLe32(v[1], block + 4);
}

void XteaDecryptBlock(const Key& key, uint8_t block[kBlockSize]) {
  uint32_t v[2] = {LoadLe32(block), LoadLe32(block + 4)};
  XteaDecryptBlock(key, v);
  StoreLe32(v[0], block);
  StoreLe32(v[1], block + 4);
}

}  // namespace itc::crypto

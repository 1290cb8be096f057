// Unit tests for the crypto substrate: XTEA, key derivation, the sealed
// (authenticated CBC) envelope, and the mutual authentication handshake.

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/crypto/cbc.h"
#include "src/crypto/handshake.h"
#include "src/crypto/key.h"
#include "src/crypto/xtea.h"

namespace itc::crypto {
namespace {

Key TestKey(uint8_t fill) {
  Key k;
  for (size_t i = 0; i < k.bytes.size(); ++i) k.bytes[i] = static_cast<uint8_t>(fill + i);
  return k;
}

std::string Hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t c : b) {
    s += kDigits[c >> 4];
    s += kDigits[c & 15];
  }
  return s;
}

uint64_t Fnv64(const Bytes& b) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Deterministic plaintext for the known-answer vectors.
Bytes Pattern(size_t n) {
  Bytes p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(i * 131 + 17);
  return p;
}

// --- XTEA ---------------------------------------------------------------------

TEST(XteaTest, EncryptDecryptRoundTrip) {
  const Key key = TestKey(0x11);
  uint32_t block[2] = {0xdeadbeef, 0x01234567};
  uint32_t original[2] = {block[0], block[1]};
  XteaEncryptBlock(key, block);
  EXPECT_FALSE(block[0] == original[0] && block[1] == original[1]);
  XteaDecryptBlock(key, block);
  EXPECT_EQ(block[0], original[0]);
  EXPECT_EQ(block[1], original[1]);
}

TEST(XteaTest, ByteInterfaceMatchesWordInterface) {
  const Key key = TestKey(0x42);
  uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t words[2] = {0x04030201, 0x08070605};  // little-endian packing
  XteaEncryptBlock(key, bytes);
  XteaEncryptBlock(key, words);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bytes[i], static_cast<uint8_t>(words[0] >> (8 * i)));
    EXPECT_EQ(bytes[4 + i], static_cast<uint8_t>(words[1] >> (8 * i)));
  }
}

TEST(XteaTest, DifferentKeysGiveDifferentCiphertext) {
  uint32_t a[2] = {1, 2}, b[2] = {1, 2};
  XteaEncryptBlock(TestKey(0x01), a);
  XteaEncryptBlock(TestKey(0x02), b);
  EXPECT_FALSE(a[0] == b[0] && a[1] == b[1]);
}

TEST(XteaTest, AvalancheSingleBitFlip) {
  // Flipping one plaintext bit should change roughly half the output bits.
  const Key key = TestKey(0x33);
  uint32_t a[2] = {0, 0}, b[2] = {1, 0};
  XteaEncryptBlock(key, a);
  XteaEncryptBlock(key, b);
  int diff = __builtin_popcount(a[0] ^ b[0]) + __builtin_popcount(a[1] ^ b[1]);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(XteaTest, KnownAnswer) {
  uint32_t block[2] = {0x01234567u, 0x89abcdefu};
  XteaEncryptBlock(TestKey(0x00), block);
  EXPECT_EQ(block[0], 0xe604a238u);
  EXPECT_EQ(block[1], 0xbac0c175u);
}

// --- Key derivation ------------------------------------------------------------

TEST(KeyDerivationTest, DeterministicAndSaltSensitive) {
  const Key a = DeriveKeyFromPassword("hunter2", "cmu");
  const Key b = DeriveKeyFromPassword("hunter2", "cmu");
  const Key c = DeriveKeyFromPassword("hunter2", "mit");
  const Key d = DeriveKeyFromPassword("hunter3", "cmu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(KeyDerivationTest, EmptyPasswordStillProducesKey) {
  const Key a = DeriveKeyFromPassword("", "salt");
  const Key b = DeriveKeyFromPassword("", "salt2");
  EXPECT_NE(a, b);
}

TEST(KeyDerivationTest, SubKeysDifferByNonce) {
  const Key base = TestKey(0x55);
  EXPECT_EQ(DeriveSubKey(base, 1), DeriveSubKey(base, 1));
  EXPECT_NE(DeriveSubKey(base, 1), DeriveSubKey(base, 2));
  EXPECT_NE(DeriveSubKey(base, 1), base);
}

TEST(KeyDerivationTest, KnownAnswers) {
  EXPECT_EQ(DeriveKeyFromPassword("rosebud", "andrew.cmu.edu").ToHex(),
            "8b93e8d1be64f9ad36444dd274bc3608");
  EXPECT_EQ(DeriveSubKey(TestKey(0x5c), 0x0123456789abcdefull).ToHex(),
            "e0d6bd79f255887953e7443091f08ec0");
}

TEST(KeyTest, ToHexFormats) {
  Key k;
  k.bytes.fill(0xab);
  EXPECT_EQ(k.ToHex(), std::string(32, ' ').replace(0, 32, "abababababababababababababababab"));
}

// --- Sealed envelope --------------------------------------------------------------

class SealRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(SealRoundTrip, OpensToOriginal) {
  const Key key = TestKey(0x77);
  Bytes plain(GetParam());
  for (size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<uint8_t>(i * 7 + 3);
  const Bytes sealed = Seal(key, plain, /*iv_seed=*/GetParam());
  auto opened = Open(key, sealed);
  ASSERT_TRUE(opened.ok()) << StatusName(opened.status());
  EXPECT_EQ(*opened, plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealRoundTrip,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 63, 64, 255, 1024, 4096,
                                           65536));

TEST(SealTest, CiphertextHidesPlaintext) {
  const Key key = TestKey(0x01);
  const Bytes plain = ToBytes("attack at dawn, again and again and again");
  const Bytes sealed = Seal(key, plain, 1);
  // No 8-byte window of the ciphertext equals any window of the plaintext.
  const std::string hay(sealed.begin(), sealed.end());
  EXPECT_EQ(hay.find("attack"), std::string::npos);
}

TEST(SealTest, SameplaintextDifferentIvSeedsDiffer) {
  const Key key = TestKey(0x02);
  const Bytes plain = ToBytes("identical message");
  EXPECT_NE(Seal(key, plain, 1), Seal(key, plain, 2));
}

TEST(SealTest, WrongKeyDetected) {
  const Bytes sealed = Seal(TestKey(0x10), ToBytes("secret"), 5);
  EXPECT_EQ(Open(TestKey(0x20), sealed).status(), Status::kTamperDetected);
}

TEST(SealTest, EveryBitFlipDetected) {
  const Key key = TestKey(0x31);
  const Bytes sealed = Seal(key, ToBytes("integrity matters"), 9);
  for (size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes tampered = sealed;
      tampered[byte] = static_cast<uint8_t>(tampered[byte] ^ (1u << bit));
      auto opened = Open(key, tampered);
      EXPECT_FALSE(opened.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SealTest, TruncationDetected) {
  const Key key = TestKey(0x44);
  Bytes sealed = Seal(key, ToBytes("do not truncate me please"), 4);
  sealed.resize(sealed.size() - 8);
  EXPECT_FALSE(Open(key, sealed).ok());
}

TEST(SealTest, GarbageRejected) {
  EXPECT_FALSE(Open(TestKey(0x01), Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(Open(TestKey(0x01), Bytes(40, 0x5a)).ok());
}

// Known-answer vectors: the exact bytes on the wire. The sizes cover every
// remainder of an 8-block step and every padding edge (the 16-byte trailer
// plus 0..7 bytes of padding), so any change to IV derivation, chaining,
// padding or trailer layout fails here.
struct SealVector {
  size_t size;
  const char* hex;  // Seal(TestKey(0x5c), Pattern(size), 1000 + size)
};

constexpr SealVector kSealVectors[] = {
    {0,
     "eb81432956a86441c5a021cb9ab81bca459fbbfe3098fea6"},
    {1,
     "eab4b2cafc44f85ddf23f1bd7dbcfb6b47d17afbbc63ff33f95e038f145f55ea"},
    {7,
     "fb20c405f0aafa78ec673a1e964256bf7951bc4f82dacc5c95f5489cc817447f"},
    {8,
     "b42cd7e9bb7bc32dcdf9f7e2a20d46c65518fcd05082466996e7d6eebbb5546c"},
    {9,
     "fec8be075d53d0e25ed81ae0702dacdbad6ea83c99bb07326a035f3578dcbb01"
     "804478657e75f524"},
    {15,
     "ad4e9ee7cd7774ba5452c5d87fc92daa2e9e5fddab72634479944a12f3d5cb2e"
     "b6918d2863b934a3"},
    {16,
     "fdc00e421e152e51e9c801dd171f863ac4e32273d88ac34fa9fc7821f78ce4fb"
     "67c31f16c96c9514"},
    {17,
     "4bf3c57b326bb21f8fe7c82abcaa8bdee602042ad08278c86a7a2e5f036be502"
     "0a7a3f8524452d48ec0f7fb77d30f5bb"},
    {55,
     "73c57db3e7ceb457c640669f3139bacfcf8c687fa77a8b6bf834c3e3511348e3"
     "d1568cd2888e2e5ec47a1760a5351e24e0c9fdd85bd9e3655d766a6a1f472e50"
     "7dba39699d876207763b99de2d6a79b7"},
    {56,
     "06c8dce6847c63bf0d97bff7c997f53044f0751db81ac0e24e6ddaba8fae9428"
     "ff091456396399c5df110b117525fbd416d48a3d04f646e886e921ccb9736330"
     "c046d1c7d93333d3705001d3d6329771"},
    {57,
     "d91489c5d1709988faeea0800fe9f140e45a8ff342f0290139ef3f71e909ed56"
     "cc026c1bacd3dbe3ba76c97fd6d5f68094289c92a9ebdb7003c20917cc4eef24"
     "81622f52bde8031f86852dca583d7b92208134bfe09c7d54"},
    {63,
     "9a97a7f6d83bebef20e1fbd12a8b5f8285452cd9085b48a08e35cc9530f9eeca"
     "8cc41e762148606555167c787425897c0e4348519ca11460b935286a62e01ff1"
     "ac26dad7526d17170eabca9661364a97bd333113dfc87d32"},
    {64,
     "a28821471676aaa13af1590f17a2c32a10d2d088523d1cc03dba491c597826e0"
     "59658b835dd4079bbdbf690d67deb3dd74260f93fa0ed5a841fb675fe616a7af"
     "209289b4ea5527e4d61f4479e9cd7682181021d336813cf3"},
    {65,
     "80f94cf2941a48f5bc84a9448fab2df8ae2b71fb838e6eac69746eecf4b20a9f"
     "c5b83e1c8e693780ff497d7e719beebd6ef4ab2a8451ce4db5101ff796041aae"
     "f44faf1543a3b8dd19f72d3ebaeb0be3a0f64736c4e77cec1a7c03ec18bc70d7"},
    {120,
     "42891787b643105fc2304c525b7be5a5062fd3ecceff27e05b481f4555aeec30"
     "9872932c0e5127eac2204c3c15786a8b95e3f0f5769589cbd59ae53bde876fc5"
     "7fc2b773f72405b4cb46fa686fe63bec631c3577a9a59becbf48aafe68f6f3b8"
     "6707dea69f2da87d373fb2f6e601b3744353881675039a9993f6a4272ae1768a"
     "a3bb52ea212e0aaff2bad90b2ba91dee"},
    {127,
     "49432c3724a08f4076f1669d9b59e7cc5f4fea36ce932074bd68e1f202ff014c"
     "fc255889cefcffeaaf53f29208f1a020f898809bec792702994c207e177b5f25"
     "fc7fb4b6bf7f0e2c506b11be91b0d500fc33aa799e40bfa13e4920707e1d5bf8"
     "ffc51441175761a51cf2eb58e2b216c2a70ab9306f36833099824913978e3ae9"
     "ccb6df747ad06f74c586a0072ae2a3ce0a7637df5338466a"},
    {128,
     "115d7eedc5816b984593c6f527eb8ce62ff7d1e540350f0f608b9b5bdb943bb6"
     "424b2ddb82c5c87b4f746e303223cb95e6a9e162e1f5095cd4ed9d951d88159c"
     "636c6b3aea4886bd4c17b43409aa502c525eedcd64b4ac7ea1d8e0b4e2d3cc05"
     "97220120a259803c0192cc605e1aadac67b4afd0af84b0f7f529023a0069ce19"
     "c4b371c990c29161f7fe125c9fe5615b2c91338ab408986d"},
    {129,
     "856f35f99b7c131e724dd696aa414e1199c7d2544f3b75dc755ea6a7393f9a14"
     "6d8780302930909591ca2ec293576a93d924f58b49dac5251f3ccaee8e7922eb"
     "7b7fc7c19ef5c2ac1b089af78fe62d351d13d9f0b3499f9114545f1e31e9972d"
     "20cee7da84b0fe837885a5954d7796fa3027d9d5a5ad50847a36c44efe4525d2"
     "0569d0ef0e7a84831c6bef81d905ecd68b4e30cb2f278827bc79fe2d8bcca6a0"},
};

TEST(SealKnownAnswer, CiphertextIsPinned) {
  const Key key = TestKey(0x5c);
  for (const SealVector& v : kSealVectors) {
    const Bytes plain = Pattern(v.size);
    const Bytes sealed = Seal(key, plain, 1000 + v.size);
    EXPECT_EQ(Hex(sealed), v.hex) << "size " << v.size;
    auto opened = Open(key, sealed);
    ASSERT_TRUE(opened.ok()) << "size " << v.size;
    EXPECT_EQ(*opened, plain) << "size " << v.size;
  }
}

TEST(SealKnownAnswer, LargeMessageDigestIsPinned) {
  const Bytes sealed = Seal(TestKey(0x5c), Pattern(65536), 65536);
  ASSERT_EQ(sealed.size(), 65560u);
  EXPECT_EQ(Fnv64(sealed), 0x58924d37908d0b38ull);
}

// --- Hostile input to Open ----------------------------------------------------------
// Open is the first decoder every reply passes through, so it must reject
// any ciphertext it did not produce: no crash, no ok with a wrong length.

class SealBitFlip : public ::testing::TestWithParam<size_t> {};

TEST_P(SealBitFlip, EverySingleBitFlipIsTamper) {
  const Key key = TestKey(0x6d);
  const Bytes sealed = Seal(key, Pattern(GetParam()), 77);
  for (size_t bit = 0; bit < 8 * sealed.size(); ++bit) {
    Bytes tampered = sealed;
    tampered[bit / 8] = static_cast<uint8_t>(tampered[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_EQ(Open(key, tampered).status(), Status::kTamperDetected) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealBitFlip, ::testing::Values(0, 9, 65));

TEST(SealHostileTest, IvFlipOverPaddingIsTamper) {
  // Below one block, the plaintext shares its only data block with padding
  // that the checksum does not cover, and that block chains off the IV.
  const Key key = TestKey(0x71);
  for (size_t n = 1; n < kBlockSize; ++n) {
    const Bytes sealed = Seal(key, Bytes(n, 0x5c), 79);
    for (size_t at = 0; at < kBlockSize; ++at) {
      Bytes tampered = sealed;
      tampered[at] ^= 0x80;
      EXPECT_EQ(Open(key, tampered).status(), Status::kTamperDetected)
          << "size " << n << ", IV byte " << at;
    }
  }
}

TEST(SealHostileTest, EveryTruncationIsAnError) {
  const Key key = TestKey(0x6e);
  const Bytes sealed = Seal(key, Pattern(65), 78);
  for (size_t len = 0; len < sealed.size(); ++len) {
    const Bytes cut(sealed.begin(), sealed.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(Open(key, cut).ok()) << "length " << len;
  }
}

TEST(SealHostileTest, PartialBlockLengthsAreInvalid) {
  const Key key = TestKey(0x6f);
  for (size_t len = 0; len <= 200; ++len) {
    if (len >= 3 * kBlockSize && len % kBlockSize == 0) continue;
    EXPECT_EQ(Open(key, Bytes(len, 0xa5)).status(), Status::kInvalidArgument)
        << "length " << len;
  }
}

TEST(SealHostileTest, RandomBuffersNeverOpenWithWrongLength) {
  const Key key = TestKey(0x70);
  Rng rng(20261017);
  for (int i = 0; i < 10000; ++i) {
    Bytes buf(rng.Below(201));
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    auto opened = Open(key, buf);
    if (!opened.ok()) continue;
    // Astronomically unlikely, but if a random buffer ever verifies, its
    // length must still match the envelope it came in.
    const size_t padded = (opened->size() + 16 + kBlockSize - 1) / kBlockSize * kBlockSize;
    EXPECT_EQ(buf.size(), kBlockSize + padded) << "buffer " << i;
  }
}

// --- Handshake ----------------------------------------------------------------------

class HandshakeTest : public ::testing::Test {
 protected:
  static constexpr UserId kUser = 4711;
  Key user_key_ = DeriveKeyFromPassword("rosebud", "realm");

  ServerHandshake::KeyLookup LookupFor(UserId user, const Key& key) {
    return [user, key](UserId who) -> std::optional<Key> {
      if (who == user) return key;
      return std::nullopt;
    };
  }
};

TEST_F(HandshakeTest, MutualAuthenticationSucceeds) {
  ClientHandshake client(kUser, user_key_, /*nonce_seed=*/111);
  ServerHandshake server(LookupFor(kUser, user_key_), /*nonce_seed=*/222);

  Bytes m1 = client.Start();
  auto m2 = server.HandleHello(m1);
  ASSERT_TRUE(m2.ok());
  auto m3 = client.HandleChallenge(*m2);
  ASSERT_TRUE(m3.ok());
  auto m4 = server.HandleResponse(*m3);
  ASSERT_TRUE(m4.ok());
  auto secret = client.HandleSessionGrant(*m4);
  ASSERT_TRUE(secret.ok());

  EXPECT_TRUE(server.done());
  EXPECT_EQ(server.user(), kUser);
  EXPECT_EQ(*secret, server.secret());
  EXPECT_NE(secret->session_key, user_key_);
}

TEST_F(HandshakeTest, UnknownUserRejected) {
  ClientHandshake client(9999, user_key_, 1);
  ServerHandshake server(LookupFor(kUser, user_key_), 2);
  EXPECT_EQ(server.HandleHello(client.Start()).status(), Status::kAuthFailed);
}

TEST_F(HandshakeTest, ClientWithWrongKeyRejected) {
  ClientHandshake client(kUser, DeriveKeyFromPassword("wrong", "realm"), 1);
  ServerHandshake server(LookupFor(kUser, user_key_), 2);
  Bytes m1 = client.Start();
  // The server cannot decrypt the client's nonce, so the handshake dies
  // either at the hello or at the response check.
  auto m2 = server.HandleHello(m1);
  if (m2.ok()) {
    auto m3 = client.HandleChallenge(*m2);
    if (m3.ok()) {
      EXPECT_EQ(server.HandleResponse(*m3).status(), Status::kAuthFailed);
    } else {
      EXPECT_EQ(m3.status(), Status::kAuthFailed);
    }
  } else {
    EXPECT_EQ(m2.status(), Status::kAuthFailed);
  }
}

TEST_F(HandshakeTest, ServerImpersonatorDetectedByClient) {
  // A fake server that does not know the user key cannot produce Xr+1.
  ClientHandshake client(kUser, user_key_, 3);
  const Key fake_key = DeriveKeyFromPassword("not-the-key", "realm");
  ServerHandshake impostor(LookupFor(kUser, fake_key), 4);
  Bytes m1 = client.Start();
  auto m2 = impostor.HandleHello(m1);
  if (m2.ok()) {
    EXPECT_EQ(client.HandleChallenge(*m2).status(), Status::kAuthFailed);
  }
}

TEST_F(HandshakeTest, ReplayedHelloYieldsDifferentSessionKeys) {
  ClientHandshake c1(kUser, user_key_, 10);
  ClientHandshake c2(kUser, user_key_, 20);
  ServerHandshake s1(LookupFor(kUser, user_key_), 30);
  ServerHandshake s2(LookupFor(kUser, user_key_), 31);

  auto run = [&](ClientHandshake& c, ServerHandshake& s) {
    auto m2 = s.HandleHello(c.Start());
    auto m3 = c.HandleChallenge(*m2);
    auto m4 = s.HandleResponse(*m3);
    return *c.HandleSessionGrant(*m4);
  };
  EXPECT_NE(run(c1, s1).session_key, run(c2, s2).session_key);
}

TEST_F(HandshakeTest, OutOfOrderMessagesRejected) {
  ClientHandshake client(kUser, user_key_, 5);
  ServerHandshake server(LookupFor(kUser, user_key_), 6);
  // Response before hello.
  EXPECT_EQ(server.HandleResponse(Bytes{1, 2, 3}).status(), Status::kProtocolError);
  // Grant before challenge.
  EXPECT_EQ(client.HandleSessionGrant(Bytes{1, 2, 3}).status(), Status::kProtocolError);
}

}  // namespace
}  // namespace itc::crypto

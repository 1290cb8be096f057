#include "src/crypto/handshake.h"

#include <cstring>

#include "src/crypto/cbc.h"

namespace itc::crypto {

namespace {

// IV seeds namespace the four message types so replaying one message as
// another cannot succeed.
constexpr uint64_t kIvHello = 0x1001;
constexpr uint64_t kIvChallenge = 0x1002;
constexpr uint64_t kIvResponse = 0x1003;
constexpr uint64_t kIvGrant = 0x1004;

// Message-type tags sealed INSIDE each payload, so one handshake message can
// never be accepted in another's role (e.g. a reflected M3 passed off as M4)
// even though the envelope itself does not authenticate the IV seed.
constexpr uint64_t kTagHello = 0xa1;
constexpr uint64_t kTagChallenge = 0xa2;
constexpr uint64_t kTagResponse = 0xa3;
constexpr uint64_t kTagGrant = 0xa4;

Bytes EncodeU64s(std::initializer_list<uint64_t> values) {
  Bytes out;
  out.reserve(values.size() * 8);
  for (uint64_t v : values) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  return out;
}

Result<std::vector<uint64_t>> DecodeU64s(const Bytes& b, size_t count) {
  if (b.size() != count * 8) return Status::kProtocolError;
  std::vector<uint64_t> out(count, 0);
  for (size_t k = 0; k < count; ++k) {
    for (int i = 0; i < 8; ++i) {
      out[k] |= static_cast<uint64_t>(b[k * 8 + i]) << (8 * i);
    }
  }
  return out;
}

// Nonces are mixed from the seed so consecutive handshakes differ.
uint64_t MixNonce(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ClientHandshake::ClientHandshake(UserId user, Key user_key, uint64_t nonce_seed)
    : user_(user), user_key_(user_key), client_nonce_(MixNonce(nonce_seed, 1)) {}

Bytes ClientHandshake::Start() {
  state_ = State::kSentHello;
  // M1 = user id (clear, so the server can find the key) || sealed Xr.
  Bytes sealed = Seal(user_key_, EncodeU64s({kTagHello, client_nonce_}), kIvHello);
  Bytes m1(4 + sealed.size());
  for (int i = 0; i < 4; ++i) m1[i] = static_cast<uint8_t>(user_ >> (8 * i));
  std::copy(sealed.begin(), sealed.end(), m1.begin() + 4);
  return m1;
}

Result<Bytes> ClientHandshake::HandleChallenge(const Bytes& m2) {
  if (state_ != State::kSentHello) return Status::kProtocolError;
  auto opened = Open(user_key_, m2);
  if (!opened.ok()) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  auto words = DecodeU64s(*opened, 3);
  if (!words.ok() || (*words)[0] != kTagChallenge || (*words)[1] != client_nonce_ + 1) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  server_nonce_ = (*words)[2];
  state_ = State::kSentResponse;
  return Seal(user_key_, EncodeU64s({kTagResponse, server_nonce_ + 1}), kIvResponse);
}

Result<SessionSecret> ClientHandshake::HandleSessionGrant(const Bytes& m4) {
  if (state_ != State::kSentResponse) return Status::kProtocolError;
  auto opened = Open(user_key_, m4);
  if (!opened.ok()) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  auto words = DecodeU64s(*opened, 2);
  if (!words.ok() || (*words)[0] != kTagGrant) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  state_ = State::kDone;
  const uint64_t session_nonce = (*words)[1];
  return SessionSecret{DeriveSubKey(user_key_, session_nonce), session_nonce};
}

ServerHandshake::ServerHandshake(KeyLookup key_lookup, uint64_t nonce_seed)
    : key_lookup_(std::move(key_lookup)), nonce_seed_(nonce_seed) {}

Result<Bytes> ServerHandshake::HandleHello(const Bytes& m1) {
  if (state_ != State::kInit) return Status::kProtocolError;
  if (m1.size() < 4) return Status::kProtocolError;
  UserId claimed = 0;
  for (int i = 0; i < 4; ++i) claimed |= static_cast<UserId>(m1[i]) << (8 * i);
  auto key = key_lookup_(claimed);
  if (!key.has_value()) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  user_ = claimed;
  user_key_ = *key;

  Bytes sealed(m1.begin() + 4, m1.end());
  auto opened = Open(user_key_, sealed);
  if (!opened.ok()) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  auto words = DecodeU64s(*opened, 2);
  if (!words.ok() || (*words)[0] != kTagHello) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  client_nonce_ = (*words)[1];
  server_nonce_ = MixNonce(nonce_seed_, client_nonce_);
  state_ = State::kSentChallenge;
  return Seal(user_key_,
              EncodeU64s({kTagChallenge, client_nonce_ + 1, server_nonce_}), kIvChallenge);
}

Result<Bytes> ServerHandshake::HandleResponse(const Bytes& m3) {
  if (state_ != State::kSentChallenge) return Status::kProtocolError;
  auto opened = Open(user_key_, m3);
  if (!opened.ok()) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  auto words = DecodeU64s(*opened, 2);
  if (!words.ok() || (*words)[0] != kTagResponse || (*words)[1] != server_nonce_ + 1) {
    state_ = State::kFailed;
    return Status::kAuthFailed;
  }
  const uint64_t session_nonce = MixNonce(nonce_seed_ ^ client_nonce_, server_nonce_);
  secret_ = SessionSecret{DeriveSubKey(user_key_, session_nonce), session_nonce};
  state_ = State::kDone;
  return Seal(user_key_, EncodeU64s({kTagGrant, session_nonce}), kIvGrant);
}

}  // namespace itc::crypto

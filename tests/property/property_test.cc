// Property-based tests: randomized operation sequences checked against
// independent models and invariants.
//
//  * unixfs vs a flat shadow model (path -> contents map),
//  * Volume churn keeps Salvage clean and quota accounting exact,
//  * multi-client Venus/Vice sessions always converge to the server's truth,
//  * sealed-envelope round trips across randomized sizes and keys.

#include <gtest/gtest.h>

#include <map>

#include "src/campus/campus.h"
#include "src/common/rng.h"
#include "src/crypto/cbc.h"
#include "src/unixfs/file_system.h"
#include "src/vice/volume.h"

namespace itc {
namespace {

// --- unixfs vs shadow model ----------------------------------------------------

class UnixFsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnixFsPropertyTest, RandomOpsMatchShadowModel) {
  Rng rng(GetParam());
  unixfs::FileSystem fs;
  std::map<std::string, std::string> shadow;  // regular files only

  // A fixed pool of directories and file names keeps collisions frequent.
  const std::vector<std::string> dirs = {"/", "/a", "/a/b", "/c"};
  for (const auto& d : dirs) {
    if (d != "/") {
      ASSERT_EQ(fs.MkDirAll(d), Status::kOk);
    }
  }
  auto random_path = [&] {
    const std::string& dir = dirs[rng.Below(dirs.size())];
    return (dir == "/" ? "" : dir) + "/f" + std::to_string(rng.Below(6));
  };

  for (int step = 0; step < 600; ++step) {
    const std::string path = random_path();
    switch (rng.Below(4)) {
      case 0: {  // write
        std::string contents = Numbered("c", rng.Below(1000));
        Status s = fs.WriteFile(path, ToBytes(contents));
        if (s == Status::kOk) shadow[path] = contents;
        break;
      }
      case 1: {  // read
        auto got = fs.ReadFile(path);
        auto it = shadow.find(path);
        if (it == shadow.end()) {
          EXPECT_FALSE(got.ok()) << path;
        } else {
          ASSERT_TRUE(got.ok()) << path;
          EXPECT_EQ(ToString(*got), it->second) << path;
        }
        break;
      }
      case 2: {  // unlink
        Status s = fs.Unlink(path);
        EXPECT_EQ(s == Status::kOk, shadow.erase(path) > 0) << path;
        break;
      }
      case 3: {  // rename to another random file path
        const std::string to = random_path();
        Status s = fs.Rename(path, to);
        auto it = shadow.find(path);
        if (it == shadow.end()) {
          EXPECT_NE(s, Status::kOk) << path << "->" << to;
        } else if (s == Status::kOk) {
          if (path != to) {
            shadow[to] = it->second;
            shadow.erase(path);
          }
        }
        break;
      }
    }
  }

  // Final sweep: every shadow file readable with exactly the right bytes.
  for (const auto& [path, contents] : shadow) {
    auto got = fs.ReadFile(path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(ToString(*got), contents) << path;
  }
  // And data-byte accounting matches the shadow total.
  uint64_t expected_bytes = 0;
  for (const auto& [path, contents] : shadow) expected_bytes += contents.size();
  EXPECT_EQ(fs.total_data_bytes(), expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnixFsPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Volume churn invariants -------------------------------------------------------

class VolumePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VolumePropertyTest, ChurnKeepsSalvageCleanAndQuotaExact) {
  Rng rng(GetParam() * 7919);
  protection::AccessList acl;
  acl.SetPositive(protection::Principal::Group(protection::kAnyUserGroup),
                  protection::kAllRights);
  vice::Volume vol(1, "churn", vice::VolumeType::kReadWrite, 1, acl, 0);

  std::vector<Fid> dirs{vol.root()};

  for (int step = 0; step < 500; ++step) {
    const Fid dir = dirs[rng.Below(dirs.size())];
    switch (rng.Below(5)) {
      case 0: {  // create file
        (void)vol.CreateFile(dir, Numbered("f", rng.Below(1000)), 1, 0644);
        break;
      }
      case 1: {  // mkdir
        auto fid = vol.MakeDir(dir, Numbered("d", rng.Below(50)), 1, acl);
        if (fid.ok()) dirs.push_back(*fid);
        break;
      }
      case 2: {  // store into a random live file found via the directory
        auto data = vol.FetchData(dir);
        if (!data.ok()) break;
        auto entries = vice::DeserializeDirectory(*data);
        for (const auto& [name, item] : *entries) {
          if (item.kind == vice::DirItem::Kind::kFile && rng.Chance(0.5)) {
            (void)vol.StoreData(item.fid, Bytes(rng.Below(4096), 'x'));
            break;
          }
        }
        break;
      }
      case 3: {  // remove a random file
        auto data = vol.FetchData(dir);
        if (!data.ok()) break;
        auto entries = vice::DeserializeDirectory(*data);
        for (const auto& [name, item] : *entries) {
          if (item.kind == vice::DirItem::Kind::kFile && rng.Chance(0.5)) {
            (void)vol.RemoveFile(dir, name);
            break;
          }
        }
        break;
      }
      case 4: {  // rename between random directories
        auto data = vol.FetchData(dir);
        if (!data.ok()) break;
        auto entries = vice::DeserializeDirectory(*data);
        const Fid to = dirs[rng.Below(dirs.size())];
        for (const auto& [name, item] : *entries) {
          if (rng.Chance(0.3)) {
            (void)vol.Rename(dir, name, to, name + "_m");
            break;
          }
        }
        break;
      }
    }
  }

  // Invariant 1: salvage finds nothing to repair.
  const uint64_t usage_before = vol.usage_bytes();
  auto report = vol.Salvage();
  EXPECT_EQ(report.dangling_entries_removed, 0u);
  EXPECT_EQ(report.orphan_vnodes_removed, 0u);
  EXPECT_EQ(report.parents_fixed, 0u);
  // Invariant 2: incremental quota accounting equals recomputed usage.
  EXPECT_EQ(report.usage_corrected_bytes, 0u);
  EXPECT_EQ(vol.usage_bytes(), usage_before);

  // Invariant 3: a clone is byte-identical and stays so after more churn.
  auto clone = vol.Clone(2, "churn.snap");
  auto root_before = clone->FetchData(clone->root());
  (void)vol.CreateFile(vol.root(), "post-clone", 1, 0644);
  auto root_after = clone->FetchData(clone->root());
  ASSERT_TRUE(root_before.ok() && root_after.ok());
  EXPECT_EQ(*root_before, *root_after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolumePropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Multi-client convergence -----------------------------------------------------

class ConvergencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergencePropertyTest, ClientsConvergeToServerTruth) {
  Rng rng(GetParam() ^ 0xc0ffee);
  campus::Campus campus(rng.Chance(0.5) ? campus::CampusConfig::Revised(1, 3)
                                        : campus::CampusConfig::Prototype(1, 3));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("shared", "pw", 0);
  ASSERT_TRUE(home.ok());

  // All three workstations log in as the owner (mobility) and hammer a
  // small set of files with random whole-file writes and reads.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(campus.workstation(i).LoginWithPassword(home->user, "pw"), Status::kOk);
  }
  std::map<std::string, std::string> last_written;
  for (int step = 0; step < 200; ++step) {
    auto& ws = campus.workstation(rng.Below(3));
    const std::string path = "/vice/usr/shared/f" + std::to_string(rng.Below(5));
    if (rng.Chance(0.4)) {
      const std::string contents = Numbered("v", step);
      if (ws.WriteWholeFile(path, ToBytes(contents)) == Status::kOk) {
        last_written[path] = contents;
      }
    } else {
      auto got = ws.ReadWholeFile(path);
      if (last_written.contains(path)) {
        ASSERT_TRUE(got.ok()) << path;
        // Whole-file semantics: a read returns SOME complete prior version;
        // with our sequential virtual interleaving it must be the latest.
        EXPECT_EQ(ToString(*got), last_written[path]) << path << " step " << step;
      }
    }
  }

  // Convergence: every client, after a flush, sees exactly the server truth.
  for (int i = 0; i < 3; ++i) {
    campus.workstation(i).venus().FlushCache();
    for (const auto& [path, contents] : last_written) {
      auto got = campus.workstation(i).ReadWholeFile(path);
      ASSERT_TRUE(got.ok()) << path;
      EXPECT_EQ(ToString(*got), contents) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergencePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- Sealed envelope sweep ----------------------------------------------------------

class SealPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SealPropertyTest, RandomPayloadsRoundTripAndRejectTampering) {
  Rng rng(GetParam() * 31337);
  for (int trial = 0; trial < 50; ++trial) {
    crypto::Key key;
    for (auto& b : key.bytes) b = static_cast<uint8_t>(rng.NextU64());
    Bytes payload(rng.Below(2000));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());

    const Bytes sealed = crypto::Seal(key, payload, rng.NextU64());
    auto opened = crypto::Open(key, sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, payload);

    Bytes tampered = sealed;
    tampered[rng.Below(tampered.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    EXPECT_FALSE(crypto::Open(key, tampered).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SealPropertyTest, ::testing::Values(1, 2, 3));

// --- Lazy envelope against the eager cipher ------------------------------------------

// A deferred crypto::Sealed must be indistinguishable from Seal's bytes by
// anything that looks: its size, its materialized bytes, and what Open makes
// of it under the right key, a wrong key, or after tampering.
class EnvelopePropertyTest : public ::testing::TestWithParam<uint64_t> {};

crypto::Key RandomKey(Rng& rng) {
  crypto::Key key;
  for (auto& b : key.bytes) b = static_cast<uint8_t>(rng.NextU64());
  return key;
}

TEST_P(EnvelopePropertyTest, EnvelopeEqualsSealThenOpen) {
  Rng rng(GetParam() * 7919);
  // Every block-boundary neighbour, one message of at least 64 KB, and
  // random sizes.
  std::vector<size_t> sizes = {0, 1, 7, 8, 9, 15, 16, 17, 64 * 1024 + rng.Below(64)};
  for (int i = 0; i < 20; ++i) sizes.push_back(rng.Below(3000));
  for (size_t n : sizes) {
    SCOPED_TRACE(n);
    const crypto::Key key = RandomKey(rng);
    crypto::Key wrong = RandomKey(rng);
    if (wrong == key) wrong.bytes[0] ^= 1;
    const uint64_t iv_seed = rng.NextU64();
    Bytes plain(n);
    for (auto& b : plain) b = static_cast<uint8_t>(rng.NextU64());
    const Bytes eager = crypto::Seal(key, plain, iv_seed);

    // A deferred envelope knows its size and opens under its own key
    // without running the cipher.
    const uint64_t sealed_before = crypto::SealedByteCount();
    crypto::Sealed deferred(key, plain, iv_seed);
    EXPECT_EQ(deferred.size(), eager.size());
    EXPECT_EQ(crypto::SealedSize(n), eager.size());
    auto opened = crypto::Open(key, std::move(deferred));
    auto eager_opened = crypto::Open(key, eager);
    ASSERT_EQ(opened.status(), eager_opened.status());
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, *eager_opened);
    EXPECT_EQ(crypto::SealedByteCount(), sealed_before);

    // A wrong key seals for real and fails exactly as Open on Seal's bytes.
    EXPECT_EQ(crypto::Open(wrong, crypto::Sealed(key, plain, iv_seed)).status(),
              crypto::Open(wrong, eager).status());

    // Observed bytes are Seal's bytes, and still open under the right key.
    crypto::Sealed observed(key, plain, iv_seed);
    EXPECT_EQ(observed.bytes(), eager);
    EXPECT_EQ(observed.size(), eager.size());
    auto reopened = crypto::Open(key, std::move(observed));
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(*reopened, plain);

    // Tampering with the observed bytes is always detected: every byte of a
    // small message, a sample of a large one.
    const size_t flips = eager.size() <= 64 ? eager.size() : 16;
    for (size_t i = 0; i < flips; ++i) {
      Bytes tampered = crypto::Sealed(key, plain, iv_seed).bytes();
      const size_t at = eager.size() <= 64 ? i : rng.Below(tampered.size());
      tampered[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
      EXPECT_EQ(crypto::Open(key, crypto::Sealed(std::move(tampered))).status(),
                Status::kTamperDetected)
          << "byte " << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopePropertyTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace itc

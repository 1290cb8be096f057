// Tests for the write-back policy ablation (Section 3.2): store-on-close vs
// deferred write-back, including the crash-recovery argument that decided it.

#include <gtest/gtest.h>

#include "src/campus/campus.h"

namespace itc::venus {
namespace {

using campus::Campus;
using campus::CampusConfig;

class WriteBackTest : public ::testing::Test {
 protected:
  void Build(VenusConfig::WriteBack policy, uint32_t max_dirty = 10) {
    CampusConfig config = CampusConfig::Revised(1, 2);
    config.workstation.venus.write_back = policy;
    config.workstation.venus.max_dirty_files = max_dirty;
    campus_ = std::make_unique<Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("w", "pw", 0);
    ASSERT_TRUE(home.ok());
    user_ = home->user;
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(user_, "pw"), Status::kOk);
  }

  std::unique_ptr<Campus> campus_;
  UserId user_ = kAnonymousUser;
  virtue::Workstation* ws_ = nullptr;
};

TEST_F(WriteBackTest, OnCloseStoresImmediately) {
  Build(VenusConfig::WriteBack::kOnClose);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v1")), Status::kOk);
  EXPECT_EQ(ws_->venus().stats().stores, 1u);
  EXPECT_EQ(ws_->venus().dirty_count(), 0u);
}

TEST_F(WriteBackTest, DeferredQueuesAndCoalesces) {
  Build(VenusConfig::WriteBack::kDeferred, /*max_dirty=*/10);
  // Five edits of the same file: zero stores, one dirty entry.
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes(Numbered("v", i))),
              Status::kOk);
  }
  EXPECT_EQ(ws_->venus().stats().stores, 0u);
  EXPECT_EQ(ws_->venus().dirty_count(), 1u);

  // Flush pushes exactly one coalesced store with the final contents.
  ASSERT_EQ(ws_->venus().FlushDirty(), Status::kOk);
  EXPECT_EQ(ws_->venus().stats().stores, 1u);
  EXPECT_EQ(ws_->venus().dirty_count(), 0u);

  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v4");
}

TEST_F(WriteBackTest, DeferredHidesUpdatesUntilFlush) {
  // The consistency cost the paper avoided: "changes by one user are
  // immediately visible to all other users" fails under deferral.
  Build(VenusConfig::WriteBack::kDeferred);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v1")), Status::kOk);
  ASSERT_EQ(ws_->venus().FlushDirty(), Status::kOk);

  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  ASSERT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v1");

  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v2")), Status::kOk);
  // Not flushed: the other workstation still sees v1.
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v1");
  ASSERT_EQ(ws_->venus().FlushDirty(), Status::kOk);
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v2");
}

TEST_F(WriteBackTest, QueueLimitForcesFlush) {
  Build(VenusConfig::WriteBack::kDeferred, /*max_dirty=*/3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f" + std::to_string(i), ToBytes("x")),
              Status::kOk);
  }
  // Hitting the limit flushed everything.
  EXPECT_EQ(ws_->venus().stats().stores, 3u);
  EXPECT_EQ(ws_->venus().dirty_count(), 0u);
}

TEST_F(WriteBackTest, LogoutFlushes) {
  Build(VenusConfig::WriteBack::kDeferred);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("persisted")), Status::kOk);
  EXPECT_EQ(ws_->venus().stats().stores, 0u);
  ws_->Logout();

  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "persisted");
}

TEST_F(WriteBackTest, CrashLosesDeferredWrites) {
  // The argument that decided the design: "we have adopted this approach in
  // order to simplify recovery from workstation crashes."
  Build(VenusConfig::WriteBack::kDeferred);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v1")), Status::kOk);
  ASSERT_EQ(ws_->venus().FlushDirty(), Status::kOk);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v2-unsaved")), Status::kOk);

  ws_->venus().SimulateCrash();

  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v1");  // v2 lost
}

TEST_F(WriteBackTest, CrashLosesNothingUnderOnClose) {
  Build(VenusConfig::WriteBack::kOnClose);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/f", ToBytes("v2-durable")), Status::kOk);
  ws_->venus().SimulateCrash();

  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  EXPECT_EQ(ToString(*other.ReadWholeFile("/vice/usr/w/f")), "v2-durable");
}

TEST_F(WriteBackTest, DirtyEntriesSurviveEvictionPressure) {
  CampusConfig config = CampusConfig::Revised(1, 1);
  config.workstation.venus.write_back = VenusConfig::WriteBack::kDeferred;
  config.workstation.venus.max_dirty_files = 100;
  config.workstation.venus.max_cache_bytes = 64 * 1024;
  campus_ = std::make_unique<Campus>(config);
  ASSERT_TRUE(campus_->SetupRootVolume().ok());
  auto home = campus_->AddUserWithHome("w", "pw", 0);
  ws_ = &campus_->workstation(0);
  ASSERT_EQ(ws_->LoginWithPassword(home->user, "pw"), Status::kOk);

  // Dirty one small file, then enough unflushed big files to bust the 64 KB
  // cache budget. Dirty entries must never be evicted (their bytes exist
  // nowhere else), so the cache legitimately overshoots its limit.
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/precious", ToBytes("unsaved work")),
            Status::kOk);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/w/big" + std::to_string(i),
                                  Bytes(30 * 1024, 'x')),
              Status::kOk);
  }
  EXPECT_GT(ws_->venus().cache().data_bytes(), 64 * 1024u);
  EXPECT_EQ(ws_->venus().dirty_count(), 11u);

  // Flushing persists everything; the cache can then shrink back under its
  // limit, and every byte survives a full cache drop.
  ASSERT_EQ(ws_->venus().FlushDirty(), Status::kOk);
  ws_->venus().cache().EnforceLimits();
  EXPECT_LE(ws_->venus().cache().data_bytes(), 64 * 1024u);
  ws_->venus().FlushCache();
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/w/precious")), "unsaved work");
  EXPECT_EQ(ws_->ReadWholeFile("/vice/usr/w/big7")->size(), 30 * 1024u);
}

}  // namespace
}  // namespace itc::venus

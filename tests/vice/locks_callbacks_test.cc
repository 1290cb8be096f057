// Unit tests for the lock manager (single-writer/multi-reader advisory
// locks) and the promise table's open-ended grants (callbacks:
// invalidate-on-modification promises).

#include <gtest/gtest.h>

#include "src/sim/kernel.h"
#include "src/vice/lock_manager.h"
#include "src/vice/promise_table.h"

namespace itc::vice {
namespace {

// --- LockManager ------------------------------------------------------------

class LockTest : public ::testing::Test {
 protected:
  LockManager locks_;
  const Fid f_{1, 2, 3};
  const LockManager::Holder a_{100, 10};
  const LockManager::Holder b_{200, 20};
};

TEST_F(LockTest, MultipleReadersAllowed) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kOk);
  EXPECT_TRUE(locks_.IsLocked(f_));
  EXPECT_FALSE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, WriterExcludesEveryone) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kLocked);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kLocked);
  EXPECT_TRUE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, ReaderBlocksWriter) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kLocked);
}

TEST_F(LockTest, SoleReaderCanUpgrade) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_TRUE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, UpgradeBlockedByOtherReader) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kLocked);
}

TEST_F(LockTest, ReacquireIsIdempotent) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
}

TEST_F(LockTest, ReleaseFreesLock) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Release(f_, a_), Status::kOk);
  EXPECT_FALSE(locks_.IsLocked(f_));
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kOk);
}

TEST_F(LockTest, ReleaseWithoutHoldFails) {
  EXPECT_EQ(locks_.Release(f_, a_), Status::kNotLocked);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Release(f_, b_), Status::kNotLocked);
}

TEST_F(LockTest, ReleaseAllForWorkstationCrash) {
  const Fid g{1, 5, 5};
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(g, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(g, LockMode::kShared, b_), Status::kOk);
  locks_.ReleaseAllFor(a_);
  EXPECT_FALSE(locks_.IsLocked(f_));
  EXPECT_TRUE(locks_.IsLocked(g));  // b still holds
}

// --- PromiseTable, callbacks --------------------------------------------------------

class RecordingReceiver : public CallbackReceiver {
 public:
  explicit RecordingReceiver(NodeId node) : node_(node) {}
  void OnCallbackBroken(const Fid& fid) override { broken.push_back(fid); }
  NodeId callback_node() const override { return node_; }
  std::vector<Fid> broken;

 private:
  NodeId node_;
};

class CallbackTest : public ::testing::Test {
 protected:
  CallbackTest()
      : topo_(net::TopologyConfig{1, 1, 4}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_),
        cpu_("cpu"),
        r1_(topo_.WorkstationNode(0, 0)),
        r2_(topo_.WorkstationNode(0, 1)),
        r3_(topo_.WorkstationNode(0, 2)) {}

  uint32_t Break(const Fid& fid, CallbackReceiver* except) {
    return cbm_.Break(fid, except, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_).sent;
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  sim::Resource cpu_;
  PromiseTable cbm_;
  RecordingReceiver r1_, r2_, r3_;
  const Fid f_{1, 2, 3};
};

TEST_F(CallbackTest, BreakNotifiesAllHoldersExceptWriter) {
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(f_, &r2_, 0, sim::kNeverSimTime);
  cbm_.Grant(f_, &r3_, 0, sim::kNeverSimTime);
  EXPECT_EQ(Break(f_, &r1_), 2u);
  EXPECT_TRUE(r1_.broken.empty());
  EXPECT_EQ(r2_.broken.size(), 1u);
  EXPECT_EQ(r3_.broken.size(), 1u);
  EXPECT_EQ(cbm_.stats().broken, 2u);
}

TEST_F(CallbackTest, WriterPromiseSurvivesItsOwnBreak) {
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(f_, &r2_, 0, sim::kNeverSimTime);
  Break(f_, &r1_);
  // r1 keeps its promise; r2's is gone.
  EXPECT_TRUE(cbm_.HasPromise(f_, &r1_, 0));
  EXPECT_FALSE(cbm_.HasPromise(f_, &r2_, 0));
  // A second write by r2 must notify r1.
  cbm_.Grant(f_, &r2_, 0, sim::kNeverSimTime);
  EXPECT_EQ(Break(f_, &r2_), 1u);
  EXPECT_EQ(r1_.broken.size(), 1u);
}

TEST_F(CallbackTest, BreakOnUnknownFidIsNoop) {
  EXPECT_EQ(Break(f_, nullptr), 0u);
  EXPECT_EQ(cbm_.stats().break_events, 0u);
}

TEST_F(CallbackTest, UnregisterStopsNotifications) {
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Release(f_, &r1_);
  EXPECT_EQ(Break(f_, nullptr), 0u);
}

TEST_F(CallbackTest, UnregisterAllDropsEveryPromise) {
  const Fid g{1, 9, 9};
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(g, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(g, &r2_, 0, sim::kNeverSimTime);
  cbm_.ReleaseAll(&r1_);
  EXPECT_FALSE(cbm_.HasPromise(f_, &r1_, 0));
  EXPECT_FALSE(cbm_.HasPromise(g, &r1_, 0));
  EXPECT_TRUE(cbm_.HasPromise(g, &r2_, 0));
}

TEST_F(CallbackTest, BreakChargesServerCpuAndNetwork) {
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(f_, &r2_, 0, sim::kNeverSimTime);
  const uint64_t msgs_before = network_.stats().messages;
  Break(f_, nullptr);
  EXPECT_EQ(network_.stats().messages - msgs_before, 2u);
  EXPECT_GT(cpu_.busy_time(), 0);
}

TEST_F(CallbackTest, BreakVolumeSweepsWholeVolume) {
  const Fid g{1, 9, 9};
  const Fid other_volume{2, 1, 1};
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(g, &r2_, 0, sim::kNeverSimTime);
  cbm_.Grant(other_volume, &r3_, 0, sim::kNeverSimTime);
  const uint32_t sent =
      cbm_.BreakVolume(1, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_);
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(r1_.broken.size(), 1u);
  EXPECT_EQ(r2_.broken.size(), 1u);
  EXPECT_TRUE(r3_.broken.empty());
  EXPECT_TRUE(cbm_.HasPromise(other_volume, &r3_, 0));
}

TEST_F(CallbackTest, RegisterIsIdempotentPerHolder) {
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  cbm_.Grant(f_, &r1_, 0, sim::kNeverSimTime);
  EXPECT_EQ(cbm_.promise_count(0), 1u);
  EXPECT_EQ(Break(f_, nullptr), 1u);
}

}  // namespace
}  // namespace itc::vice

// Crash-recovery unit tests: the intention log's lifecycle, the write-ahead
// discipline of the mutating handlers, crash-point semantics (Section 3.5's
// store-on-close atomicity: an operation the client never saw a reply for
// must not survive recovery), and the volatile/durable state split of
// SimulateCrash/Restart.

#include <set>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/rpc/rpc.h"
#include "src/rpc/wire.h"
#include "src/vice/file_server.h"
#include "src/vice/recovery/intention_log.h"
#include "src/vice/recovery/stable_store.h"
#include "src/vice/volume_registry.h"

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;
using recovery::IntentKind;
using recovery::IntentState;
using recovery::IntentionLog;

// --- IntentionLog in isolation ------------------------------------------------

TEST(IntentionLogTest, AppendCommitAbortLifecycle) {
  IntentionLog log;
  EXPECT_TRUE(log.empty());

  const Fid fid{1, 2, 3};
  const uint64_t a = log.Append(IntentKind::kStore, 1, 10, recovery::EncodeStore(fid),
                                content::Ref::Canonicalize(ToBytes("x")));
  const uint64_t b = log.Append(IntentKind::kRemoveFile, 1, 20, recovery::EncodeRemove(fid, "f"));
  const uint64_t c = log.Append(IntentKind::kSetAcl, 1, 30, recovery::EncodeSetAcl(fid, Bytes{}));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_GT(log.bytes_appended(), 0u);

  log.MarkCommitted(a);
  log.MarkAborted(b);
  EXPECT_EQ(log.records()[0].state, IntentState::kCommitted);
  EXPECT_EQ(log.records()[1].state, IntentState::kAborted);
  EXPECT_EQ(log.records()[2].state, IntentState::kLogged);

  const uint64_t bytes_before = log.bytes_appended();
  log.Truncate();
  EXPECT_TRUE(log.empty());
  // bytes_appended counts lifetime log traffic, not live records.
  EXPECT_EQ(log.bytes_appended(), bytes_before);
  // LSNs keep increasing across truncation.
  EXPECT_GT(log.Append(IntentKind::kStore, 1, 40, recovery::EncodeStore(fid)), c);
}

TEST(IntentionLogTest, ApplyIntentionReplaysAStore) {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
  Volume vol(7, "v", VolumeType::kReadWrite, kAnonymousUser, acl, 0);
  Fid f = *vol.CreateFile(vol.root(), "f", kAnonymousUser, 0644);

  IntentionLog log;
  const uint64_t lsn = log.Append(IntentKind::kStore, 7, 99, recovery::EncodeStore(f),
                                  content::Ref::Canonicalize(ToBytes("replayed")));
  log.MarkCommitted(lsn);
  ASSERT_EQ(recovery::ApplyIntention(vol, log.records()[0]).status(), Status::kOk);
  EXPECT_EQ(ToString(*vol.FetchData(f)), "replayed");
  // The replay stamped the record's time onto the volume clock.
  EXPECT_EQ((*vol.Lookup(f))->status.mtime, 99);
}

// --- Server-level crash/restart ----------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : topo_(net::TopologyConfig{1, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_) {
    server_ = std::make_unique<ViceServer>(0, topo_.NthServer(0), &network_, cost_,
                                           rpc::RpcConfig{}, ViceConfig{}, &protection_,
                                           1000);
    registry_.RegisterServer(server_.get());
    alice_ = *protection_.CreateUser("alice", "pw-a");

    AccessList acl;
    acl.SetPositive(Principal::User(alice_), protection::kAllRights);
    acl.SetPositive(Principal::Group(protection::kAnyUserGroup),
                    protection::kLookup | protection::kRead);
    vol_ = *registry_.CreateVolume("v0", /*custodian=*/0, alice_, acl, 0);
    ITC_CHECK(registry_.SetRootVolume(vol_) == Status::kOk);
  }

  std::unique_ptr<rpc::ClientConnection> Connect() {
    auto key = crypto::DeriveKeyFromPassword("pw-a", "itc.cmu.edu");
    auto conn = rpc::ClientConnection::Connect(topo_.WorkstationNode(0, 0), alice_, key,
                                               &server_->endpoint(), &network_, cost_,
                                               &clock_, 77);
    ITC_CHECK(conn.ok());
    return std::move(*conn);
  }

  Result<Fid> CreateFile(rpc::ClientConnection* conn, const std::string& name) {
    rpc::Writer w;
    w.PutFid(VolumeRootFid(vol_));
    w.PutString(name);
    w.PutU32(0644);
    ASSIGN_OR_RETURN(Bytes reply, conn->Call(static_cast<uint32_t>(Proc::kCreateFile), w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    return r.FidField();
  }

  Status Store(rpc::ClientConnection* conn, const Fid& fid, const std::string& data) {
    rpc::Writer w;
    w.PutFid(fid);
    w.PutBytes(ToBytes(data));
    auto reply = conn->Call(static_cast<uint32_t>(Proc::kStore), w.Take());
    if (!reply.ok()) return reply.status();
    rpc::Reader r(*reply);
    Status st = Status::kInternal;
    RETURN_IF_ERROR(r.ReadStatus(&st));
    return st;
  }

  Result<Bytes> Fetch(rpc::ClientConnection* conn, const Fid& fid) {
    rpc::Writer w;
    w.PutFid(fid);
    ASSIGN_OR_RETURN(Bytes reply, conn->Call(static_cast<uint32_t>(Proc::kFetch), w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    RETURN_IF_ERROR(ReadVnodeStatus(r).status());
    return r.BytesField();
  }

  // Issues `proc` with the request in `w`; the reply, or its failure status.
  Result<Bytes> CallOk(rpc::ClientConnection* conn, Proc proc, rpc::Writer& w) {
    ASSIGN_OR_RETURN(Bytes reply, conn->Call(static_cast<uint32_t>(proc), w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    return reply;
  }

  Result<uint32_t> ProbeEpoch(rpc::ClientConnection* conn) {
    ASSIGN_OR_RETURN(Bytes reply,
                     conn->Call(static_cast<uint32_t>(Proc::kProbeEpoch), Bytes{}));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    return r.U32();
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  sim::Clock clock_;
  protection::ProtectionService protection_;
  std::unique_ptr<ViceServer> server_;
  VolumeRegistry registry_;
  UserId alice_ = kAnonymousUser;
  VolumeId vol_ = kInvalidVolume;
};

TEST_F(RecoveryTest, StoreSurvivesCrashAndRestart) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "durable"), Status::kOk);

  server_->SimulateCrash();
  EXPECT_TRUE(server_->crashed());
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.volumes_restored, 1u);
  EXPECT_EQ(report.replay_failures, 0u);
  EXPECT_GT(report.recovery_time, 0);

  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "durable");
}

TEST_F(RecoveryTest, CrashDropsVolatileStateRestartRestoresVolumes) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  const NodeId client = topo_.WorkstationNode(0, 0);
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 1u);

  server_->SimulateCrash();
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 0u);
  EXPECT_EQ(server_->promises().promise_count(0), 0u);
  EXPECT_EQ(server_->volume_count(), 0u);

  // The stale connection is told the server no longer knows it.
  EXPECT_EQ(Store(conn.get(), f, "x"), Status::kUnavailable);
  server_->Restart(clock_.now());
  EXPECT_FALSE(server_->crashed());
  EXPECT_EQ(server_->volume_count(), 1u);
  EXPECT_EQ(Store(conn.get(), f, "x"), Status::kConnectionBroken);
  auto conn2 = Connect();
  EXPECT_EQ(Store(conn2.get(), f, "x"), Status::kOk);
}

TEST_F(RecoveryTest, UnregisterCallbackSinkClosesThatNodesConnections) {
  auto conn = Connect();
  const NodeId client = topo_.WorkstationNode(0, 0);
  ASSERT_EQ(server_->endpoint().ConnectionCountFrom(client), 1u);
  // Regression: surrendering the sink must also drop the node's transport
  // state, or a later re-login would talk over a half-dead channel.
  server_->UnregisterCallbackSink(client);
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 0u);
}

TEST_F(RecoveryTest, CrashBeforeLogAppendLeavesNoTrace) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);
  const size_t log_before = server_->stable_store().log().size();

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kBeforeLogAppend);
  EXPECT_EQ(Store(conn.get(), f, "new"), Status::kUnavailable);
  EXPECT_TRUE(server_->crashed());
  EXPECT_EQ(server_->stable_store().log().size(), log_before);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "old");
}

TEST_F(RecoveryTest, CrashAfterLogAppendDiscardsUncommittedIntention) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kAfterLogAppend);
  EXPECT_EQ(Store(conn.get(), f, "torn"), Status::kUnavailable);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.intentions_discarded, 1u);
  // The client never got a reply, so the operation must not surface.
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "old");
}

TEST_F(RecoveryTest, CrashBeforeReplyReplaysCommittedIntention) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kBeforeReply);
  // The reply was lost, but the intention committed: after recovery the
  // operation is fully visible (at-most-once from the client's view, the
  // effect is simply the committed one).
  EXPECT_EQ(Store(conn.get(), f, "committed"), Status::kUnavailable);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.intentions_replayed, 1u);
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "committed");
}

TEST_F(RecoveryTest, CheckpointIntervalBoundsTheLog) {
  ViceConfig cfg;
  cfg.log_checkpoint_interval = 2;
  server_->set_config(cfg);

  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(Store(conn.get(), f, Numbered("v", i)), Status::kOk);
  }
  // Every second commit re-dumps the volumes and truncates, so the log never
  // holds more than one full interval.
  EXPECT_LE(server_->stable_store().log().size(), 2u);

  server_->SimulateCrash();
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "v6");
}

TEST_F(RecoveryTest, ProbeEpochReportsRestarts) {
  auto conn = Connect();
  EXPECT_EQ(*ProbeEpoch(conn.get()), 0u);

  server_->SimulateCrash();
  server_->Restart(clock_.now());
  auto conn2 = Connect();
  EXPECT_EQ(*ProbeEpoch(conn2.get()), 1u);

  server_->SimulateCrash();
  server_->Restart(clock_.now());
  auto conn3 = Connect();
  EXPECT_EQ(*ProbeEpoch(conn3.get()), 2u);
}

TEST_F(RecoveryTest, DirectoryOpsReplayDeterministically) {
  auto conn = Connect();

  // A mutation history covering every intention kind, each through its RPC
  // handler: mkdir, create, store, rename, set-status, symlink, remove-file,
  // remove-dir, set-acl, make-mount-point.
  rpc::Writer mk;
  mk.PutFid(VolumeRootFid(vol_));
  mk.PutString("d");
  mk.PutBytes(Bytes{});  // inherit ACL
  auto mk_reply = conn->Call(static_cast<uint32_t>(Proc::kMakeDir), mk.Take());
  ASSERT_TRUE(mk_reply.ok());
  rpc::Reader mkr(*mk_reply);
  ASSERT_EQ(rpc::ExpectOk(mkr), Status::kOk);
  Fid d = *mkr.FidField();

  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "data"), Status::kOk);

  rpc::Writer rn;
  rn.PutFid(VolumeRootFid(vol_));
  rn.PutString("f");
  rn.PutFid(d);
  rn.PutString("g");
  auto rn_reply = conn->Call(static_cast<uint32_t>(Proc::kRename), rn.Take());
  ASSERT_TRUE(rn_reply.ok());
  rpc::Reader rnr(*rn_reply);
  ASSERT_EQ(rpc::ExpectOk(rnr), Status::kOk);

  rpc::Writer ss;
  ss.PutFid(f);
  ss.PutBool(true);
  ss.PutU32(0600);
  ss.PutBool(true);
  ss.PutU32(4242);
  ASSERT_TRUE(CallOk(conn.get(), Proc::kSetStatus, ss).ok());

  rpc::Writer sl;
  sl.PutFid(VolumeRootFid(vol_));
  sl.PutString("s");
  sl.PutString("/vice/x");
  ASSERT_TRUE(CallOk(conn.get(), Proc::kMakeSymlink, sl).ok());

  ASSERT_TRUE(CreateFile(conn.get(), "doomed").ok());
  rpc::Writer rf;
  rf.PutFid(VolumeRootFid(vol_));
  rf.PutString("doomed");
  ASSERT_TRUE(CallOk(conn.get(), Proc::kRemoveFile, rf).ok());

  rpc::Writer mk2;
  mk2.PutFid(VolumeRootFid(vol_));
  mk2.PutString("e");
  mk2.PutBytes(Bytes{});
  ASSERT_TRUE(CallOk(conn.get(), Proc::kMakeDir, mk2).ok());
  rpc::Writer rd;
  rd.PutFid(VolumeRootFid(vol_));
  rd.PutString("e");
  ASSERT_TRUE(CallOk(conn.get(), Proc::kRemoveDir, rd).ok());

  AccessList narrowed;
  narrowed.SetPositive(Principal::User(alice_), protection::kAllRights);
  narrowed.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kLookup);
  rpc::Writer sa;
  sa.PutFid(d);
  sa.PutBytes(narrowed.Serialize());
  ASSERT_TRUE(CallOk(conn.get(), Proc::kSetAcl, sa).ok());

  rpc::Writer mp;
  mp.PutFid(VolumeRootFid(vol_));
  mp.PutString("m");
  mp.PutU32(42);
  ASSERT_TRUE(CallOk(conn.get(), Proc::kMakeMountPoint, mp).ok());

  std::set<IntentKind> logged;
  for (const auto& rec : server_->stable_store().log().records()) {
    EXPECT_EQ(rec.state, IntentState::kCommitted);
    logged.insert(rec.kind);
  }
  EXPECT_EQ(logged.size(), 10u);  // every IntentKind

  const Bytes pre_crash_dump = registry_.FindVolume(vol_)->Dump();

  server_->SimulateCrash();
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.replay_failures, 0u);
  EXPECT_TRUE(report.salvage.clean());

  // Replay reconstructed the exact same volume, fid counters included.
  EXPECT_EQ(registry_.FindVolume(vol_)->Dump(), pre_crash_dump);
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "data");
}

// Restored volumes share their vnodes with the checkpoint images they came
// from (copy-on-write), so a write after a restart must copy the vnode it
// touches rather than reach through to the image. Checkpoint, mutate without
// checkpointing, crash and restart; then commit one intention of every kind,
// make volatile edits of every kind on top, and crash again: the second
// restart must rebuild exactly the first image plus the committed replay,
// and no image may ever show a write it was not checkpointed with.
TEST_F(RecoveryTest, WritesAfterRestartNeverReachTheSharedImages) {
  auto image_dump = [this]() {
    auto images = server_->stable_store().RestoreVolumes();
    ITC_CHECK(images.ok() && images->size() == 1);
    return images->front()->Dump();
  };
  AccessList acl;
  acl.SetPositive(Principal::User(alice_), protection::kAllRights);

  Volume* live = server_->FindVolume(vol_);
  const Fid root = live->root();
  const Fid d = *live->MakeDir(root, "d", alice_, acl);
  ASSERT_TRUE(live->MakeDir(d, "e", alice_, acl).ok());
  const Fid f = *live->CreateFile(d, "f", alice_, 0644);
  ASSERT_EQ(live->StoreData(f, ToBytes("checkpointed")), Status::kOk);
  ASSERT_TRUE(live->CreateFile(root, "g", alice_, 0644).ok());
  ASSERT_TRUE(live->MakeSymlink(root, "s", "/vice/elsewhere", alice_).ok());
  ASSERT_EQ(live->MakeMountPoint(root, "m", 42), Status::kOk);
  server_->CheckpointVolume(vol_);
  const Bytes checkpoint = live->Dump();

  // Not checkpointed, not logged: lost in the crash.
  ASSERT_EQ(live->StoreData(f, ToBytes("volatile")), Status::kOk);
  ASSERT_TRUE(live->CreateFile(root, "lost", alice_, 0644).ok());
  EXPECT_EQ(image_dump(), checkpoint);

  server_->SimulateCrash();
  ASSERT_TRUE(server_->Restart(clock_.now()).clean());
  live = server_->FindVolume(vol_);
  // Restart salvages (which sets the never-written directory e's length)
  // and re-checkpoints; the new image and the live volume share every vnode.
  auto salvaged = Volume::Restore(checkpoint, vol_, live->name(), live->type());
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE((*salvaged)->Salvage().clean());
  const Bytes image = (*salvaged)->Dump();
  ASSERT_EQ(live->Dump(), image);
  ASSERT_EQ(image_dump(), image);
  ASSERT_EQ(server_->stable_store().image_bytes(), image.size());

  // Commit one intention of every kind to the live volume and to a volume
  // restored from the image's bytes, which shares nothing with anything.
  auto expected = Volume::Restore(image, vol_, live->name(), live->type());
  ASSERT_TRUE(expected.ok());
  auto& log = server_->stable_store().log();
  SimTime when = 1000;
  auto commit = [&](IntentKind kind, Bytes payload, content::Ref contents = {}) {
    const uint64_t lsn = log.Append(kind, vol_, when++, std::move(payload), std::move(contents));
    const recovery::Intention& rec = log.records().back();
    ASSERT_EQ(recovery::ApplyIntention(*live, rec).status(), Status::kOk) << IntentKindName(kind);
    ASSERT_EQ(recovery::ApplyIntention(**expected, rec).status(), Status::kOk)
        << IntentKindName(kind);
    log.MarkCommitted(lsn);
    EXPECT_EQ(image_dump(), image) << IntentKindName(kind) << " leaked into the image";
  };
  AccessList narrowed = acl;
  narrowed.SetNegative(Principal::Group(protection::kAnyUserGroup), protection::kWrite);
  commit(IntentKind::kStore, recovery::EncodeStore(f),
         content::Ref::Canonicalize(ToBytes("committed")));
  commit(IntentKind::kCreateFile, recovery::EncodeCreateFile(d, "h", alice_, 0600));
  commit(IntentKind::kMakeDir, recovery::EncodeMakeDir(root, "d2", alice_, acl.Serialize()));
  commit(IntentKind::kMakeSymlink, recovery::EncodeMakeSymlink(d, "s2", "/vice/x", alice_));
  commit(IntentKind::kRemoveFile, recovery::EncodeRemove(root, "g"));
  commit(IntentKind::kRemoveDir, recovery::EncodeRemove(d, "e"));
  commit(IntentKind::kRename, recovery::EncodeRename(d, "f", root, "f2"));
  commit(IntentKind::kSetStatus, recovery::EncodeSetStatus(f, true, 0600, true, 99));
  commit(IntentKind::kSetAcl, recovery::EncodeSetAcl(d, narrowed.Serialize()));
  commit(IntentKind::kMakeMountPoint, recovery::EncodeMakeMountPoint(d, "m2", 43));
  ASSERT_EQ(live->Dump(), (*expected)->Dump());

  // Volatile edits of every kind on top: the crash loses them, and none
  // may reach the image.
  ASSERT_EQ(live->StoreData(f, ToBytes("volatile again")), Status::kOk);
  const Fid v = *live->CreateFile(root, "v", alice_, 0644);
  ASSERT_TRUE(live->MakeDir(d, "vd", alice_, acl).ok());
  ASSERT_TRUE(live->MakeSymlink(root, "vs", "/vice/y", alice_).ok());
  ASSERT_EQ(live->MakeMountPoint(root, "vm", 44), Status::kOk);
  ASSERT_EQ(live->RemoveFile(root, "s"), Status::kOk);
  ASSERT_EQ(live->RemoveDir(root, "d2"), Status::kOk);
  ASSERT_EQ(live->Rename(root, "f2", d, "f3"), Status::kOk);
  ASSERT_EQ(live->SetMode(v, 0400), Status::kOk);
  ASSERT_EQ(live->SetOwner(root, 77), Status::kOk);
  ASSERT_EQ(live->SetAcl(root, narrowed), Status::kOk);
  EXPECT_TRUE(live->Salvage().clean());
  EXPECT_EQ(image_dump(), image);
  EXPECT_EQ(server_->stable_store().image_bytes(), image.size());

  server_->SimulateCrash();
  const auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.intentions_replayed, 10u);
  live = server_->FindVolume(vol_);
  // Restart salvages the replayed volume too (setting the new d2's length).
  EXPECT_TRUE((*expected)->Salvage().clean());
  const Bytes replayed = (*expected)->Dump();
  EXPECT_EQ(live->Dump(), replayed);
  EXPECT_EQ(image_dump(), replayed);
  EXPECT_EQ(server_->stable_store().image_bytes(), replayed.size());
}

}  // namespace
}  // namespace itc::vice

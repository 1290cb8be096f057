// Tests of the Campus deployment harness and the Vice wire helpers.

#include "src/campus/campus.h"

#include <gtest/gtest.h>

#include "src/crypto/cbc.h"
#include "src/vice/protocol.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;

TEST(CampusConfigTest, PrototypeAndRevisedDiffer) {
  const CampusConfig proto = CampusConfig::Prototype(2, 10);
  const CampusConfig revised = CampusConfig::Revised(2, 10);
  EXPECT_EQ(proto.rpc.transport, rpc::Transport::kStream);
  EXPECT_EQ(revised.rpc.transport, rpc::Transport::kDatagram);
  EXPECT_TRUE(proto.vice.server_side_pathnames);
  EXPECT_FALSE(revised.vice.server_side_pathnames);
  EXPECT_EQ(proto.vice.validation, vice::Validation::kCheckOnOpen);
  EXPECT_EQ(revised.vice.validation, vice::Validation::kCallbacks);
  EXPECT_EQ(proto.workstation.venus.cache_limit, venus::VenusConfig::CacheLimit::kFileCount);
  EXPECT_EQ(revised.workstation.venus.cache_limit, venus::VenusConfig::CacheLimit::kSpace);
}

TEST(CampusTest, TopologyShapeMatchesConfig) {
  Campus campus(CampusConfig::Revised(3, 4));
  EXPECT_EQ(campus.server_count(), 3u);
  EXPECT_EQ(campus.workstation_count(), 12u);
  // Home servers group by cluster.
  EXPECT_EQ(campus.HomeServerOf(0), 0u);
  EXPECT_EQ(campus.HomeServerOf(3), 0u);
  EXPECT_EQ(campus.HomeServerOf(4), 1u);
  EXPECT_EQ(campus.HomeServerOf(11), 2u);
}

TEST(CampusTest, SetupCreatesUsrAndUnix) {
  Campus campus(CampusConfig::Revised(1, 1));
  auto root = campus.SetupRootVolume();
  ASSERT_TRUE(root.ok());
  vice::Volume* vol = campus.registry().FindVolume(*root);
  ASSERT_NE(vol, nullptr);
  auto entries = vice::DeserializeDirectory(*vol->FetchData(vol->root()));
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->contains("usr"));
  EXPECT_TRUE(entries->contains("unix"));
}

TEST(CampusTest, AddUserMountsHome) {
  Campus campus(CampusConfig::Revised(1, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("zed", "pw", 0, 12345);
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home->vice_path, "/usr/zed");
  vice::Volume* vol = campus.registry().FindVolume(home->volume);
  ASSERT_NE(vol, nullptr);
  EXPECT_EQ(vol->quota_bytes(), 12345u);
  // Duplicate user name fails cleanly.
  EXPECT_FALSE(campus.AddUserWithHome("zed", "pw2", 0).ok());
}

TEST(CampusTest, PopulateDirectCreatesNestedPaths) {
  Campus campus(CampusConfig::Revised(1, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("deep", "pw", 0);
  ASSERT_TRUE(home.ok());
  ASSERT_EQ(campus.PopulateDirect(home->volume, "/a/b/c/file", ToBytes("nested")),
            Status::kOk);
  // Visible through a workstation.
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);
  auto data = ws.ReadWholeFile("/vice/usr/deep/a/b/c/file");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "nested");
  // Overwrite replaces in place.
  ASSERT_EQ(campus.PopulateDirect(home->volume, "/a/b/c/file", ToBytes("v2")),
            Status::kOk);
  ws.venus().FlushCache();
  EXPECT_EQ(ToString(*ws.ReadWholeFile("/vice/usr/deep/a/b/c/file")), "v2");
}

TEST(CampusTest, HistogramAggregatesAcrossServers) {
  Campus campus(CampusConfig::Revised(2, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto a = campus.AddUserWithHome("a", "pw", 0);
  auto b = campus.AddUserWithHome("b", "pw", 1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(campus.workstation(0).LoginWithPassword(a->user, "pw"), Status::kOk);
  ASSERT_EQ(campus.workstation(1).LoginWithPassword(b->user, "pw"), Status::kOk);
  ASSERT_EQ(campus.workstation(0).WriteWholeFile("/vice/usr/a/f", ToBytes("1")),
            Status::kOk);
  ASSERT_EQ(campus.workstation(1).WriteWholeFile("/vice/usr/b/f", ToBytes("2")),
            Status::kOk);
  EXPECT_GT(campus.TotalCalls(), 0u);
  auto hist = campus.TotalCallHistogram();
  EXPECT_GE(hist[vice::CallClass::kStore], 2u);
  campus.ResetAllStats();
  EXPECT_EQ(campus.TotalCalls(), 0u);
}

TEST(CampusTest, EncryptedRpcSealsOnlyTheHandshake) {
  // RPC envelopes open in process without the cipher: after login, storing
  // and fetching 64 KB seals at most a handshake's worth of plaintext, while
  // every byte still counts on the wire.
  const CampusConfig config = CampusConfig::Revised(1, 1);
  ASSERT_TRUE(config.rpc.encrypt);
  Campus campus(config);
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("cy", "pw", 0);
  ASSERT_TRUE(home.ok());
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);
  const uint64_t sealed_at_login = crypto::SealedByteCount();

  const Bytes data(64 * 1024, 0x6b);
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/cy/big", data), Status::kOk);
  ws.venus().FlushCache();
  auto back = ws.ReadWholeFile("/vice/usr/cy/big");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);

  const rpc::RpcStats& wire = campus.server(0).endpoint().stats();
  EXPECT_GE(wire.request_bytes + wire.reply_bytes, 2 * data.size());
  EXPECT_LT(crypto::SealedByteCount() - sealed_at_login, 1024u);
}

// --- Wire helper round trips --------------------------------------------------

TEST(ProtocolWireTest, VnodeStatusRoundTrip) {
  vice::VnodeStatus s;
  s.fid = Fid{7, 8, 9};
  s.type = vice::VnodeType::kSymlink;
  s.length = 123456789;
  s.version = 42;
  s.mtime = Seconds(1000);
  s.owner = 77;
  s.mode = 0640;
  s.link_count = 3;
  s.parent = Fid{7, 1, 1};

  rpc::Writer w;
  vice::PutVnodeStatus(w, s);
  Bytes buf = w.Take();
  rpc::Reader r(buf);
  auto parsed = vice::ReadVnodeStatus(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProtocolWireTest, VolumeInfoRoundTrip) {
  vice::VolumeInfo info;
  info.volume = 5;
  info.read_write_volume = 4;
  info.ro_clone = 9;
  info.read_only = true;
  info.custodian = 2;
  info.replica_sites = {0, 1, 2};

  rpc::Writer w;
  vice::PutVolumeInfo(w, info);
  Bytes buf = w.Take();
  rpc::Reader r(buf);
  auto parsed = vice::ReadVolumeInfo(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->volume, info.volume);
  EXPECT_EQ(parsed->ro_clone, info.ro_clone);
  EXPECT_EQ(parsed->replica_sites, info.replica_sites);
}

TEST(ProtocolWireTest, CallClassCoversEveryProc) {
  // Every procedure classifies without falling through to garbage.
  for (uint32_t p = 1; p <= 60; ++p) {
    const auto cls = vice::ClassOf(static_cast<vice::Proc>(p));
    EXPECT_LE(static_cast<int>(cls), static_cast<int>(vice::CallClass::kOther));
  }
  EXPECT_EQ(vice::ClassOf(vice::Proc::kValidate), vice::CallClass::kValidate);
  EXPECT_EQ(vice::ClassOf(vice::Proc::kResolvePath), vice::CallClass::kStatus);
  EXPECT_FALSE(vice::ProcName(vice::Proc::kFetch).empty());
}

}  // namespace
}  // namespace itc

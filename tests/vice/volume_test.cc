// Unit tests for Vice volumes: vnode lifecycle, quota, stale fids, rename
// fid-invariance, clone copy-on-write, and salvage.

#include "src/vice/volume.h"

#include <gtest/gtest.h>

#include "src/rpc/wire.h"
#include "src/vice/protocol.h"

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;

AccessList OwnerAcl(UserId owner) {
  AccessList acl;
  acl.SetPositive(Principal::User(owner), protection::kAllRights);
  return acl;
}

class VolumeTest : public ::testing::Test {
 protected:
  static constexpr UserId kOwner = 7;
  VolumeTest() : vol_(1, "test", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner), 0) {}

  Volume vol_;
};

TEST_F(VolumeTest, RootExistsWithConventionalFid) {
  auto st = vol_.GetStatus(vol_.root());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->fid, (Fid{1, 1, 1}));
  EXPECT_EQ(st->type, VnodeType::kDirectory);
  EXPECT_FALSE(st->parent.valid());
}

TEST_F(VolumeTest, CreateFetchStoreCycle) {
  auto fid = vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_TRUE(fid.ok());
  EXPECT_TRUE(vol_.FetchData(*fid)->empty());

  ASSERT_EQ(vol_.StoreData(*fid, ToBytes("payload")), Status::kOk);
  EXPECT_EQ(ToString(*vol_.FetchData(*fid)), "payload");

  auto st = vol_.GetStatus(*fid);
  EXPECT_EQ(st->length, 7u);
  EXPECT_EQ(st->version, 2u);  // 1 at create, +1 per store
  EXPECT_EQ(st->parent, vol_.root());
}

TEST_F(VolumeTest, VersionBumpsOnEveryMutation) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  const uint64_t v1 = vol_.GetStatus(*&fid)->version;
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("a")), Status::kOk);
  const uint64_t v2 = vol_.GetStatus(fid)->version;
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("b")), Status::kOk);
  const uint64_t v3 = vol_.GetStatus(fid)->version;
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST_F(VolumeTest, DirectoryDataIsInterpretable) {
  ASSERT_TRUE(vol_.CreateFile(vol_.root(), "a", kOwner, 0644).ok());
  ASSERT_TRUE(vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner)).ok());
  ASSERT_TRUE(vol_.MakeSymlink(vol_.root(), "s", "a", kOwner).ok());
  ASSERT_EQ(vol_.MakeMountPoint(vol_.root(), "m", 99), Status::kOk);

  auto data = vol_.FetchData(vol_.root());
  ASSERT_TRUE(data.ok());
  auto entries = DeserializeDirectory(*data);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 4u);
  EXPECT_EQ(entries->at("a").kind, DirItem::Kind::kFile);
  EXPECT_EQ(entries->at("d").kind, DirItem::Kind::kDirectory);
  EXPECT_EQ(entries->at("s").kind, DirItem::Kind::kSymlink);
  EXPECT_EQ(entries->at("m").kind, DirItem::Kind::kMountPoint);
  EXPECT_EQ(entries->at("m").mount_volume, 99u);
}

TEST_F(VolumeTest, DirectorySizeMatchesSerializedData) {
  // The status length of a directory is the size of its wire data.
  ASSERT_TRUE(vol_.CreateFile(vol_.root(), "a", kOwner, 0644).ok());
  ASSERT_EQ(vol_.MakeMountPoint(vol_.root(), "a-longer-mount-name", 99), Status::kOk);
  const Bytes data = *vol_.FetchData(vol_.root());
  EXPECT_EQ(vol_.GetStatus(vol_.root())->length, data.size());
  EXPECT_EQ(DirectoryDataSize(*DeserializeDirectory(data)), data.size());
  EXPECT_EQ(DirectoryDataSize(DirMap{}), SerializeDirectory(DirMap{}).size());
}

TEST_F(VolumeTest, LookupEntryReadsTheDirectory) {
  auto file = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.MakeMountPoint(vol_.root(), "m", 99), Status::kOk);

  auto item = vol_.LookupEntry(vol_.root(), "f");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->kind, DirItem::Kind::kFile);
  EXPECT_EQ(item->fid, file);
  EXPECT_EQ(vol_.LookupEntry(vol_.root(), "m")->mount_volume, 99u);

  EXPECT_EQ(vol_.LookupEntry(vol_.root(), "nope").status(), Status::kNotFound);
  EXPECT_EQ(vol_.LookupEntry(file, "f").status(), Status::kNotDirectory);
  Fid stale = file;
  stale.uniquifier += 1;
  EXPECT_EQ(vol_.LookupEntry(stale, "f").status(), Status::kStaleFid);
  vol_.set_online(false);
  EXPECT_EQ(vol_.LookupEntry(vol_.root(), "f").status(), Status::kVolumeOffline);
}

TEST_F(VolumeTest, StaleFidAfterRemove) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.RemoveFile(vol_.root(), "f"), Status::kOk);
  EXPECT_EQ(vol_.FetchData(fid).status(), Status::kStaleFid);
  EXPECT_EQ(vol_.GetStatus(fid).status(), Status::kStaleFid);
  // A recreated file with the same name gets a fresh fid.
  auto fid2 = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  EXPECT_NE(fid, fid2);
}

TEST_F(VolumeTest, WrongUniquifierIsStale) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  Fid forged = fid;
  forged.uniquifier += 1;
  EXPECT_EQ(vol_.GetStatus(forged).status(), Status::kStaleFid);
}

TEST_F(VolumeTest, RenamePreservesFidAndData) {
  // "File identifiers will remain invariant across renames" (Section 5.3).
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("keep me")), Status::kOk);
  const uint64_t version = vol_.GetStatus(fid)->version;

  ASSERT_EQ(vol_.Rename(vol_.root(), "f", dir, "g"), Status::kOk);
  auto st = vol_.GetStatus(fid);
  ASSERT_TRUE(st.ok());  // fid still valid
  EXPECT_EQ(st->parent, dir);
  EXPECT_EQ(st->version, version);  // data untouched
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "keep me");
}

TEST_F(VolumeTest, RenameDirectorySubtree) {
  auto d1 = *vol_.MakeDir(vol_.root(), "d1", kOwner, OwnerAcl(kOwner));
  auto d2 = *vol_.MakeDir(vol_.root(), "d2", kOwner, OwnerAcl(kOwner));
  auto inner = *vol_.MakeDir(d1, "inner", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(inner, "deep", kOwner, 0644).ok());

  // Move d1 under d2 ("allowing us to support renaming of arbitrary
  // subtrees", Section 5.3).
  ASSERT_EQ(vol_.Rename(vol_.root(), "d1", d2, "moved"), Status::kOk);
  EXPECT_EQ(vol_.GetStatus(d1)->parent, d2);
  EXPECT_TRUE(vol_.GetStatus(inner).ok());

  // Cycle prevention: cannot move d2 into the subtree now under it.
  EXPECT_EQ(vol_.Rename(vol_.root(), "d2", inner, "oops"), Status::kInvalidArgument);
}

TEST_F(VolumeTest, QuotaEnforced) {
  Volume small(2, "small", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner),
               /*quota_bytes=*/4096);
  auto fid = *small.CreateFile(small.root(), "f", kOwner, 0644);
  EXPECT_EQ(small.StoreData(fid, Bytes(8192, 'x')), Status::kQuotaExceeded);
  EXPECT_EQ(small.StoreData(fid, Bytes(1024, 'x')), Status::kOk);
  // Shrinking then growing within quota is fine.
  EXPECT_EQ(small.StoreData(fid, Bytes(2048, 'x')), Status::kOk);
  EXPECT_GT(small.usage_bytes(), 2048u);
}

TEST_F(VolumeTest, QuotaFreedOnRemove) {
  Volume small(3, "small", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner), 8192);
  auto fid = *small.CreateFile(small.root(), "f", kOwner, 0644);
  ASSERT_EQ(small.StoreData(fid, Bytes(4096, 'x')), Status::kOk);
  const uint64_t used = small.usage_bytes();
  ASSERT_EQ(small.RemoveFile(small.root(), "f"), Status::kOk);
  EXPECT_LT(small.usage_bytes(), used - 4000);
}

TEST_F(VolumeTest, ReadOnlyVolumeRejectsMutation) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("v1")), Status::kOk);
  auto clone = vol_.Clone(50, "test.readonly");

  const Fid clone_fid{50, fid.vnode, fid.uniquifier};
  EXPECT_EQ(clone->StoreData(clone_fid, ToBytes("nope")), Status::kVolumeReadOnly);
  EXPECT_EQ(clone->CreateFile(clone->root(), "new", kOwner, 0644).status(),
            Status::kVolumeReadOnly);
  EXPECT_EQ(clone->RemoveFile(clone->root(), "f"), Status::kVolumeReadOnly);
  EXPECT_EQ(clone->SetMode(clone_fid, 0600), Status::kVolumeReadOnly);
}

TEST_F(VolumeTest, CloneIsFrozenSnapshotSharingData) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("frozen")), Status::kOk);

  auto clone = vol_.Clone(60, "clone");
  const Fid clone_fid{60, fid.vnode, fid.uniquifier};

  // Clone sees the data under its own volume id.
  EXPECT_EQ(ToString(*clone->FetchData(clone_fid)), "frozen");
  EXPECT_EQ(clone->GetStatus(clone_fid)->fid.volume, 60u);

  // Writing the original (copy-on-write) does not disturb the clone.
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("thawed")), Status::kOk);
  EXPECT_EQ(ToString(*clone->FetchData(clone_fid)), "frozen");
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "thawed");
}

TEST_F(VolumeTest, CloneRebrandsDirectoryEntries) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(dir, "f", kOwner, 0644).ok());
  auto clone = vol_.Clone(70, "clone");
  auto entries = DeserializeDirectory(*clone->FetchData(clone->root()));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->at("d").fid.volume, 70u);
}

TEST_F(VolumeTest, SnapshotIsExactAndSharesDataCopyOnWrite) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(dir, "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("checkpointed")), Status::kOk);

  auto snap = vol_.Snapshot();

  // Unlike Clone, a snapshot preserves identity exactly: same id, name,
  // type, fids, and counters — its dump is byte-identical to the source's.
  EXPECT_EQ(snap->id(), vol_.id());
  EXPECT_EQ(snap->name(), vol_.name());
  EXPECT_EQ(snap->type(), VolumeType::kReadWrite);
  EXPECT_EQ(snap->usage_bytes(), vol_.usage_bytes());
  EXPECT_EQ(snap->Dump(), vol_.Dump());

  // Later mutation of the source leaves the snapshot frozen.
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("mutated since")), Status::kOk);
  ASSERT_TRUE(vol_.CreateFile(dir, "g", kOwner, 0644).ok());
  EXPECT_EQ(ToString(*snap->FetchData(fid)), "checkpointed");
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "mutated since");
}

TEST_F(VolumeTest, DumpSizeMatchesDumpExactly) {
  // DumpSize is the checkpoint disk-charge accounting: it must track the
  // real serialized size through every kind of state.
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());

  auto dir = *vol_.MakeDir(vol_.root(), "subdir", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(dir, "file.c", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("int main(void) { return 0; }")), Status::kOk);
  ASSERT_TRUE(vol_.MakeSymlink(dir, "link", "/vice/usr/elsewhere", kOwner).ok());
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());

  ASSERT_EQ(vol_.RemoveFile(dir, "file.c"), Status::kOk);
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());
}

TEST_F(VolumeTest, RestoreRejectsHostileVnodeCount) {
  rpc::Writer status;
  PutVnodeStatus(status, VnodeStatus{});
  EXPECT_EQ(status.size(), kVnodeStatusWireBytes);

  // The vnode count follows magic, version, id, name, type, quota and the
  // two fid counters; the one-vnode body after it stays as dumped.
  Bytes dump = vol_.Dump();
  ASSERT_TRUE(Volume::Restore(dump, 2, "copy", VolumeType::kReadWrite).ok());
  const size_t count_at = 4 + 4 + 4 + (4 + vol_.name().size()) + 1 + 8 + 4 + 4;
  ASSERT_EQ(Bytes(dump.begin() + count_at, dump.begin() + count_at + 4), (Bytes{1, 0, 0, 0}));
  for (size_t i = 0; i < 4; ++i) dump[count_at + i] = 0xFF;
  EXPECT_EQ(Volume::Restore(dump, 2, "copy", VolumeType::kReadWrite).status(),
            Status::kProtocolError);
}

TEST(VolumeInfoTest, HostileReplicaCountIsRejected) {
  rpc::Writer good;
  PutVolumeInfo(good, VolumeInfo{.volume = 5, .replica_sites = {1, 2}});
  const Bytes ok = good.Take();
  rpc::Reader ok_reader(ok);
  auto info = ReadVolumeInfo(ok_reader);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->replica_sites, (std::vector<ServerId>{1, 2}));

  // 0xFFFFFFFF replica sites announced, one present.
  rpc::Writer w;
  w.PutU32(5);
  w.PutU32(kInvalidVolume);
  w.PutU32(kInvalidVolume);
  w.PutBool(false);
  w.PutU32(0);
  w.PutU32(0xFFFFFFFFu);
  w.PutU32(1);
  const Bytes hostile = w.Take();
  rpc::Reader r(hostile);
  EXPECT_EQ(ReadVolumeInfo(r).status(), Status::kProtocolError);
}

// A RenewLeases reply body: the new expiry, then the rejected fids.
Bytes RenewLeasesBody(uint64_t expiry, uint32_t announced, const std::vector<Fid>& fids) {
  rpc::Writer w;
  w.PutU64(expiry);
  w.PutU32(announced);
  for (const Fid& fid : fids) w.PutFid(fid);
  return w.Take();
}

TEST(RenewLeasesReplyTest, EveryTruncationIsRejected) {
  const std::vector<Fid> rejected = {Fid{5, 1, 1}, Fid{5, 2, 7}};
  const Bytes valid = RenewLeasesBody(1234, 2, rejected);
  rpc::Reader whole(valid);
  auto reply = ReadRenewLeasesReply(whole);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->new_expiry, 1234u);
  EXPECT_EQ(reply->rejected, rejected);

  for (size_t len = 0; len < valid.size(); ++len) {
    const Bytes cut(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    rpc::Reader r(cut);
    EXPECT_EQ(ReadRenewLeasesReply(r).status(), Status::kProtocolError) << "length " << len;
  }
}

TEST(RenewLeasesReplyTest, HostileRejectedCountIsRejected) {
  // 0xFFFFFFFF rejected fids announced, three present: refused before any
  // reservation sized by the count.
  const Bytes hostile =
      RenewLeasesBody(1234, 0xFFFFFFFFu, {Fid{5, 1, 1}, Fid{5, 2, 7}, Fid{5, 3, 9}});
  rpc::Reader r(hostile);
  EXPECT_EQ(ReadRenewLeasesReply(r).status(), Status::kProtocolError);
}

TEST_F(VolumeTest, OfflineVolumeUnavailable) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  vol_.set_online(false);
  EXPECT_EQ(vol_.FetchData(fid).status(), Status::kVolumeOffline);
  vol_.set_online(true);
  EXPECT_TRUE(vol_.FetchData(fid).ok());
}

TEST_F(VolumeTest, EffectiveAclOfFileIsParentDirs) {
  // "The protected entities are directories, and all files within a
  //  directory have the same protection status."
  AccessList dir_acl;
  dir_acl.SetPositive(Principal::User(99), protection::kRead);
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, dir_acl);
  auto fid = *vol_.CreateFile(dir, "f", kOwner, 0644);
  auto acl = vol_.EffectiveAcl(fid);
  ASSERT_TRUE(acl.ok());
  EXPECT_EQ(*acl, dir_acl);
}

TEST_F(VolumeTest, SalvageCleanVolumeReportsClean) {
  ASSERT_TRUE(vol_.CreateFile(vol_.root(), "f", kOwner, 0644).ok());
  auto report = vol_.Salvage();
  EXPECT_TRUE(report.clean());
}

TEST_F(VolumeTest, RemoveEmptyDirOnly) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(dir, "f", kOwner, 0644).ok());
  EXPECT_EQ(vol_.RemoveDir(vol_.root(), "d"), Status::kNotEmpty);
  ASSERT_EQ(vol_.RemoveFile(dir, "f"), Status::kOk);
  EXPECT_EQ(vol_.RemoveDir(vol_.root(), "d"), Status::kOk);
}

TEST_F(VolumeTest, MTimeFromVirtualClock) {
  vol_.set_now(Seconds(100));
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  EXPECT_EQ(vol_.GetStatus(fid)->mtime, Seconds(100));
  vol_.set_now(Seconds(200));
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("x")), Status::kOk);
  EXPECT_EQ(vol_.GetStatus(fid)->mtime, Seconds(200));
}

}  // namespace
}  // namespace itc::vice

// Property test: Volume::Dump -> Restore is lossless. A randomized operation
// churn builds an arbitrary volume; dumping it, restoring the dump, and
// dumping again must reproduce the exact same bytes (same vnodes, data,
// ACLs, fid counters). The same property must hold for a dump taken from a
// copy-on-write clone — the backup path dumps clones, and recovery restores
// whatever image the StableStore holds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/protection/access_list.h"
#include "src/vice/volume.h"

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;

AccessList OpenAcl() {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
  return acl;
}

// Random volume churn: creates, writes, mkdirs, symlinks, renames, removals.
// Tracks live files/dirs so most operations hit existing objects.
void Churn(Volume& vol, Rng& rng, int steps) {
  std::vector<Fid> dirs = {vol.root()};
  std::vector<std::pair<Fid, std::string>> files;  // (parent, name)
  std::vector<std::pair<Fid, std::string>> subdirs;

  for (int step = 0; step < steps; ++step) {
    vol.set_now(static_cast<SimTime>(step) * 17 + 1);
    const Fid dir = dirs[rng.Below(dirs.size())];
    const std::string name = Numbered("n", rng.Below(12));
    switch (rng.Below(6)) {
      case 0: {  // create file
        auto f = vol.CreateFile(dir, name, kAnonymousUser, 0644);
        if (f.ok()) files.emplace_back(dir, name);
        break;
      }
      case 1: {  // mkdir
        auto d = vol.MakeDir(dir, name, kAnonymousUser, OpenAcl());
        if (d.ok()) {
          dirs.push_back(*d);
          subdirs.emplace_back(dir, name);
        }
        break;
      }
      case 2: {  // store into a random file
        if (files.empty()) break;
        const auto& [pdir, pname] = files[rng.Below(files.size())];
        auto data = vol.FetchData(pdir);
        if (!data.ok()) break;
        auto entries = DeserializeDirectory(*data);
        if (!entries.ok()) break;
        auto it = entries->find(pname);
        if (it == entries->end()) break;
        Bytes payload = ToBytes(std::string(rng.Below(200), 'x') + std::to_string(step));
        (void)vol.StoreData(it->second.fid, std::move(payload));
        break;
      }
      case 3: {  // symlink
        (void)vol.MakeSymlink(dir, "l" + name, "/target/" + name, kAnonymousUser);
        break;
      }
      case 4: {  // rename a file somewhere else
        if (files.empty()) break;
        const size_t i = rng.Below(files.size());
        const Fid to_dir = dirs[rng.Below(dirs.size())];
        const std::string to_name = Numbered("r", rng.Below(12));
        if (vol.Rename(files[i].first, files[i].second, to_dir, to_name) == Status::kOk) {
          files[i] = {to_dir, to_name};
        }
        break;
      }
      case 5: {  // remove a file
        if (files.empty()) break;
        const size_t i = rng.Below(files.size());
        if (vol.RemoveFile(files[i].first, files[i].second) == Status::kOk) {
          files.erase(files.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
      }
    }
  }
}

class DumpRestorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DumpRestorePropertyTest, DumpRestoreDumpIsIdentity) {
  Rng rng(GetParam());
  Volume vol(5, "prop", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(),
             /*quota_bytes=*/0);
  Churn(vol, rng, 300);
  ASSERT_TRUE(vol.Salvage().clean());  // churn must not corrupt the volume

  const Bytes dump = vol.Dump();
  auto restored = Volume::Restore(dump, /*new_id=*/5, "prop", VolumeType::kReadWrite);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Dump(), dump);
  // The restored volume is internally consistent, not just byte-identical.
  EXPECT_TRUE((*restored)->Salvage().clean());
  EXPECT_EQ((*restored)->vnode_count(), vol.vnode_count());
}

TEST_P(DumpRestorePropertyTest, CloneDumpRestoresToEquivalentVolume) {
  Rng rng(GetParam() ^ 0xc10e);
  Volume vol(9, "orig", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
  Churn(vol, rng, 200);

  // The backup path: freeze a clone, dump it. Restoring that image must
  // reproduce the original's full content. The dump embeds the clone's
  // name and read-only type, so the byte-identity round-trip restores
  // under both.
  auto clone = vol.Clone(9, "orig.backup");
  const Bytes dump = clone->Dump();
  auto restored = Volume::Restore(dump, 9, "orig.backup", VolumeType::kReadOnly);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Dump(), dump);
  EXPECT_EQ((*restored)->vnode_count(), vol.vnode_count());
  EXPECT_TRUE((*restored)->Salvage().clean());

  // Mutating the original after the clone must not disturb the frozen dump
  // (copy-on-write isolation).
  vol.set_now(99999);
  Churn(vol, rng, 50);
  EXPECT_EQ(clone->Dump(), dump);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpRestorePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 4242u));

}  // namespace
}  // namespace itc::vice

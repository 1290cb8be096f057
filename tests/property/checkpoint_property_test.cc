// Property test: checkpoint images are copy-on-write and their size is
// maintained, not recomputed. Volume::Snapshot shares every vnode with the
// live volume, and a write copies only the vnode it touches; DumpSize keeps
// a running total instead of re-serializing. Under random churn over every
// mutator kind:
//   - DumpSize() equals Dump().size() after every operation;
//   - every snapshot (including a snapshot of a snapshot) still dumps to the
//     bytes its source had when it was taken, however much its source, and
//     any revived copy of it, is written afterwards;
//   - a twin volume fed the same operations but never snapshotted ends
//     byte-identical, so sharing changes no result.

#include <gtest/gtest.h>

#include <memory>
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

AccessList RandomAcl(Rng& rng) {
  AccessList acl;
  const uint64_t positives = rng.Below(4);
  for (uint64_t i = 0; i < positives; ++i) {
    acl.SetPositive(Principal::User(static_cast<UserId>(rng.Below(8) + 1)),
                    static_cast<protection::Rights>(rng.Below(protection::kAllRights) + 1));
  }
  if (rng.Below(3) == 0) {
    acl.SetNegative(Principal::Group(protection::kAnyUserGroup), protection::kWrite);
  }
  return acl;
}

struct Entry {
  Fid dir;
  std::string name;
  DirItem item;
};

// Every directory entry reachable from the root, in a fixed order, read
// through the public interface only.
std::vector<Entry> Entries(const Volume& vol) {
  std::vector<Entry> out;
  std::vector<Fid> frontier{vol.root()};
  while (!frontier.empty()) {
    const Fid dir = frontier.back();
    frontier.pop_back();
    auto data = vol.FetchData(dir);
    if (!data.ok()) continue;
    auto entries = DeserializeDirectory(*data);
    if (!entries.ok()) continue;
    for (const auto& [name, item] : *entries) {
      out.push_back({dir, name, item});
      if (item.kind == DirItem::Kind::kDirectory) frontier.push_back(item.fid);
    }
  }
  return out;
}

// One random operation. Its choices depend only on `rng` and the volume's
// state, so two volumes in the same state fed copies of one Rng make the
// same move.
void RandomOp(Volume& vol, Rng& rng, SimTime now) {
  vol.set_now(now);
  const std::vector<Entry> entries = Entries(vol);
  std::vector<Fid> dirs{vol.root()};
  for (const Entry& e : entries) {
    if (e.item.kind == DirItem::Kind::kDirectory) dirs.push_back(e.item.fid);
  }
  const Fid dir = dirs[rng.Below(dirs.size())];
  const std::string name = Numbered("n", rng.Below(10));
  const Entry* victim = entries.empty() ? nullptr : &entries[rng.Below(entries.size())];

  switch (rng.Below(13)) {
    case 0:
    case 1:
      (void)vol.CreateFile(dir, name, kAnonymousUser, 0644);
      break;
    case 2:
      (void)vol.MakeDir(dir, name, kAnonymousUser, OpenAcl());
      break;
    case 3:
      (void)vol.MakeSymlink(dir, name, "/target/" + std::string(rng.Below(40), 's'),
                            kAnonymousUser);
      break;
    case 4:
      (void)vol.MakeMountPoint(dir, name, static_cast<VolumeId>(100 + rng.Below(4)));
      break;
    case 5:
    case 6: {
      if (victim == nullptr || victim->item.kind != DirItem::Kind::kFile) break;
      Bytes payload = ToBytes(std::string(rng.Below(300), 'x') + std::to_string(now));
      (void)vol.StoreData(victim->item.fid, std::move(payload));
      break;
    }
    case 7:
      if (victim != nullptr) (void)vol.RemoveFile(victim->dir, victim->name);
      break;
    case 8:
      if (victim != nullptr) (void)vol.RemoveDir(victim->dir, victim->name);
      break;
    case 9:
      if (victim != nullptr) (void)vol.Rename(victim->dir, victim->name, dir, name);
      break;
    case 10:
      (void)vol.SetAcl(dir, RandomAcl(rng));
      break;
    case 11: {
      const Fid fid = victim != nullptr && victim->item.fid.valid() ? victim->item.fid
                                                                     : vol.root();
      if (rng.Below(2) == 0) {
        (void)vol.SetMode(fid, static_cast<uint16_t>(rng.Below(01000)));
      } else {
        (void)vol.SetOwner(fid, static_cast<UserId>(rng.Below(8) + 1));
      }
      break;
    }
    case 12:
      if (rng.Below(4) == 0) {
        EXPECT_TRUE(vol.Salvage().clean());
      }
      break;
  }
}

struct Frozen {
  std::unique_ptr<Volume> vol;
  Bytes dump;  // its bytes when it was taken
};

class CheckpointPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointPropertyTest, SnapshotsStayFrozenAndDumpSizeStaysExact) {
  constexpr int kSteps = 400;
  Rng rng(GetParam());
  Rng side_rng(GetParam() ^ 0x5eed);
  Volume vol(5, "prop", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
  Volume twin(5, "prop", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
  std::vector<Frozen> frozen;
  // Written after it is made, while the images it came from must not move:
  // a snapshot of a snapshot revived as a live volume (what recovery hands
  // the server), and a volume restored from a dump.
  std::unique_ptr<Volume> revived;
  std::unique_ptr<Volume> restored;

  for (int step = 0; step < kSteps; ++step) {
    const SimTime now = static_cast<SimTime>(step) * 17 + 1;
    Rng twin_rng = rng;
    RandomOp(vol, rng, now);
    RandomOp(twin, twin_rng, now);
    ASSERT_EQ(vol.DumpSize(), vol.Dump().size()) << "step " << step;

    if (rng.Below(10) == 0) frozen.push_back({vol.Snapshot(), vol.Dump()});
    if (!frozen.empty() && rng.Below(40) == 0) {
      const Frozen& base = frozen[rng.Below(frozen.size())];
      frozen.push_back({base.vol->Snapshot(), base.dump});
    }
    if (step == kSteps / 3 && !frozen.empty()) revived = frozen.front().vol->Snapshot();
    if (step == kSteps / 2) {
      auto r = Volume::Restore(vol.Dump(), vol.id(), vol.name(), vol.type());
      ASSERT_TRUE(r.ok());
      restored = std::move(*r);
    }
    for (Volume* side : {revived.get(), restored.get()}) {
      if (side == nullptr) continue;
      RandomOp(*side, side_rng, now);
      ASSERT_EQ(side->DumpSize(), side->Dump().size()) << "step " << step;
    }
  }

  ASSERT_GE(frozen.size(), 10u);
  for (size_t i = 0; i < frozen.size(); ++i) {
    EXPECT_EQ(frozen[i].vol->Dump(), frozen[i].dump) << "snapshot " << i;
    EXPECT_EQ(frozen[i].vol->DumpSize(), frozen[i].dump.size()) << "snapshot " << i;
  }
  EXPECT_EQ(twin.Dump(), vol.Dump());
  EXPECT_EQ(twin.DumpSize(), vol.DumpSize());
  EXPECT_EQ(twin.usage_bytes(), vol.usage_bytes());
  // A clone copies every vnode to rebrand its fids; it counts its own size.
  auto clone = vol.Clone(6, "prop.clone");
  EXPECT_EQ(clone->DumpSize(), clone->Dump().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 4242u));

}  // namespace
}  // namespace itc::vice

// Edge cases of Venus's client-side pathname traversal (the revised
// implementation's name resolution): dot components, parents, mount points
// in every position, symlink chains and loops, and trailing-symlink
// semantics.

#include <gtest/gtest.h>

#include "src/campus/campus.h"

namespace itc::venus {
namespace {

using campus::Campus;
using campus::CampusConfig;

class PathResolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campus_ = std::make_unique<Campus>(CampusConfig::Revised(1, 1));
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("p", "pw", 0);
    ASSERT_TRUE(home.ok());
    home_ = *home;
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
    ASSERT_EQ(ws_->MkDir("/vice/usr/p/a"), Status::kOk);
    ASSERT_EQ(ws_->MkDir("/vice/usr/p/a/b"), Status::kOk);
    ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/p/a/b/leaf", ToBytes("found")), Status::kOk);
  }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome home_;
  virtue::Workstation* ws_ = nullptr;
};

TEST_F(PathResolutionTest, DotAndDotDotComponents) {
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/./a/b/leaf")), "found");
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/a/b/../b/leaf")), "found");
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/a/./b/.././b/leaf")), "found");
}

TEST_F(PathResolutionTest, DotDotCrossesMountPointsCorrectly) {
  // ".." at a mounted volume's root must land in the directory containing
  // the mount point (Unix semantics), which only the traversal knows — the
  // volume root's own parent fid is null. /usr/p/.. is /usr; /usr/p/../..
  // is the Vice root.
  auto usr = ws_->ReadDir("/vice/usr/p/..");
  ASSERT_TRUE(usr.ok());
  EXPECT_NE(std::find(usr->begin(), usr->end(), "p"), usr->end());

  auto root = ws_->ReadDir("/vice/usr/p/../..");
  ASSERT_TRUE(root.ok());
  EXPECT_NE(std::find(root->begin(), root->end(), "usr"), root->end());
  EXPECT_NE(std::find(root->begin(), root->end(), "unix"), root->end());

  // ".." above the Vice root stays at the root.
  auto still_root = ws_->ReadDir("/vice/../../..");
  ASSERT_TRUE(still_root.ok());
  EXPECT_NE(std::find(still_root->begin(), still_root->end(), "usr"), still_root->end());

  // And a file is reachable through a mount-crossing ".." path.
  auto data = ws_->ReadWholeFile("/vice/usr/p/../p/a/b/leaf");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "found");
}

TEST_F(PathResolutionTest, RelativeSymlinkChain) {
  ASSERT_EQ(ws_->Symlink("b/leaf", "/vice/usr/p/a/l1"), Status::kOk);
  ASSERT_EQ(ws_->Symlink("a/l1", "/vice/usr/p/l2"), Status::kOk);
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/l2")), "found");
}

TEST_F(PathResolutionTest, AbsoluteSymlinkRestartsAtViceRoot) {
  // Absolute Vice symlinks are absolute within the shared name space.
  ASSERT_EQ(ws_->Symlink("/usr/p/a/b/leaf", "/vice/usr/p/abs"), Status::kOk);
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/abs")), "found");
}

TEST_F(PathResolutionTest, SymlinkLoopDetected) {
  ASSERT_EQ(ws_->Symlink("loop2", "/vice/usr/p/loop1"), Status::kOk);
  ASSERT_EQ(ws_->Symlink("loop1", "/vice/usr/p/loop2"), Status::kOk);
  EXPECT_EQ(ws_->ReadWholeFile("/vice/usr/p/loop1").status(), Status::kSymlinkLoop);
}

TEST_F(PathResolutionTest, TrailingSymlinkNotFollowedByReadLink) {
  ASSERT_EQ(ws_->Symlink("a/b/leaf", "/vice/usr/p/link"), Status::kOk);
  EXPECT_EQ(*ws_->ReadLink("/vice/usr/p/link"), "a/b/leaf");
  // Stat follows; the result is the file, not the link.
  auto st = ws_->Stat("/vice/usr/p/link");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, virtue::FileInfo::Type::kFile);
  EXPECT_EQ(st->size, 5u);
}

TEST_F(PathResolutionTest, SymlinkIntoAnotherUsersVolume) {
  auto other = campus_->AddUserWithHome("q", "pw2", 0);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(campus_->PopulateDirect(other->volume, "/public", ToBytes("from q")),
            Status::kOk);
  // A symlink crossing a mount point (usr/p -> usr/q).
  ASSERT_EQ(ws_->Symlink("/usr/q/public", "/vice/usr/p/theirs"), Status::kOk);
  EXPECT_EQ(ToString(*ws_->ReadWholeFile("/vice/usr/p/theirs")), "from q");
}

TEST_F(PathResolutionTest, MountPointAsFinalComponent) {
  // Listing "/vice/usr/p" where "p" is itself a mount point must land in
  // the mounted volume's root.
  auto names = ws_->ReadDir("/vice/usr/p");
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names->begin(), names->end(), "a"), names->end());
}

TEST_F(PathResolutionTest, MissingIntermediateVsMissingLeaf) {
  EXPECT_EQ(ws_->ReadWholeFile("/vice/usr/p/a/b/absent").status(), Status::kNotFound);
  EXPECT_EQ(ws_->ReadWholeFile("/vice/usr/p/ghost/leaf").status(), Status::kNotFound);
  // Traversing through a regular file is a shape error, not NotFound.
  EXPECT_EQ(ws_->ReadWholeFile("/vice/usr/p/a/b/leaf/deeper").status(),
            Status::kNotDirectory);
}

TEST_F(PathResolutionTest, WarmTraversalUsesNoServerCalls) {
  ASSERT_TRUE(ws_->ReadWholeFile("/vice/usr/p/a/b/leaf").ok());  // warm everything
  campus_->ResetAllStats();
  ASSERT_TRUE(ws_->ReadWholeFile("/vice/usr/p/a/b/leaf").ok());
  EXPECT_EQ(campus_->TotalCalls(), 0u);  // dirs + file all under callback promises
}

TEST_F(PathResolutionTest, DamagedCachedDirectoryFailsTheWalk) {
  // Venus reads each directory hop from its local cache copy. If that copy
  // stops decoding (here overwritten on the workstation's disk), the walk
  // reports kInternal instead of misreading it, and listing fails the same
  // way.
  Venus& venus = ws_->venus();
  ASSERT_TRUE(venus.Stat("/usr/p/a/b/leaf").ok());
  const Fid a = venus.Stat("/usr/p/a")->fid;
  ASSERT_TRUE(venus.cache().ReadData(a).ok());
  ASSERT_EQ(ws_->local_fs().WriteFile(venus.cache().PathFor(a),
                                      Bytes{0xFF, 0xFF, 0xFF, 0xFF, 'j', 'u', 'n', 'k'}),
            Status::kOk);

  EXPECT_EQ(venus.Stat("/usr/p/a/b/leaf").status(), Status::kInternal);
  EXPECT_EQ(venus.Stat("/usr/p/a/absent").status(), Status::kInternal);
  EXPECT_EQ(venus.ReadDir("/usr/p/a").status(), Status::kInternal);
  // Walks that do not pass through the damaged directory are unaffected.
  EXPECT_TRUE(venus.Stat("/usr/p/a").ok());
  EXPECT_TRUE(venus.ReadDir("/usr/p").ok());
}

TEST_F(PathResolutionTest, WarmWalkChargesALookupAndALocalReadPerHop) {
  // With every directory cached under a callback promise, resolving a path
  // costs a cache lookup plus a local read of the directory's bytes at each
  // hop, and one more lookup for the final status. Nothing else.
  Venus& venus = ws_->venus();
  ASSERT_TRUE(venus.Stat("/usr/p/a/b/leaf").ok());
  const sim::CostModel& cost = campus_->config().cost;
  SimTime expected = cost.cache_lookup;
  for (const char* dir : {"/", "/usr", "/usr/p", "/usr/p/a", "/usr/p/a/b"}) {
    auto st = venus.Stat(dir);
    ASSERT_TRUE(st.ok()) << dir;
    auto data = venus.cache().ReadData(st->fid);
    ASSERT_TRUE(data.ok()) << dir;
    expected += cost.cache_lookup + cost.LocalIoTime(data->size());
  }

  const SimTime before = ws_->clock().now();
  ASSERT_TRUE(venus.Stat("/usr/p/a/b/leaf").ok());
  EXPECT_EQ(ws_->clock().now() - before, expected);
}

}  // namespace
}  // namespace itc::venus

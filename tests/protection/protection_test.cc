// Unit tests for the protection domain: rights, access lists with negative
// rights, recursive groups / CPS, and the replicated protection service.

#include <gtest/gtest.h>

#include "src/protection/access_list.h"
#include "src/rpc/wire.h"
#include "src/protection/protection_db.h"
#include "src/protection/protection_service.h"
#include "src/protection/rights.h"

namespace itc::protection {
namespace {

// --- Rights -----------------------------------------------------------------

TEST(RightsTest, BitAlgebra) {
  Rights rw = kRead | kWrite;
  EXPECT_TRUE(HasRights(rw, kRead));
  EXPECT_TRUE(HasRights(rw, kWrite));
  EXPECT_FALSE(HasRights(rw, kRead | kInsert));
  EXPECT_EQ(rw & kRead, kRead);
  EXPECT_EQ(~kAllRights, kNone);
  EXPECT_TRUE(HasRights(kAllRights, kAdminister));
}

TEST(RightsTest, ToStringFormat) {
  EXPECT_EQ(RightsToString(kNone), "-------");
  EXPECT_EQ(RightsToString(kLookup | kRead), "lr-----");
  EXPECT_EQ(RightsToString(kAllRights), "lrwidka");
}

// --- AccessList ----------------------------------------------------------------

TEST(AccessListTest, EffectiveIsUnionOfPositives) {
  AccessList acl;
  acl.SetPositive(Principal::User(1), kRead);
  acl.SetPositive(Principal::Group(10), kWrite);
  const std::vector<Principal> cps{Principal::User(1), Principal::Group(10)};
  EXPECT_EQ(acl.Effective(cps), kRead | kWrite);
  EXPECT_EQ(acl.Effective({Principal::User(1)}), kRead);
  EXPECT_EQ(acl.Effective({Principal::User(2)}), kNone);
}

TEST(AccessListTest, NegativeRightsSubtract) {
  // "The union of all the negative rights specified for a user's CPS is
  //  subtracted from his positive rights."
  AccessList acl;
  acl.SetPositive(Principal::Group(10), kAllRights);
  acl.SetNegative(Principal::User(1), kWrite | kAdminister);
  const std::vector<Principal> cps{Principal::User(1), Principal::Group(10)};
  const Rights r = acl.Effective(cps);
  EXPECT_TRUE(HasRights(r, kRead));
  EXPECT_FALSE(HasRights(r, kWrite));
  EXPECT_FALSE(HasRights(r, kAdminister));
}

TEST(AccessListTest, NegativeBeatsPositiveOnSamePrincipal) {
  AccessList acl;
  acl.SetPositive(Principal::User(1), kRead);
  acl.SetNegative(Principal::User(1), kRead);
  EXPECT_EQ(acl.Effective({Principal::User(1)}), kNone);
}

TEST(AccessListTest, SettingNoneRemovesEntry) {
  AccessList acl;
  acl.SetPositive(Principal::User(1), kRead);
  EXPECT_EQ(acl.entry_count(), 1u);
  acl.SetPositive(Principal::User(1), kNone);
  EXPECT_TRUE(acl.empty());
}

TEST(AccessListTest, RemoveClearsBothSides) {
  AccessList acl;
  acl.SetPositive(Principal::User(1), kRead);
  acl.SetNegative(Principal::User(1), kWrite);
  acl.Remove(Principal::User(1));
  EXPECT_TRUE(acl.empty());
}

TEST(AccessListTest, SerializeRoundTrip) {
  AccessList acl;
  acl.SetPositive(Principal::User(42), kRead | kLookup);
  acl.SetPositive(Principal::Group(kAnyUserGroup), kLookup);
  acl.SetNegative(Principal::User(13), kAllRights);
  auto parsed = AccessList::Deserialize(acl.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, acl);
}

TEST(AccessListTest, WireSizeMatchesSerialize) {
  // Volume::DumpSize counts ACL bytes with WireSize instead of serializing.
  AccessList acl;
  EXPECT_EQ(acl.WireSize(), acl.Serialize().size());
  acl.SetPositive(Principal::User(42), kRead | kLookup);
  acl.SetPositive(Principal::Group(kAnyUserGroup), kLookup);
  EXPECT_EQ(acl.WireSize(), acl.Serialize().size());
  AccessList negative_only;
  negative_only.SetNegative(Principal::User(13), kAllRights);
  EXPECT_EQ(negative_only.WireSize(), negative_only.Serialize().size());
  acl.SetNegative(Principal::User(13), kAllRights);
  acl.SetNegative(Principal::Group(kAnyUserGroup), kWrite);
  EXPECT_EQ(acl.WireSize(), acl.Serialize().size());
}

TEST(AccessListTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(AccessList::Deserialize(Bytes{1, 2, 3}).ok());
  // Invalid rights bits.
  itc::rpc::Writer w;
  w.PutU32(1);
  w.PutU8(0);
  w.PutU32(1);
  w.PutU32(0xffffffff);
  w.PutU32(0);
  EXPECT_FALSE(AccessList::Deserialize(w.Take()).ok());
}

TEST(AccessListTest, DeserializeRejectsHostileCount) {
  // 0xFFFFFFFF entries announced, one entry's worth of body present.
  itc::rpc::Writer w;
  w.PutU32(0xFFFFFFFFu);
  w.PutU8(0);
  w.PutU32(1);
  w.PutU32(static_cast<uint32_t>(kRead));
  EXPECT_EQ(AccessList::Deserialize(w.Take()).status(), Status::kProtocolError);
}

// --- ProtectionDb -----------------------------------------------------------------

class ProtectionDbTest : public ::testing::Test {
 protected:
  ProtectionDb db_;
};

TEST_F(ProtectionDbTest, BuiltInGroupsExist) {
  EXPECT_TRUE(db_.GroupExists(kAnyUserGroup));
  EXPECT_TRUE(db_.GroupExists(kAdministratorsGroup));
  EXPECT_EQ(*db_.LookupGroup("System:AnyUser"), kAnyUserGroup);
}

TEST_F(ProtectionDbTest, CreateUserAndKey) {
  auto u = db_.CreateUser("alice", "pw1");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(*db_.LookupUser("alice"), *u);
  EXPECT_EQ(*db_.UserName(*u), "alice");
  ASSERT_TRUE(db_.UserKey(*u).has_value());
  EXPECT_EQ(db_.CreateUser("alice", "pw2").status(), Status::kAlreadyExists);
  EXPECT_FALSE(db_.UserKey(99999).has_value());
}

TEST_F(ProtectionDbTest, PasswordChangeChangesKey) {
  auto u = db_.CreateUser("bob", "old");
  ASSERT_TRUE(u.ok());
  const auto k1 = *db_.UserKey(*u);
  ASSERT_EQ(db_.SetPassword(*u, "new"), Status::kOk);
  EXPECT_NE(*db_.UserKey(*u), k1);
}

TEST_F(ProtectionDbTest, CpsIncludesSelfAndAnyUser) {
  auto u = db_.CreateUser("carol", "x");
  ASSERT_TRUE(u.ok());
  auto cps = db_.CPS(*u);
  EXPECT_EQ(cps.size(), 2u);
  EXPECT_NE(std::find(cps.begin(), cps.end(), Principal::User(*u)), cps.end());
  EXPECT_NE(std::find(cps.begin(), cps.end(), Principal::Group(kAnyUserGroup)), cps.end());
}

TEST_F(ProtectionDbTest, CpsFollowsRecursiveMembership) {
  // carol ∈ staff ∈ faculty: CPS(carol) must contain both groups.
  auto u = *db_.CreateUser("carol", "x");
  auto staff = *db_.CreateGroup("staff");
  auto faculty = *db_.CreateGroup("faculty");
  ASSERT_EQ(db_.AddToGroup(Principal::User(u), staff), Status::kOk);
  ASSERT_EQ(db_.AddToGroup(Principal::Group(staff), faculty), Status::kOk);

  auto cps = db_.CPS(u);
  EXPECT_NE(std::find(cps.begin(), cps.end(), Principal::Group(staff)), cps.end());
  EXPECT_NE(std::find(cps.begin(), cps.end(), Principal::Group(faculty)), cps.end());
}

TEST_F(ProtectionDbTest, CpsToleratesMembershipCycles) {
  auto u = *db_.CreateUser("dave", "x");
  auto g1 = *db_.CreateGroup("g1");
  auto g2 = *db_.CreateGroup("g2");
  ASSERT_EQ(db_.AddToGroup(Principal::User(u), g1), Status::kOk);
  ASSERT_EQ(db_.AddToGroup(Principal::Group(g1), g2), Status::kOk);
  ASSERT_EQ(db_.AddToGroup(Principal::Group(g2), g1), Status::kOk);  // cycle
  auto cps = db_.CPS(u);
  EXPECT_EQ(cps.size(), 4u);  // user + AnyUser + g1 + g2
}

TEST_F(ProtectionDbTest, SelfMembershipRejected) {
  auto g = *db_.CreateGroup("g");
  EXPECT_EQ(db_.AddToGroup(Principal::Group(g), g), Status::kInvalidArgument);
}

TEST_F(ProtectionDbTest, RemoveFromGroupShrinksCps) {
  auto u = *db_.CreateUser("erin", "x");
  auto g = *db_.CreateGroup("g");
  ASSERT_EQ(db_.AddToGroup(Principal::User(u), g), Status::kOk);
  EXPECT_EQ(db_.CPS(u).size(), 3u);
  ASSERT_EQ(db_.RemoveFromGroup(Principal::User(u), g), Status::kOk);
  EXPECT_EQ(db_.CPS(u).size(), 2u);
  EXPECT_EQ(db_.RemoveFromGroup(Principal::User(u), g), Status::kNotFound);
}

TEST_F(ProtectionDbTest, VersionBumpsOnMutation) {
  const uint64_t v0 = db_.version();
  auto u = *db_.CreateUser("frank", "x");
  EXPECT_GT(db_.version(), v0);
  const uint64_t v1 = db_.version();
  auto g = *db_.CreateGroup("g");
  ASSERT_EQ(db_.AddToGroup(Principal::User(u), g), Status::kOk);
  EXPECT_GT(db_.version(), v1);
}

// --- ProtectionService ----------------------------------------------------------

TEST(ProtectionServiceTest, ReplicasReceiveUpdates) {
  ProtectionService service;
  Replica r1, r2;
  service.RegisterReplica(&r1);
  service.RegisterReplica(&r2);

  auto u = service.CreateUser("gina", "pw");
  ASSERT_TRUE(u.ok());
  // Both replicas see the new user and can serve the key lookup.
  EXPECT_TRUE(r1.snapshot()->UserKey(*u).has_value());
  EXPECT_TRUE(r2.snapshot()->UserKey(*u).has_value());
  EXPECT_EQ(r1.version(), r2.version());
  EXPECT_EQ(service.publications(), 1u);  // one publication for the CreateUser
}

TEST(ProtectionServiceTest, SnapshotIsImmutableView) {
  ProtectionService service;
  Replica r;
  service.RegisterReplica(&r);
  auto old_snapshot = r.snapshot();
  auto u = service.CreateUser("henry", "pw");
  ASSERT_TRUE(u.ok());
  // The old snapshot does not see the new user; the fresh one does.
  EXPECT_FALSE(old_snapshot->UserKey(*u).has_value());
  EXPECT_TRUE(r.snapshot()->UserKey(*u).has_value());
}

TEST(ProtectionServiceTest, GroupChangesPropagate) {
  ProtectionService service;
  Replica r;
  service.RegisterReplica(&r);
  auto u = *service.CreateUser("iris", "pw");
  auto g = *service.CreateGroup("club");
  ASSERT_EQ(service.AddToGroup(Principal::User(u), g), Status::kOk);
  auto cps = r.snapshot()->CPS(u);
  EXPECT_NE(std::find(cps.begin(), cps.end(), Principal::Group(g)), cps.end());
  ASSERT_EQ(service.RemoveFromGroup(Principal::User(u), g), Status::kOk);
  cps = r.snapshot()->CPS(u);
  EXPECT_EQ(std::find(cps.begin(), cps.end(), Principal::Group(g)), cps.end());
}

}  // namespace
}  // namespace itc::protection

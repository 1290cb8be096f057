// Property tests for the lazy generative content representation: whatever
// the at-rest form (generative record, interned literal, or the pre-diet
// materialized bytes with canonicalization disabled), every byte served must
// be identical and every simulated timestamp unchanged. Covers random
// chunked reads, store overwrites on copy-on-write shared buffers, Dump ->
// Restore round trips, crash -> Restart replay, and a full mini campus day
// diffed against the materialized representation.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/campus/campus.h"
#include "src/common/content.h"
#include "src/common/rng.h"
#include "src/protection/access_list.h"
#include "src/vice/volume.h"
#include "src/workload/source_tree.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;
using protection::AccessList;
using protection::Principal;
using vice::Volume;
using vice::VolumeType;

struct CanonGuard {
  explicit CanonGuard(bool enabled) { content::SetCanonicalizationEnabled(enabled); }
  ~CanonGuard() { content::SetCanonicalizationEnabled(true); }
};

AccessList OpenAcl() {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
  return acl;
}

// A deterministic payload of assorted shapes: purely generative, generative
// prefix + literal tail, or literal-only bytes the recognizer must not touch.
Bytes MakePayload(Rng& rng, uint64_t size) {
  switch (rng.Below(3)) {
    case 0:
      return content::Ref::ForSeed(rng.NextU64(), size).Materialize();
    case 1: {
      Bytes data = content::Ref::ForSeed(rng.NextU64(), size).Materialize();
      const uint64_t cut = size / 2 + rng.Below(size / 2 + 1);
      for (uint64_t i = cut; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(128 + ((i * 31) & 0x7f));
      }
      return data;
    }
    default: {
      Bytes data(size);
      for (uint64_t i = 0; i < size; ++i) {
        data[i] = static_cast<uint8_t>(200 + ((i * 7 + rng.Below(8)) & 0x37));
      }
      return data;
    }
  }
}

class ContentPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// --- Random chunked reads -----------------------------------------------------

TEST_P(ContentPropertyTest, ChunkedSlicesReassembleToMaterializedBytes) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const Bytes data = MakePayload(rng, 1 + rng.Below(20000));
    const content::Ref ref = content::Ref::Canonicalize(Bytes(data));
    ASSERT_EQ(ref.size(), data.size());

    Bytes reassembled;
    uint64_t off = 0;
    while (off < data.size()) {
      const uint64_t n = 1 + rng.Below(997);
      const Bytes chunk = ref.Slice(off, n);
      reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
      off += chunk.size();
    }
    ASSERT_EQ(reassembled, data) << "round " << round;
  }
}

// --- Store overwrites and copy-on-write ---------------------------------------

// The same randomized store/overwrite churn applied with canonicalization on
// and off must serve identical bytes, and overwriting one holder of a shared
// interned buffer must never disturb the other (copy-on-write).
TEST_P(ContentPropertyTest, StoreOverwritesMatchModelInBothRepresentations) {
  // Deterministic op list built first, so both volumes replay the same ops.
  struct Op {
    int file;
    Bytes data;
  };
  Rng rng(GetParam() ^ 0x57);
  constexpr int kFiles = 8;
  std::vector<Op> ops;
  for (int i = 0; i < 120; ++i) {
    Op op;
    op.file = static_cast<int>(rng.Below(kFiles));
    if (!ops.empty() && rng.Below(3) == 0) {
      // Partial overwrite: reuse an earlier payload and rewrite a span, so
      // stores frequently share prefixes/buffers with live contents.
      op.data = ops[rng.Below(ops.size())].data;
      if (!op.data.empty()) {
        const uint64_t at = rng.Below(op.data.size());
        for (uint64_t j = at; j < std::min<uint64_t>(at + 64, op.data.size()); ++j) {
          op.data[j] ^= 0x5a;
        }
      }
    } else {
      op.data = MakePayload(rng, 1 + rng.Below(8000));
    }
    ops.push_back(std::move(op));
  }

  auto run = [&](bool canonicalize) {
    CanonGuard guard(canonicalize);
    Volume vol(3, "prop", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
    std::vector<Fid> fids;
    for (int f = 0; f < kFiles; ++f) {
      fids.push_back(*vol.CreateFile(vol.root(), Numbered("f", f), kAnonymousUser, 0644));
    }
    std::map<int, Bytes> model;
    for (const Op& op : ops) {
      EXPECT_EQ(vol.StoreData(fids[op.file], Bytes(op.data)), Status::kOk);
      model[op.file] = op.data;
      // Every store is immediately visible with the model's exact bytes; a
      // shared-buffer overwrite corrupting a sibling file would surface here.
      const int probe = static_cast<int>((op.file + 1) % kFiles);
      if (model.count(probe) > 0) {
        EXPECT_EQ(*vol.FetchData(fids[probe]), model[probe]);
      }
    }
    std::vector<Bytes> final_contents;
    for (int f = 0; f < kFiles; ++f) {
      final_contents.push_back(model.count(f) ? *vol.FetchData(fids[f]) : Bytes{});
    }
    return final_contents;
  };

  EXPECT_EQ(run(/*canonicalize=*/true), run(/*canonicalize=*/false));
}

TEST_P(ContentPropertyTest, OverwritingOneSharerLeavesTheOtherIntact) {
  Rng rng(GetParam() ^ 0xc0);
  Volume vol(4, "cow", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
  const Fid a = *vol.CreateFile(vol.root(), "a", kAnonymousUser, 0644);
  const Fid b = *vol.CreateFile(vol.root(), "b", kAnonymousUser, 0644);

  // Identical literal payloads intern to one shared buffer.
  const Bytes shared = MakePayload(rng, 4096);
  ASSERT_EQ(vol.StoreData(a, Bytes(shared)), Status::kOk);
  ASSERT_EQ(vol.StoreData(b, Bytes(shared)), Status::kOk);

  Bytes replacement = MakePayload(rng, 2048);
  ASSERT_EQ(vol.StoreData(a, std::move(replacement)), Status::kOk);
  EXPECT_EQ(*vol.FetchData(b), shared);

  // Same property across a clone: the frozen replica keeps its bytes while
  // the parent is overwritten.
  auto clone = vol.Clone(44, "cow.backup");
  ASSERT_EQ(vol.StoreData(b, MakePayload(rng, 1024)), Status::kOk);
  const Fid clone_b{44, b.vnode, b.uniquifier};
  EXPECT_EQ(*clone->FetchData(clone_b), shared);
}

// --- Dump -> Restore ----------------------------------------------------------

TEST_P(ContentPropertyTest, DumpRestoreRoundTripsLazyContents) {
  Rng rng(GetParam() ^ 0xd0);
  Volume vol(6, "dump", VolumeType::kReadWrite, kAnonymousUser, OpenAcl(), 0);
  std::vector<std::pair<Fid, Bytes>> files;
  for (int i = 0; i < 12; ++i) {
    const Fid fid = *vol.CreateFile(vol.root(), Numbered("f", i), kAnonymousUser, 0644);
    Bytes data = MakePayload(rng, 1 + rng.Below(10000));
    ASSERT_EQ(vol.StoreData(fid, Bytes(data)), Status::kOk);
    files.emplace_back(fid, std::move(data));
  }

  const Bytes dump = vol.Dump();
  auto restored = Volume::Restore(dump, 6, "dump", VolumeType::kReadWrite);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Dump(), dump);
  for (const auto& [fid, data] : files) {
    EXPECT_EQ(*(*restored)->FetchData(fid), data);
  }

  // Restore must canonicalize, not materialize: generative contents come
  // back as generative records, so the restored volume retains far fewer
  // host bytes than the logical total it serves.
  std::unordered_set<const void*> seen;
  const uint64_t retained = (*restored)->RetainedContentBytes(&seen);
  uint64_t logical = 0;
  for (const auto& [fid, data] : files) logical += data.size();
  EXPECT_LT(retained, logical);
}

// --- Crash -> Restart replay --------------------------------------------------

// Stores committed before a crash must be replayed byte-identically from the
// stable store + intention log, whatever representation they were held in.
TEST_P(ContentPropertyTest, CrashReplayServesIdenticalBytes) {
  Rng rng(GetParam() ^ 0xcc);
  CampusConfig config = CampusConfig::Revised(1, 2);
  Campus campus(config);
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("u", "pw", 0);
  ASSERT_TRUE(home.ok());
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);

  std::map<std::string, Bytes> written;
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/vice/usr/u/f" + std::to_string(i);
    Bytes data = MakePayload(rng, 1 + rng.Below(6000));
    ASSERT_EQ(ws.WriteWholeFile(path, Bytes(data)), Status::kOk);
    written[path] = std::move(data);
  }

  campus.CrashServer(0);
  auto report = campus.RestartServer(0, ws.clock().now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.replay_failures, 0u);

  // Force fresh fetches so the comparison exercises the server's recovered
  // state, not the workstation cache.
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);
  ws.venus().FlushCache();
  for (const auto& [path, data] : written) {
    auto back = ws.ReadWholeFile(path);
    ASSERT_TRUE(back.ok()) << path;
    EXPECT_EQ(*back, data) << path;
  }
}

// --- Whole campus day, diffed against the materialized representation ---------

// Runs an identical deterministic mini-day twice — once with the lazy
// representation, once with canonicalization disabled (every buffer inline,
// the pre-diet form) — and requires identical served bytes and identical
// simulated clocks at every observation point.
TEST(ContentPropertyCampusDay, LazyAndMaterializedRepresentationsAreEquivalent) {
  struct Trace {
    std::vector<uint64_t> content_hashes;
    std::vector<SimTime> clocks;
    bool operator==(const Trace&) const = default;
  };

  auto run = [](bool canonicalize) {
    CanonGuard guard(canonicalize);
    Trace trace;

    CampusConfig config = CampusConfig::Revised(2, 2);
    Campus campus(config);
    ITC_CHECK(campus.SetupRootVolume().ok());
    auto alice = campus.AddUserWithHome("alice", "pw-a", 0);
    auto bob = campus.AddUserWithHome("bob", "pw-b", 1);
    ITC_CHECK(alice.ok() && bob.ok());

    auto sysvol = campus.CreateSystemVolume("sys.sun", "/unix/sun", 0);
    ITC_CHECK(sysvol.ok());
    for (int i = 0; i < 4; ++i) {
      ITC_CHECK(campus.PopulateDirect(
                    *sysvol, "/bin/tool" + std::to_string(i),
                    workload::SynthesizeContents(0xb1 + i, 4096 + i * 512)) == Status::kOk);
    }

    auto& ws_a = campus.workstation(0);
    auto& ws_b = campus.workstation(2);  // other cluster
    ITC_CHECK(ws_a.LoginWithPassword(alice->user, "pw-a") == Status::kOk);
    ITC_CHECK(ws_b.LoginWithPassword(bob->user, "pw-b") == Status::kOk);

    auto observe = [&trace](auto& ws, const Bytes& bytes) {
      trace.content_hashes.push_back(content::HashBytes(bytes.data(), bytes.size()));
      trace.clocks.push_back(ws.clock().now());
    };

    // A day's worth of shapes: writes, cross-workstation reads through a
    // callback break, system-binary reads on both stations, an overwrite.
    for (int i = 0; i < 6; ++i) {
      const std::string doc = "/vice/usr/alice/doc" + std::to_string(i);
      Bytes payload = workload::SynthesizeContents(100 + i, 2048 + i * 777);
      ITC_CHECK(ws_a.WriteWholeFile(doc, Bytes(payload)) == Status::kOk);
      observe(ws_a, payload);

      auto remote = ws_b.ReadWholeFile(doc);
      ITC_CHECK(remote.ok());
      observe(ws_b, *remote);
    }
    for (int i = 0; i < 4; ++i) {
      auto tool_a = ws_a.ReadWholeFile("/vice/unix/sun/bin/tool" + std::to_string(i));
      auto tool_b = ws_b.ReadWholeFile("/vice/unix/sun/bin/tool" + std::to_string(i));
      ITC_CHECK(tool_a.ok() && tool_b.ok());
      observe(ws_a, *tool_a);
      observe(ws_b, *tool_b);
    }
    ITC_CHECK(ws_a.WriteWholeFile("/vice/usr/alice/doc0",
                                  workload::SynthesizeContents(999, 5000)) == Status::kOk);
    auto rewritten = ws_b.ReadWholeFile("/vice/usr/alice/doc0");
    ITC_CHECK(rewritten.ok());
    observe(ws_b, *rewritten);
    return trace;
  };

  const auto lazy = run(/*canonicalize=*/true);
  const auto materialized = run(/*canonicalize=*/false);
  EXPECT_EQ(lazy.content_hashes, materialized.content_hashes);
  EXPECT_EQ(lazy.clocks, materialized.clocks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContentPropertyTest,
                         ::testing::Values(1u, 2u, 17u, 4242u));

}  // namespace
}  // namespace itc

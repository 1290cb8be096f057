// PromiseTable vs a brute-force oracle under random interleavings of
// grant / renew / release / break / volume break / crash-restart. Grants
// are leases (one term) or callbacks (open-ended, kNeverSimTime) at random,
// so both kinds share one table the way they share the server's.
//
// The oracle is the obvious map<(fid, holder) -> expiry> plus an embargo
// timestamp, recomputed from first principles at every step. Invariants
// checked after every operation:
//   * the table's live view (HasPromise, promise_count) matches the oracle
//     exactly;
//   * no lease survives one term past the current time; only callbacks do;
//   * Break returns exactly max(at, embargo end, latest expiry among live
//     unreachable lease holders) — in particular it never blocks at all when
//     every holder is reachable or the unreachable ones hold callbacks, and
//     never blocks past the earliest moment every outstanding lease has
//     lapsed;
//   * reachable holders are notified exactly once per break, the writer and
//     lapsed holders never; BreakVolume notifies every live reachable holder
//     of a fid in the volume and forgets those fids, writer or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"
#include "src/sim/kernel.h"
#include "src/vice/promise_table.h"

namespace itc::vice {
namespace {

class RecordingReceiver : public CallbackReceiver {
 public:
  explicit RecordingReceiver(NodeId node) : node_(node) {}
  void OnCallbackBroken(const Fid& fid) override { broken.push_back(fid); }
  NodeId callback_node() const override { return node_; }
  std::vector<Fid> broken;

 private:
  NodeId node_;
};

constexpr int kFids = 3;
constexpr int kHolders = 3;

TEST(LeasePropertyTest, MatchesBruteForceOracleUnderRandomInterleavings) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  const SimTime kTerm = Seconds(30);
  const Fid fids[kFids] = {{1, 1, 1}, {1, 2, 2}, {2, 3, 3}};

  for (uint64_t iter = 0; iter < 150; ++iter) {
    Rng rng(0x1ea5e5ull * 2654435761u + iter);
    net::Topology topo(net::TopologyConfig{1, 1, kHolders});
    net::Network network(topo, cost);
    sim::Resource cpu("cpu");
    const NodeId server = topo.ServerNode(0, 0);

    // A random subset of holders is cut off for the whole run; reachability
    // is then a constant the oracle knows without reimplementing the
    // partition arithmetic.
    std::vector<std::unique_ptr<RecordingReceiver>> holders;
    bool reachable[kHolders];
    for (int h = 0; h < kHolders; ++h) {
      const NodeId node = topo.WorkstationNode(0, static_cast<uint32_t>(h));
      holders.push_back(std::make_unique<RecordingReceiver>(node));
      reachable[h] = !rng.Chance(0.4);
      if (!reachable[h]) network.AddPartition({{node}, 0, SimTime{1} << 60});
    }

    PromiseTable mgr;
    SimTime expiry[kFids][kHolders] = {};
    bool held[kFids][kHolders] = {};
    SimTime suspended = 0;
    // Op times sit on a 13ms + k*25ms grid, so the sub-millisecond CPU
    // charges inside Break never straddle a partition boundary.
    SimTime now = Millis(13);

    for (int op = 0; op < 120; ++op) {
      now += Millis(25) * rng.Range(1, 40);
      const int f = static_cast<int>(rng.Below(kFids));
      const int h = static_cast<int>(rng.Below(kHolders));

      switch (rng.Below(7)) {
        case 0: {  // grant: a lease, or a callback (open-ended)
          const SimTime until = rng.Chance(0.3) ? sim::kNeverSimTime : now + kTerm;
          const SimTime got = mgr.Grant(fids[f], holders[h].get(), now, until);
          const SimTime want = now < suspended ? 0 : until;
          ASSERT_EQ(got, want) << "iter=" << iter << " op=" << op;
          if (want != 0) {
            held[f][h] = true;
            expiry[f][h] = want;
          }
          break;
        }
        case 1: {  // batch renew of a random fid subset
          std::vector<Fid> ask;
          for (int i = 0; i < kFids; ++i) {
            if (rng.Chance(0.6)) ask.push_back(fids[i]);
          }
          const std::vector<Fid> rejected = mgr.Renew(holders[h].get(), ask, now, now + kTerm);
          std::vector<Fid> want_rejected;
          for (const Fid& fid : ask) {
            int i = 0;
            while (!(fids[i] == fid)) ++i;
            const bool live = now >= suspended && held[i][h] && expiry[i][h] > now;
            if (live) {
              expiry[i][h] = std::max(expiry[i][h], now + kTerm);  // never shortened
            } else {
              want_rejected.push_back(fid);
            }
          }
          ASSERT_EQ(rejected, want_rejected) << "iter=" << iter << " op=" << op;
          break;
        }
        case 2: {  // voluntary release
          mgr.Release(fids[f], holders[h].get());
          held[f][h] = false;
          break;
        }
        case 3: {  // break-on-mutate; h doubles as the (optional) writer
          const bool has_writer = rng.Chance(0.5);
          CallbackReceiver* writer = has_writer ? holders[h].get() : nullptr;
          size_t broken_before[kHolders];
          for (int i = 0; i < kHolders; ++i) broken_before[i] = holders[i]->broken.size();

          const SimTime safe =
              mgr.Break(fids[f], writer, now, server, &network, &cpu, cost).safe;

          SimTime want_safe = std::max(now, suspended);
          for (int i = 0; i < kHolders; ++i) {
            const bool is_writer = has_writer && i == h;
            const bool live = held[f][i] && expiry[f][i] > now;
            const bool notified = live && !is_writer && reachable[i];
            if (live && !is_writer && !reachable[i] && expiry[f][i] != sim::kNeverSimTime) {
              want_safe = std::max(want_safe, expiry[f][i]);
            }
            EXPECT_EQ(holders[i]->broken.size(), broken_before[i] + (notified ? 1u : 0u))
                << "iter=" << iter << " op=" << op << " holder=" << i;
            if (!is_writer) held[f][i] = false;  // table forgets all but the writer
          }
          ASSERT_EQ(safe, want_safe) << "iter=" << iter << " op=" << op;
          // Never blocks past the last possible expiry on the file.
          EXPECT_LE(safe, std::max(now, suspended) + kTerm);
          break;
        }
        case 4: {  // crash + restart: volatile table, one-term grant embargo
          mgr.Clear();
          mgr.SuspendGrantsUntil(now + kTerm);
          for (int i = 0; i < kFids; ++i) {
            for (int j = 0; j < kHolders; ++j) held[i][j] = false;
          }
          suspended = now + kTerm;
          break;
        }
        case 5: {  // volume break: every holder of every fid in f's volume
          const VolumeId volume = fids[f].volume;
          size_t broken_before[kHolders];
          for (int i = 0; i < kHolders; ++i) broken_before[i] = holders[i]->broken.size();

          const uint32_t sent = mgr.BreakVolume(volume, now, server, &network, &cpu, cost);

          uint32_t want_sent = 0;
          for (int i = 0; i < kHolders; ++i) {
            size_t notices = 0;
            for (int j = 0; j < kFids; ++j) {
              if (fids[j].volume != volume) continue;
              if (held[j][i] && expiry[j][i] > now && reachable[i]) notices += 1;
              held[j][i] = false;
            }
            EXPECT_EQ(holders[i]->broken.size(), broken_before[i] + notices)
                << "iter=" << iter << " op=" << op << " holder=" << i;
            want_sent += static_cast<uint32_t>(notices);
          }
          ASSERT_EQ(sent, want_sent) << "iter=" << iter << " op=" << op;
          break;
        }
        default: {  // holder disconnects: everything it had goes
          mgr.ReleaseAll(holders[h].get());
          for (int i = 0; i < kFids; ++i) held[i][h] = false;
          break;
        }
      }

      // The table's live view must match the oracle exactly...
      size_t live = 0;
      size_t callbacks = 0;
      for (int i = 0; i < kFids; ++i) {
        for (int j = 0; j < kHolders; ++j) {
          const bool want = held[i][j] && expiry[i][j] > now;
          ASSERT_EQ(mgr.HasPromise(fids[i], holders[j].get(), now), want)
              << "iter=" << iter << " op=" << op << " fid=" << i << " holder=" << j;
          if (want) live += 1;
          if (want && expiry[i][j] == sim::kNeverSimTime) callbacks += 1;
        }
      }
      ASSERT_EQ(mgr.promise_count(now), live) << "iter=" << iter << " op=" << op;
      // ...and no lease may outlive its term.
      ASSERT_EQ(mgr.promise_count(now + kTerm), callbacks)
          << "iter=" << iter << " op=" << op;
    }
  }
}

// Directed edges the random walk hits only occasionally.

TEST(LeasePropertyTest, BreakDuringEmbargoWaitsOutUnknownPreCrashLeases) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Topology topo(net::TopologyConfig{1, 1, 1});
  net::Network network(topo, cost);
  sim::Resource cpu("cpu");

  PromiseTable mgr;
  RecordingReceiver r(topo.WorkstationNode(0, 0));
  ASSERT_GT(mgr.Grant({1, 1, 1}, &r, Seconds(1), Seconds(31)), 0);

  // Crash at t=10s: the table is gone, but the t=1s lease is live somewhere
  // until t=31s. A mutation at t=12s must not complete before the embargo
  // ends — the restarted server cannot know which leases it forgot.
  mgr.Clear();
  mgr.SuspendGrantsUntil(Seconds(10) + Seconds(30));
  const SimTime safe =
      mgr.Break({1, 1, 1}, nullptr, Seconds(12), topo.ServerNode(0, 0), &network, &cpu, cost)
          .safe;
  EXPECT_EQ(safe, Seconds(40));
  EXPECT_EQ(mgr.Grant({1, 1, 1}, &r, Seconds(39), Seconds(69)), 0);  // still embargoed
  EXPECT_EQ(mgr.Grant({1, 1, 1}, &r, Seconds(40), Seconds(70)), Seconds(70));
}

TEST(LeasePropertyTest, WriterKeepsItsOriginalExpiryAcrossItsOwnBreak) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  net::Network network(topo, cost);
  sim::Resource cpu("cpu");

  PromiseTable mgr;
  RecordingReceiver writer(topo.WorkstationNode(0, 0));
  RecordingReceiver other(topo.WorkstationNode(0, 1));
  const Fid f{1, 2, 3};
  ASSERT_EQ(mgr.Grant(f, &writer, Seconds(1), Seconds(31)), Seconds(31));
  ASSERT_EQ(mgr.Grant(f, &other, Seconds(2), Seconds(32)), Seconds(32));

  const SimTime safe =
      mgr.Break(f, &writer, Seconds(3), topo.ServerNode(0, 0), &network, &cpu, cost).safe;
  EXPECT_EQ(safe, Seconds(3));  // everyone reachable: no wait
  EXPECT_EQ(other.broken.size(), 1u);
  EXPECT_TRUE(writer.broken.empty());
  // The writer's lease survives with its ORIGINAL horizon, not a refresh.
  EXPECT_TRUE(mgr.HasPromise(f, &writer, Seconds(30)));
  EXPECT_FALSE(mgr.HasPromise(f, &writer, Seconds(31)));
  EXPECT_FALSE(mgr.HasPromise(f, &other, Seconds(3)));
}

}  // namespace
}  // namespace itc::vice

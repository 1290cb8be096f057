// The server's promise table: callbacks and leases (Section 3.2).
//
// "Experience with a prototype has convinced us that the cost of frequent
//  cache validation is high enough to warrant the additional complexity of
//  an invalidate-on-modification approach in our next implementation."
//  (Section 3.2)
//
// The server remembers, per fid, which Venus instances hold cached copies
// and promises to notify each of them before the file changes. A lease
// (Gray & Cheriton [Gray89]) is the same promise with an expiry date, so the
// table keeps one expiry per (fid, holder): a callback is a grant that runs
// to kNeverSimTime, a lease one that runs for one term. The schemes differ
// in the expiries they store, not in the code that keeps them:
//
//   * Break (before a mutation commits) notifies every live holder except
//     the writer, charging one LWP switch of server CPU and one small
//     message per holder, so the validation-scheme ablation
//     (bench_validation_schemes) measures real traffic. A holder the
//     partitioned network cannot reach is not told. If its promise expires,
//     the mutation is held back until it has (never past `at` + one term);
//     an open-ended promise cannot be waited out, so its notification is
//     counted lost and the holder keeps trusting a stale copy: the
//     staleness hole leases close.
//   * The table is volatile ("callback state is volatile"): a crash clears
//     it. A restarted lease server refuses grants and renewals for one term
//     (the embargo), after which every promise it forgot has expired; no
//     re-establishment traffic is needed. A callback server sets no embargo;
//     its clients notice the restart through the epoch probe instead.

#ifndef SRC_VICE_PROMISE_TABLE_H_
#define SRC_VICE_PROMISE_TABLE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/fid.h"
#include "src/common/types.h"
#include "src/net/network.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"

namespace itc::vice {

// Implemented by Venus: receives invalidations. The receiver's node id
// determines network cost of the notification.
class CallbackReceiver {
 public:
  virtual ~CallbackReceiver() = default;
  virtual void OnCallbackBroken(const Fid& fid) = 0;
  virtual NodeId callback_node() const = 0;
};

struct PromiseStats {
  uint64_t granted = 0;     // grants handed out, new or re-extended
  uint64_t renewed = 0;     // individual fids extended by Renew
  uint64_t rejected = 0;    // renewal attempts on expired/unknown promises
  uint64_t broken = 0;      // break notifications sent
  uint64_t break_events = 0;  // breaks that sent at least one notification
  uint64_t lost = 0;        // notifications a partition ate
  uint64_t waited_out = 0;  // of those, expiring promises a mutation waited out
  uint64_t refused = 0;     // grants refused during the post-restart embargo
};

struct BreakResult {
  uint32_t sent = 0;  // notifications sent
  // The earliest time the mutation may complete: `at`, or later while the
  // embargo runs or an unreachable holder's promise is still live.
  SimTime safe = 0;
};

class PromiseTable {
 public:
  // Promises `who` notice of changes to `fid` until `expiry` (kNeverSimTime
  // for a callback), replacing any earlier promise. Returns the expiry, or 0
  // under the embargo (the holder then has no promise and must keep
  // checking on open).
  SimTime Grant(const Fid& fid, CallbackReceiver* who, SimTime now, SimTime expiry);

  // Batch renewal: extends every listed fid the holder still holds a live
  // promise on to `expiry` (never shortening one). Expired or never-granted
  // fids are returned in `rejected`; the holder must revalidate those.
  // Under the embargo everything is rejected.
  std::vector<Fid> Renew(CallbackReceiver* who, const std::vector<Fid>& fids, SimTime now,
                         SimTime expiry);

  // Voluntary release (cache eviction), and release of everything a holder
  // had (disconnect / cache flush).
  void Release(const Fid& fid, CallbackReceiver* who);
  void ReleaseAll(CallbackReceiver* who);

  // Drops every promise without notifying anyone: the server crashed. Stats
  // survive; they count lifetime activity, not live promises.
  void Clear() { promises_.clear(); }
  // Restart embargo: refuse all grants and renewals until `until`.
  void SuspendGrantsUntil(SimTime until) { suspended_until_ = until; }
  SimTime suspended_until() const { return suspended_until_; }

  // Break-on-mutate for `fid`. Notifies every live holder except the writer
  // `except`; afterwards the table forgets the file, except the writer's
  // own promise, which keeps its expiry.
  BreakResult Break(const Fid& fid, CallbackReceiver* except, SimTime at, NodeId server_node,
                    net::Network* network, sim::Resource* server_cpu,
                    const sim::CostModel& cost);

  // Breaks every promise on fids of `volume` (the volume goes offline or
  // moves between servers, or an administrator changed it in place). Nobody
  // is waited out and nobody keeps a promise. Returns notifications sent.
  uint32_t BreakVolume(VolumeId volume, SimTime at, NodeId server_node,
                       net::Network* network, sim::Resource* server_cpu,
                       const sim::CostModel& cost);

  // A promise is live when it has not expired at `now`.
  bool HasPromise(const Fid& fid, const CallbackReceiver* who, SimTime now) const;
  // Live promises across the table at `now` (expired rows not yet
  // garbage-collected do not count).
  size_t promise_count(SimTime now) const;

  const PromiseStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PromiseStats{}; }

 private:
  // Tells `holder` that `fid` changed: one LWP switch of CPU from `*t`, then
  // a small message. Returns false, counting the notification lost, when the
  // holder cannot be reached.
  bool Notify(const Fid& fid, CallbackReceiver* holder, SimTime* t, NodeId server_node,
              net::Network* network, sim::Resource* server_cpu, const sim::CostModel& cost);

  SimTime suspended_until_ = 0;
  // fid -> holder -> expiry. The std::map on the holder pointer fixes the
  // order breaks notify holders in.
  std::unordered_map<Fid, std::map<CallbackReceiver*, SimTime>, FidHash> promises_;
  PromiseStats stats_;
};

}  // namespace itc::vice

#endif  // SRC_VICE_PROMISE_TABLE_H_

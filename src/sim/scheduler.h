// Multi-client scheduler: a thin shim over the event kernel.
//
// Simulated clients interact only through FCFS resources (server CPU, disks,
// LAN segments). In the default event-driven mode each process runs as a
// sim::Kernel activity: before every Step() the activity waits until global
// virtual time reaches the process's clock, and inside a Step() every
// resource demand (sim::Charge) and stage boundary (sim::AlignTo) is a
// suspension point. Demands therefore reach every resource in global arrival
// order — a fetch can hold the LAN, queue at the server CPU behind another
// client's store, then wait on the disk, all interleaved exactly.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <vector>

#include "src/common/ownership.h"
#include "src/common/types.h"
#include "src/sim/kernel.h"

namespace itc::sim {

// One simulated actor (e.g. a workstation running a workload script).
class Process {
 public:
  virtual ~Process() = default;

  // Current virtual time of this actor.
  virtual SimTime now() const = 0;
  // True when the actor has no more work.
  virtual bool done() const = 0;
  // Executes the next operation, advancing now(). Under the event kernel
  // this runs inside an activity, so it may suspend at every Charge/AlignTo.
  virtual void Step() = 0;
};

enum class SchedulerMode {
  // Default: processes are kernel activities; resources see demands in
  // global arrival order.
  kEventDriven,
  // Sharded multi-kernel mode (src/sim/kernel_group.h): processes run as
  // activities of the kernel owning their domain's shard, one OS thread per
  // shard, synchronized conservatively at the backbone lookahead. Requires
  // every process to be Add()ed with its domain (cluster) id and a
  // lookahead from the network cost model. kEventDriven remains the
  // bit-identical single-kernel reference for intra-cluster activity.
  kSharded,
};

class Scheduler {
 public:
  void Add(Process* p) { Add(p, /*domain=*/0); }
  // Registers `p` on simulation domain (cluster) `domain`; the domain
  // decides shard placement under kSharded and is ignored otherwise.
  void Add(Process* p, uint32_t domain) {
    processes_.push_back(p);
    domains_.push_back(domain);
  }

  void set_mode(SchedulerMode mode) { mode_ = mode; }
  SchedulerMode mode() const { return mode_; }

  // Selects how the kernel parks and resumes activities (event-driven and
  // sharded modes). Affects wall-clock throughput, never simulated results.
  void set_backend(KernelBackend backend) { backend_ = backend; }
  KernelBackend backend() const { return backend_; }

  // kSharded tuning. shard_count 0 (default) means one shard per domain,
  // clamped by the ITCFS_SHARDS environment variable (DefaultShardCount).
  // The lookahead must be the minimum virtual-time cost of a cross-domain
  // message (sim::CostModel::BackboneLookahead() for the campus network);
  // shard placement and shard count can never change simulated results.
  void set_shard_count(uint32_t n) { shard_count_ = n; }
  void set_lookahead(SimTime lookahead) { lookahead_ = lookahead; }
  // Shards the most recent kSharded run actually used.
  uint32_t shards_used() const { return shards_used_; }
  // Per-shard traces of the most recent kSharded run (EnableTrace first).
  ITC_KERNEL_QUIESCENT const std::vector<std::vector<TraceEntry>>& shard_traces() const {
    return shard_traces_;
  }

  // Records the kernel's event trace during the next run (event-driven mode
  // only) into a ring of `capacity` entries; used by the determinism and
  // backend-equivalence tests.
  void EnableTrace(size_t capacity = Kernel::kDefaultTraceCapacity) {
    trace_enabled_ = true;
    trace_capacity_ = capacity;
  }
  ITC_KERNEL_QUIESCENT const std::vector<TraceEntry>& trace() const { return trace_; }

  // Events the kernel dispatched during the most recent run (event-driven
  // mode only); the throughput bench divides this by wall-clock time.
  ITC_KERNEL_QUIESCENT uint64_t last_events() const { return last_events_; }

  // Runs until every process is done. Returns the max final virtual time.
  ITC_KERNEL_ENTRY SimTime RunAll();

  // Runs until every process is done or has now() >= horizon.
  // Returns the latest virtual time reached (capped at horizon for
  // still-running processes).
  ITC_KERNEL_ENTRY SimTime RunUntil(SimTime horizon);

 private:
  SimTime RunEventDriven(SimTime horizon);
  SimTime RunSharded(SimTime horizon);

  std::vector<Process*> processes_;
  std::vector<uint32_t> domains_;  // parallel to processes_
  SchedulerMode mode_ = SchedulerMode::kEventDriven;
  KernelBackend backend_ = DefaultKernelBackend();
  uint32_t shard_count_ = 0;  // 0: one per domain, clamped by ITCFS_SHARDS
  SimTime lookahead_ = 0;     // required for kSharded
  uint32_t shards_used_ = 0;
  bool trace_enabled_ = false;
  size_t trace_capacity_ = Kernel::kDefaultTraceCapacity;
  ITC_OWNED_BY_KERNEL std::vector<TraceEntry> trace_;
  ITC_OWNED_BY_KERNEL std::vector<std::vector<TraceEntry>> shard_traces_;
  ITC_OWNED_BY_KERNEL uint64_t last_events_ = 0;
};

}  // namespace itc::sim

#endif  // SRC_SIM_SCHEDULER_H_

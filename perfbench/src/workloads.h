// The benchmark's three workloads and one measured iteration of each.
//
// An iteration builds a campus through the public set-up entry points
// (Campus, workload::Populate*), runs one simulated day under a
// sim::Scheduler with the benchmark's own processes, checks every output it
// can, and turns the campus's counters into named metrics. The program is
// only ever driven through Virtue workstation calls and
// workload::RunBenchmark5, so every interaction is timed at the Virtue
// boundary on both clocks.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/spans.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint32_t clusters = 1;
  uint32_t per_cluster = 1;
  // Part of the workload's definition: RpcConfig::encrypt also gates the
  // simulated crypto CPU charge, so it changes simulated results.
  bool encrypt = false;
  // Runs on the kernel group, one domain per cluster, with the system and
  // root volumes released read-only at every server so that a cluster's
  // traffic never crosses the backbone.
  bool sharded = false;
  // Workstation w runs the five-phase benchmark when w % andrew_every == 0;
  // every other workstation runs the 1985 user-day mix.
  uint32_t andrew_every = 1;
  uint32_t day_ops = 0;  // operations per user-day workstation
  itc::SimTime mean_think = itc::Seconds(12);
};

// campus_day, andrew_load or sharded_day.
std::optional<WorkloadSpec> SpecFor(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;     // "host", "sim" or "count"
  uint64_t samples = 0;  // samples behind a percentile, median or mean; 0 otherwise
  bool end_to_end = false;
  bool traced_only = false;  // measured in traced runs only (spans, cipher timing)
  // A percentile with fewer than ten samples beyond it (see TailPercentile).
  bool thin_tail = false;
};

struct IterationResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;  // Virtue interactions (RunBenchmark5 counts as one)
  uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check failures, first few
  std::string digest;               // simulated results only
  std::string summary;              // one line of simulated results
  std::string backend;
  uint32_t shards = 1;
  std::vector<Span> spans;  // traced iterations only
  uint64_t spans_dropped = 0;
};

// Runs one iteration. `traced` records spans and adds the span-derived
// per-layer metrics; it must not change any simulated result.
IterationResult RunIteration(const WorkloadSpec& spec, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

// Host-side measurements: the wall clock, OS context switches, peak RSS and
// the facts about the host and build that every result carries.
//
// Everything in the benchmark that reads host time goes through this file,
// so the simulator's determinism lint has exactly one place to sanction.

#ifndef PERFBENCH_SRC_HOST_CLOCK_H_
#define PERFBENCH_SRC_HOST_CLOCK_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Monotonic host time in nanoseconds.
int64_t HostNowNs();

// CPU time of the whole process (all threads, user + system) so far.
int64_t ProcessCpuNs();

// Voluntary + involuntary context switches of the whole process so far.
int64_t OsContextSwitches();

// Clears the peak-RSS high-water mark (Linux clear_refs) and reads it back.
void ResetPeakRss();
int64_t PeakRssKb();

// Host and build facts, for the result header.
struct HostFacts {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
};
HostFacts ReadHostFacts();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_CLOCK_H_

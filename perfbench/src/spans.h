// Host/simulated-time spans recorded around the benchmark's own calls into
// the program, and the analyses run over them once the run has ended.
//
// Spans are written into per-thread buffers preallocated on a thread's first
// span, so recording takes no lock and never allocates after that; a full
// buffer drops spans and counts them. Nothing here touches simulated state:
// a span only reads the host clock and a workstation clock.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kSetup,
  kCampusBuild,
  kRootVolume,
  kAddUser,
  kPopulate,
  kLogin,
  kRelease,
  kRunAll,
  kStep,
  kStat,
  kReadDir,
  kRead,
  kWrite,
  kTmp,
  kAndrew,
};
std::string_view SpanName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  SpanKind kind = SpanKind::kSetup;
  uint32_t thread = 0;  // index of the host thread that closed the span
  int64_t host_begin_ns = 0;
  int64_t host_end_ns = 0;
  itc::SimTime sim_begin = 0;
  itc::SimTime sim_end = 0;

  int64_t host_ns() const { return host_end_ns - host_begin_ns; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t per_thread_capacity);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Appends to the calling thread's buffer (sets span.thread).
  void Record(Span span);

  // Call only after every recording thread has finished.
  std::vector<Span> Collect() const;
  uint64_t dropped() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    uint32_t thread = 0;
    uint64_t dropped = 0;
  };
  Buffer& Local();

  const size_t capacity_;
  const uint64_t generation_;  // tells this recorder's thread slots from a prior one's
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// Opens a span on construction and records it on Close(); a null recorder
// makes both free.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind, uint64_t parent, itc::SimTime sim_now);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }
  void Close(itc::SimTime sim_now);

 private:
  SpanRecorder* recorder_;
  Span span_;
};

// Total length of the union of half-open [begin, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

// Self time of every span (aligned with `spans`): its host duration minus
// the part of that interval its children cover. Children may run on other
// threads and overlap each other; overlapping coverage counts once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Thread-seconds spent inside at least one span of `kind`: per thread, the
// union of those spans' intervals, summed over threads (ns).
int64_t ThreadUnionNs(const std::vector<Span>& spans, SpanKind kind);

// Splits each thread's time among the leaf spans open on it: an instant with
// k open leaves gives each 1/k. Returns per-span attributed ns (aligned with
// `spans`, 0 for non-leaves). Under the fiber kernel several activities'
// calls are open on one thread at once, so a call's own duration includes
// the others' work; this share sums to the thread time inside calls.
std::vector<double> SharedLeafTimes(const std::vector<Span>& spans,
                                    const std::vector<bool>& is_leaf);

// Writes spans as Chrome trace-event JSON ("X" events) with each span's
// self time in its args, at most `max_events` of them (earliest first).
// Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_

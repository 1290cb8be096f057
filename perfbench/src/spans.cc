#include "src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/host_clock.h"

namespace perfbench {

namespace {
std::atomic<uint64_t> g_recorder_generation{1};
}  // namespace

std::string_view SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kCampusBuild: return "campus.build";
    case SpanKind::kRootVolume: return "campus.volumes";
    case SpanKind::kAddUser: return "campus.add_user";
    case SpanKind::kPopulate: return "workload.populate";
    case SpanKind::kLogin: return "virtue.login";
    case SpanKind::kRelease: return "campus.release_ro";
    case SpanKind::kRunAll: return "sim.run_all";
    case SpanKind::kStep: return "sim.step";
    case SpanKind::kStat: return "virtue.stat";
    case SpanKind::kReadDir: return "virtue.readdir";
    case SpanKind::kRead: return "virtue.read";
    case SpanKind::kWrite: return "virtue.write";
    case SpanKind::kTmp: return "virtue.tmp";
    case SpanKind::kAndrew: return "andrew.run";
  }
  return "?";
}

SpanRecorder::SpanRecorder(size_t per_thread_capacity)
    : capacity_(per_thread_capacity), generation_(g_recorder_generation.fetch_add(1)) {}

SpanRecorder::Buffer& SpanRecorder::Local() {
  thread_local uint64_t tl_generation = 0;
  thread_local Buffer* tl_buffer = nullptr;
  if (tl_generation == generation_) return *tl_buffer;
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<Buffer>();
  buffer->spans.reserve(capacity_);
  buffer->thread = static_cast<uint32_t>(buffers_.size());
  tl_buffer = buffer.get();
  tl_generation = generation_;
  buffers_.push_back(std::move(buffer));
  return *tl_buffer;
}

void SpanRecorder::Record(Span span) {
  Buffer& buffer = Local();
  if (buffer.spans.size() >= capacity_) {
    buffer.dropped += 1;
    return;
  }
  span.thread = buffer.thread;
  buffer.spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->dropped;
  return n;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, SpanKind kind, uint64_t parent,
                       itc::SimTime sim_now)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NextId();
  span_.parent = parent;
  span_.kind = kind;
  span_.sim_begin = sim_now;
  span_.host_begin_ns = HostNowNs();
}

void ScopedSpan::Close(itc::SimTime sim_now) {
  if (recorder_ == nullptr) return;
  span_.host_end_ns = HostNowNs();
  span_.sim_end = sim_now;
  recorder_->Record(span_);
  recorder_ = nullptr;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_begin = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (!open || b > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const int64_t b = std::max(s.host_begin_ns, p.host_begin_ns);
    const int64_t e = std::min(s.host_end_ns, p.host_end_ns);
    if (e > b) covered[it->second].emplace_back(b, e);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].host_ns() - UnionLength(std::move(covered[i]));
  }
  return self;
}

int64_t ThreadUnionNs(const std::vector<Span>& spans, SpanKind kind) {
  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> per_thread;
  for (const Span& s : spans) {
    if (s.kind == kind) per_thread[s.thread].emplace_back(s.host_begin_ns, s.host_end_ns);
  }
  int64_t total = 0;
  for (auto& [thread, intervals] : per_thread) total += UnionLength(std::move(intervals));
  return total;
}

std::vector<double> SharedLeafTimes(const std::vector<Span>& spans,
                                    const std::vector<bool>& is_leaf) {
  // Per thread, sweep the leaf boundaries in time order keeping
  // share(t) = integral of 1/open(t); a leaf's attribution is
  // share(end) - share(begin).
  struct Edge {
    int64_t t;
    int delta;  // +1 open, -1 close
    size_t span;
  };
  std::unordered_map<uint32_t, std::vector<Edge>> per_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!is_leaf[i] || spans[i].host_end_ns <= spans[i].host_begin_ns) continue;
    per_thread[spans[i].thread].push_back({spans[i].host_begin_ns, +1, i});
    per_thread[spans[i].thread].push_back({spans[i].host_end_ns, -1, i});
  }
  std::vector<double> out(spans.size(), 0.0);
  for (auto& [thread, edges] : per_thread) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.t != b.t ? a.t < b.t : a.delta < b.delta;  // closes before opens
    });
    double share = 0.0;
    int open = 0;
    int64_t last = edges.empty() ? 0 : edges.front().t;
    for (const Edge& e : edges) {
      if (open > 0) share += static_cast<double>(e.t - last) / open;
      last = e.t;
      if (e.delta > 0) {
        out[e.span] -= share;
        open += 1;
      } else {
        out[e.span] += share;
        open -= 1;
      }
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return a->host_begin_ns != b->host_begin_ns ? a->host_begin_ns < b->host_begin_ns
                                                : a->id < b->id;
  });
  const size_t n = std::min(order.size(), max_events);
  const int64_t origin = order.empty() ? 0 : order.front()->host_begin_ns;
  const std::vector<int64_t> self = SelfTimes(spans);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"spans\": %zu, "
               "\"written\": %zu}, \"traceEvents\": [\n", order.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = *order[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"self_us\": %.3f, \"sim_begin_us\": %lld, \"sim_end_us\": %lld}}%s\n",
                 std::string(SpanName(s.kind)).c_str(), s.thread,
                 static_cast<double>(s.host_begin_ns - origin) / 1e3,
                 static_cast<double>(s.host_ns()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<double>(self[static_cast<size_t>(order[i] - spans.data())]) / 1e3,
                 static_cast<long long>(s.sim_begin), static_cast<long long>(s.sim_end),
                 i + 1 != n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

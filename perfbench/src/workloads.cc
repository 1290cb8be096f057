#include "src/workloads.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/campus/campus.h"
#include "src/common/content.h"
#include "src/common/path.h"
#include "src/common/rng.h"
#include "src/crypto/cbc.h"
#include "src/host_clock.h"
#include "src/sim/scheduler.h"
#include "src/stats.h"
#include "src/workload/benchmark5.h"
#include "src/workload/file_classes.h"
#include "src/workload/populate.h"
#include "src/workload/source_tree.h"
#include "src/workload/synthetic_user.h"
#include "src/workload/zipf.h"

namespace perfbench {

using itc::Bytes;
using itc::SimTime;
using itc::Status;
namespace content = itc::content;
namespace workload = itc::workload;

std::optional<WorkloadSpec> SpecFor(std::string_view name) {
  WorkloadSpec s;
  s.name = std::string(name);
  if (name == "campus_day") {
    // The reference day: N=1,000 on one kernel, read-dominated 1985 mix.
    s.clusters = 40;
    s.per_cluster = 25;
    s.andrew_every = 100;
    s.day_ops = 8;
    return s;
  }
  if (name == "andrew_load") {
    // Section 5.2's load unit at the paper's 20:1 ratio, encrypted (3.4).
    s.clusters = 5;
    s.per_cluster = 20;
    s.encrypt = true;
    s.andrew_every = 1;
    return s;
  }
  if (name == "sharded_day") {
    // Dense, cluster-local day on the kernel group.
    s.clusters = 8;
    s.per_cluster = 25;
    s.sharded = true;
    s.andrew_every = 25;
    s.day_ops = 60;
    s.mean_think = itc::Seconds(2);
    return s;
  }
  return std::nullopt;
}

namespace {

constexpr size_t kSpanCapacityPerThread = size_t{1} << 17;
constexpr SimTime kPeakWindow = itc::Seconds(300);  // peak utilization over 5 minutes
constexpr size_t kMaxErrors = 8;
constexpr std::pair<SpanKind, const char*> kVirtueOps[] = {
    {SpanKind::kStat, "stat"},
    {SpanKind::kReadDir, "readdir"},
    {SpanKind::kRead, "read"},
    {SpanKind::kWrite, "write"},
    {SpanKind::kTmp, "tmp"}};
// The campus's environment -- the shared system binaries and the sizes of
// the day users' home files -- is the same for every seed, as one campus's
// software would be; the seed draws what users do: their days, source trees
// and start times. A shared binary's size moves every workstation's result
// at once, so a seeded environment made seeds disagree by up to 40%.
constexpr uint64_t kEnvironmentSeed = 1985;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("set-up failed: " + what);
}

// True when `got` is `expected` with `appended` newlines added by edits.
// Checks the length and both ends, which catches a wrong file, a short read
// or a lost edit without materializing every expected byte.
bool Matches(const Bytes& got, const content::Ref& expected, uint32_t appended) {
  if (got.size() != expected.size() + appended) return false;
  const uint64_t head = std::min<uint64_t>(8, expected.size());
  const Bytes first = expected.Slice(0, head);
  if (!std::equal(first.begin(), first.end(), got.begin())) return false;
  if (appended > 0) return got.back() == '\n';
  const Bytes last = expected.Slice(expected.size() - head, head);
  return std::equal(last.begin(), last.end(), got.end() - static_cast<long>(head));
}

struct Sample {
  SpanKind kind;
  SimTime latency;
};

// Shared by both process kinds: a workstation, the interactions it issued
// and their outcomes.
class BenchProcess : public itc::sim::Process {
 public:
  BenchProcess(itc::virtue::Workstation* ws, SpanRecorder* recorder)
      : ws_(ws), recorder_(recorder) {}

  SimTime now() const override { return ws_->clock().now(); }
  void set_run_span(uint64_t id) { run_span_ = id; }

  const std::vector<Sample>& samples() const { return samples_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

  void Step() final {
    ScopedSpan step(recorder_, SpanKind::kStep, run_span_, now());
    step_span_ = step.id();
    DoStep();
    step.Close(now());
  }

 protected:
  virtual void DoStep() = 0;

  // Issues one Virtue interaction: `op` returns false when the call failed
  // or its output did not check out.
  template <typename Op>
  void Interact(SpanKind kind, Op&& op) {
    ScopedSpan span(recorder_, kind, step_span_, now());
    const SimTime t0 = now();
    const bool ok = op();
    const SimTime t1 = now();
    span.Close(t1);
    samples_.push_back({kind, t1 - t0});
    attempted_ += 1;
    if (!ok) failed_ += 1;
  }

  bool Fail(const std::string& what) {
    if (errors_.size() < kMaxErrors) errors_.push_back(what);
    return false;
  }

  itc::virtue::Workstation* ws_;

 private:
  SpanRecorder* recorder_;
  uint64_t run_span_ = 0;
  uint64_t step_span_ = 0;
  std::vector<Sample> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// The 1985 user-day mix (workload::UserDayConfig defaults), issued through
// Workstation calls so each interaction can be timed and checked.
class DayUser final : public BenchProcess {
 public:
  DayUser(itc::virtue::Workstation* ws, SpanRecorder* recorder, std::string home,
          workload::UserDayConfig config, std::vector<content::Ref> own,
          const std::vector<content::Ref>* system, uint64_t seed)
      : BenchProcess(ws, recorder),
        home_(std::move(home)),
        config_(config),
        own_(std::move(own)),
        edits_(own_.size(), 0),
        system_(system),
        rng_(seed),
        own_pop_(config.own_files, config.zipf_theta),
        system_pop_(config.system_files, config.zipf_theta) {}

  bool done() const override { return ops_done_ >= config_.operations; }

 private:
  void DoStep() override {
    if (thinking_) {
      if (burst_remaining_ == 0 && rng_.Chance(config_.burst_probability)) {
        burst_remaining_ = config_.burst_length;
      }
      SimTime mean = config_.mean_think;
      if (burst_remaining_ > 0) {
        mean = config_.burst_think;
        burst_remaining_ -= 1;
      }
      const double u = rng_.NextDouble();
      ws_->clock().Advance(static_cast<SimTime>(-static_cast<double>(mean) * std::log(1.0 - u)));
      thinking_ = false;
      return;
    }
    DoOne();
    thinking_ = true;
    ops_done_ += 1;
  }

  std::string OwnPath(uint32_t i) const {
    return itc::PathConcat(home_, workload::SyntheticUser::OwnFileName(i));
  }
  static std::string SystemPath(uint32_t i) {
    return itc::PathConcat("/bin", workload::SyntheticUser::SystemFileName(i));
  }

  bool ReadOwn(uint32_t i, Bytes* out) {
    auto data = ws_->ReadWholeFile(OwnPath(i));
    if (!data.ok()) return Fail("read " + OwnPath(i) + " failed");
    if (!Matches(*data, own_[i], edits_[i])) return Fail("read " + OwnPath(i) + ": wrong bytes");
    if (out != nullptr) *out = std::move(*data);
    return true;
  }

  void DoOne() {
    const auto& c = config_;
    const double total =
        c.p_stat + c.p_list + c.p_read_own + c.p_read_system + c.p_write_own + c.p_tmp;
    double pick = rng_.NextDouble() * total;

    if ((pick -= c.p_stat) < 0) {
      const bool own = rng_.Chance(0.6);
      const uint32_t i = own ? own_pop_.Sample(rng_) : system_pop_.Sample(rng_);
      const std::string path = own ? OwnPath(i) : SystemPath(i);
      const uint64_t want = own ? own_[i].size() + edits_[i] : (*system_)[i].size();
      Interact(SpanKind::kStat, [&] {
        auto info = ws_->Stat(path);
        if (!info.ok()) return Fail("stat " + path + " failed");
        return info->size == want || Fail("stat " + path + ": wrong size");
      });
      return;
    }
    if ((pick -= c.p_list) < 0) {
      const bool own = rng_.Chance(0.5);
      const std::string dir = own ? home_ : "/bin";
      const size_t want = own ? own_.size() : system_->size();
      Interact(SpanKind::kReadDir, [&] {
        auto names = ws_->ReadDir(dir);
        if (!names.ok()) return Fail("readdir " + dir + " failed");
        return names->size() == want || Fail("readdir " + dir + ": wrong entry count");
      });
      return;
    }
    if ((pick -= c.p_read_own) < 0) {
      const uint32_t i = own_pop_.Sample(rng_);
      Interact(SpanKind::kRead, [&] { return ReadOwn(i, nullptr); });
      return;
    }
    if ((pick -= c.p_read_system) < 0) {
      const uint32_t i = system_pop_.Sample(rng_);
      Interact(SpanKind::kRead, [&] {
        auto data = ws_->ReadWholeFile(SystemPath(i));
        if (!data.ok()) return Fail("read " + SystemPath(i) + " failed");
        return Matches(*data, (*system_)[i], 0) || Fail("read " + SystemPath(i) + ": wrong bytes");
      });
      return;
    }
    if ((pick -= c.p_write_own) < 0) {
      // Edit cycle: read, append a line, write the whole file back.
      const uint32_t i = own_pop_.Sample(rng_);
      Bytes data;
      bool read_ok = false;
      Interact(SpanKind::kRead, [&] { return read_ok = ReadOwn(i, &data); });
      if (!read_ok) return;
      data.push_back('\n');
      Interact(SpanKind::kWrite, [&] {
        if (ws_->WriteWholeFile(OwnPath(i), data) != Status::kOk) {
          return Fail("write " + OwnPath(i) + " failed");
        }
        edits_[i] += 1;
        return true;
      });
      return;
    }
    // Scratch cycle in local /tmp: write, read back once, delete.
    const std::string tmp = "/tmp/t" + std::to_string(tmp_counter_++ % 8);
    const content::Ref scratch =
        content::Ref::ForSeed(rng_.NextU64(), 2048 + rng_.Below(6144));
    Interact(SpanKind::kTmp, [&] {
      const Bytes bytes = scratch.Materialize();
      if (ws_->WriteWholeFile(tmp, bytes) != Status::kOk) return Fail("write " + tmp + " failed");
      auto back = ws_->ReadWholeFile(tmp);
      if (!back.ok() || *back != bytes) return Fail("read " + tmp + ": wrong bytes");
      return ws_->Unlink(tmp) == Status::kOk || Fail("unlink " + tmp + " failed");
    });
  }

  std::string home_;
  workload::UserDayConfig config_;
  std::vector<content::Ref> own_;
  std::vector<uint32_t> edits_;  // newlines appended to each own file
  const std::vector<content::Ref>* system_;
  itc::Rng rng_;
  workload::ZipfSampler own_pop_;
  workload::ZipfSampler system_pop_;
  uint32_t ops_done_ = 0;
  uint32_t tmp_counter_ = 0;
  bool thinking_ = true;
  uint32_t burst_remaining_ = 0;
};

// One five-phase benchmark (Section 5.2) against the user's own home
// volume, after a seeded start delay, followed by a pass that stats and
// reads back every copied file and checks its bytes against the source.
class AndrewUser final : public BenchProcess {
 public:
  AndrewUser(itc::virtue::Workstation* ws, SpanRecorder* recorder, std::string home,
             workload::SourceTreeSpec tree, std::vector<content::Ref> sources,
             SimTime start_delay)
      : BenchProcess(ws, recorder),
        home_(std::move(home)),
        tree_(std::move(tree)),
        sources_(std::move(sources)),
        start_delay_(start_delay) {}

  bool done() const override { return stage_ == 3; }
  const std::optional<workload::Benchmark5Result>& result() const { return result_; }

 private:
  std::string Target(const std::string& rel) const {
    return itc::PathConcat(home_ + "/target", rel);
  }

  void DoStep() override {
    switch (stage_) {
      case 0:
        ws_->clock().Advance(start_delay_);
        break;
      case 1:
        Interact(SpanKind::kAndrew, [&] {
          auto r = workload::RunBenchmark5(*ws_, home_ + "/src", home_ + "/target", tree_);
          if (!r.ok()) return Fail("RunBenchmark5 on " + home_ + " failed");
          result_ = *r;
          return true;
        });
        break;
      case 2:
        if (result_.has_value()) Verify();
        break;
    }
    stage_ += 1;
  }

  void Verify() {
    for (size_t i = 0; i < tree_.files.size(); ++i) {
      const std::string path = Target(tree_.files[i].relative_path);
      const content::Ref& want = sources_[i];
      Interact(SpanKind::kStat, [&] {
        auto info = ws_->Stat(path);
        if (!info.ok()) return Fail("stat " + path + " failed");
        return info->size == want.size() || Fail("stat " + path + ": wrong size");
      });
      Interact(SpanKind::kRead, [&] {
        auto data = ws_->ReadWholeFile(path);
        if (!data.ok()) return Fail("read " + path + " failed");
        return *data == want.Materialize() || Fail("copy " + path + ": wrong bytes");
      });
    }
    Interact(SpanKind::kStat, [&] {
      auto info = ws_->Stat(Target("a.out"));
      return (info.ok() && info->size > 0) || Fail("no linked a.out under " + home_);
    });
  }

  std::string home_;
  workload::SourceTreeSpec tree_;
  std::vector<content::Ref> sources_;
  SimTime start_delay_;
  int stage_ = 0;
  std::optional<workload::Benchmark5Result> result_;
};

class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit, std::string clock,
           uint64_t samples = 0) {
    if (!ValidMetricName(name)) throw std::logic_error("invalid metric name: " + name);
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), std::move(clock), samples,
                              end_to_end_, traced_only_, false});
  }
  // The `q` quantile of `values`, flagged when the sample count cannot
  // support it.
  void AddQuantile(std::string name, const std::vector<double>& values, double q,
                   std::string unit, std::string clock) {
    Add(std::move(name), Quantile(values, q), std::move(unit), std::move(clock), values.size());
    FlagTail(q);
  }
  void FlagTail(double q) {
    const std::optional<double> supported = TailPercentile(metrics_.back().samples);
    metrics_.back().thin_tail = !supported.has_value() || *supported < q;
  }
  void set_end_to_end(bool v) { end_to_end_ = v; }
  void set_traced_only(bool v) { traced_only_ = v; }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
  bool end_to_end_ = false;
  bool traced_only_ = false;
};

// Geometric mean: an average in log space, so neither the heavy tail nor the
// gap between cache hits and fetches moves it much.
double GeoMean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += std::log(std::max(x, 1e-3));
  return v.empty() ? 0.0 : std::exp(sum / static_cast<double>(v.size()));
}

double Ms(SimTime t) { return static_cast<double>(t) / 1e3; }
double Sec(SimTime t) { return static_cast<double>(t) / 1e6; }

// Host ns per byte of a seal + open round trip through the public cipher,
// on a buffer the benchmark owns (median of several passes).
double CryptoNsPerByte() {
  constexpr size_t kBytes = 16 * 1024;
  const Bytes plain = content::Ref::ForSeed(7, kBytes).Materialize();
  const itc::crypto::Key key = itc::crypto::DeriveKeyFromPassword("perfbench", "itc");
  std::vector<double> per_byte;
  for (uint64_t pass = 0; pass < 9; ++pass) {
    const int64_t t0 = HostNowNs();
    const Bytes sealed = itc::crypto::Seal(key, plain, pass);
    auto opened = itc::crypto::Open(key, sealed);
    const int64_t t1 = HostNowNs();
    if (!opened.ok() || *opened != plain) throw std::runtime_error("cipher round trip failed");
    per_byte.push_back(static_cast<double>(t1 - t0) / static_cast<double>(kBytes));
  }
  return Quantile(per_byte, 0.5);
}

// A populated campus and the processes that will run its day.
struct Day {
  std::unique_ptr<itc::campus::Campus> campus;
  std::vector<content::Ref> system_refs;  // what PopulateSystemBinaries installed
  std::vector<std::unique_ptr<BenchProcess>> processes;  // process w drives workstation w
  std::vector<AndrewUser*> andrew_users;
};

// Set-up: build the campus, populate it, log every user in, and reset the
// counters so they measure the day alone. Every call is a child span of
// `setup_span`.
Day BuildDay(const WorkloadSpec& spec, uint64_t seed, SpanRecorder* rec, uint64_t setup_span) {
  Day day;
  itc::campus::CampusConfig config =
      itc::campus::CampusConfig::Revised(spec.clusters, spec.per_cluster);
  config.rpc.encrypt = spec.encrypt;
  config.seed = Mix(seed, 1);
  {
    ScopedSpan span(rec, SpanKind::kCampusBuild, setup_span, 0);
    day.campus = std::make_unique<itc::campus::Campus>(config);
    span.Close(0);
  }
  itc::campus::Campus& campus = *day.campus;

  workload::UserDayConfig user_day;
  user_day.operations = spec.day_ops;
  user_day.mean_think = spec.mean_think;

  ScopedSpan volumes(rec, SpanKind::kRootVolume, setup_span, 0);
  auto root = campus.SetupRootVolume();
  Require(root.ok(), "root volume");
  auto system = campus.CreateSystemVolume("sys.sun", "/unix/sun", 0);
  Require(system.ok(), "system volume");
  volumes.Close(0);
  {
    ScopedSpan span(rec, SpanKind::kPopulate, setup_span, 0);
    Require(workload::PopulateSystemBinaries(campus, *system, user_day.system_files,
                                             kEnvironmentSeed) == Status::kOk,
            "system binaries");
    span.Close(0);
  }
  itc::Rng system_sizes(kEnvironmentSeed);
  for (uint32_t i = 0; i < user_day.system_files; ++i) {
    const uint64_t size = workload::SampleFileSize(workload::FileClass::kSystemBinary, system_sizes);
    day.system_refs.push_back(
        content::Ref::ForSeed(kEnvironmentSeed ^ (0xb1ull << 32) ^ i, size));
  }
  std::vector<itc::ServerId> all_servers;
  for (itc::ServerId s = 0; s < campus.server_count(); ++s) all_servers.push_back(s);
  auto release = [&](itc::VolumeId volume, const std::string& clone) {
    ScopedSpan span(rec, SpanKind::kRelease, setup_span, 0);
    Require(campus.registry().ReleaseReadOnly(volume, clone, all_servers).ok(), clone);
    span.Close(0);
  };
  if (spec.sharded) release(*system, "sys.sun.ro");

  itc::Rng delays(Mix(seed, 4));
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    const std::string name = "u" + std::to_string(w);
    const std::string password = "pw-" + name;
    const bool andrew = w % spec.andrew_every == 0;

    ScopedSpan add_user(rec, SpanKind::kAddUser, setup_span, 0);
    auto home = campus.AddUserWithHome(name, password, campus.HomeServerOf(w));
    add_user.Close(0);
    Require(home.ok(), "user " + name);

    ScopedSpan populate(rec, SpanKind::kPopulate, setup_span, 0);
    const uint64_t user_seed = Mix(seed, 100 + w);
    std::vector<content::Ref> files;
    workload::SourceTreeSpec tree;
    if (andrew) {
      tree = workload::GenerateSourceTree(user_seed);
      for (size_t i = 0; i < tree.files.size(); ++i) {
        files.push_back(content::Ref::ForSeed(user_seed ^ i, tree.files[i].size));
        Require(campus.PopulateDirect(home->volume, "/src/" + tree.files[i].relative_path,
                                      files.back()) == Status::kOk,
                "source tree of " + name);
      }
      for (const std::string& dir : tree.directories) {
        const Status s = campus.MkDirDirect(home->volume, "/src/" + dir);
        Require(s == Status::kOk || s == Status::kAlreadyExists, "source dir of " + name);
      }
    } else {
      const uint64_t files_seed = Mix(kEnvironmentSeed, 100 + w);
      Require(workload::PopulateUserFiles(campus, home->volume, user_day.own_files,
                                          files_seed) == Status::kOk,
              "files of " + name);
      itc::Rng sizes(files_seed);
      for (uint32_t i = 0; i < user_day.own_files; ++i) {
        const uint64_t size = workload::SampleFileSize(workload::FileClass::kUserData, sizes);
        files.push_back(content::Ref::ForSeed(files_seed ^ i, size));
      }
    }
    populate.Close(0);

    auto& ws = campus.workstation(w);
    ScopedSpan login(rec, SpanKind::kLogin, setup_span, ws.clock().now());
    Require(ws.LoginWithPassword(home->user, password) == Status::kOk, "login " + name);
    login.Close(ws.clock().now());

    const std::string vice_home = "/vice" + home->vice_path;
    if (andrew) {
      const SimTime delay = static_cast<SimTime>(delays.Below(itc::Seconds(60)));
      auto p = std::make_unique<AndrewUser>(&ws, rec, vice_home, std::move(tree),
                                            std::move(files), delay);
      day.andrew_users.push_back(p.get());
      day.processes.push_back(std::move(p));
    } else {
      day.processes.push_back(std::make_unique<DayUser>(
          &ws, rec, vice_home, user_day, std::move(files), &day.system_refs, Mix(seed, 5000 + w)));
    }
  }
  // Released after every home volume is mounted, so the clones carry them.
  if (spec.sharded) release(*root, "vice.root.ro");

  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    campus.workstation(w).venus().FlushCache();
  }
  campus.ResetAllStats();
  for (uint32_t c = 0; c < campus.topology().cluster_count(); ++c) {
    campus.network().cluster_segment(c).Reset();
  }
  campus.network().backbone().Reset();
  for (size_t s = 0; s < campus.server_count(); ++s) {
    campus.server(s).endpoint().cpu().EnableWindowTracking(kPeakWindow);
  }
  return day;
}

// Campus-wide counters after the day.
struct Totals {
  itc::rpc::CallStats calls;
  std::map<itc::rpc::CallClass, itc::rpc::LatencyHistogram> latency_by_class;
  std::map<itc::rpc::CallClass, uint64_t> calls_by_class;
  itc::venus::VenusStats venus;
  SimTime cpu_busy = 0, disk_busy = 0, lan_busy = 0;
  uint64_t cpu_jobs = 0, disk_jobs = 0, handshakes = 0, sealed_bytes = 0, image_bytes = 0;
  double cpu_util_mean = 0, cpu_util_peak = 0;
};

Totals Gather(itc::campus::Campus& campus, SimTime end, bool encrypt) {
  Totals t;
  t.calls = campus.TotalCallStats();
  for (const auto& [opcode, op] : t.calls.per_op()) {
    t.latency_by_class[op.call_class].Merge(op.latency);
    t.calls_by_class[op.call_class] += op.calls;
  }
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    const auto& v = campus.workstation(w).venus().stats();
    t.venus.opens += v.opens;
    t.venus.cache_hits += v.cache_hits;
    t.venus.fetches += v.fetches;
    t.venus.stores += v.stores;
    t.venus.validations += v.validations;
    t.venus.stat_calls += v.stat_calls;
    t.venus.bytes_fetched += v.bytes_fetched;
    t.venus.bytes_stored += v.bytes_stored;
    t.venus.callback_breaks_received += v.callback_breaks_received;
  }
  for (size_t s = 0; s < campus.server_count(); ++s) {
    auto& ep = campus.server(s).endpoint();
    t.cpu_busy += ep.cpu().busy_time();
    t.cpu_jobs += ep.cpu().jobs();
    t.disk_busy += ep.disk().busy_time();
    t.disk_jobs += ep.disk().jobs();
    t.handshakes += ep.stats().handshakes;
    // Every byte a server opens or seals was sealed or is opened by a client.
    if (encrypt) t.sealed_bytes += ep.stats().request_bytes + ep.stats().reply_bytes;
    t.image_bytes += campus.server(s).stable_store().image_bytes();
    t.cpu_util_mean += ep.cpu().Utilization(end) / static_cast<double>(campus.server_count());
    for (double u : ep.cpu().WindowUtilization()) t.cpu_util_peak = std::max(t.cpu_util_peak, u);
  }
  for (uint32_t c = 0; c < campus.topology().cluster_count(); ++c) {
    t.lan_busy += campus.network().cluster_segment(c).busy_time();
  }
  return t;
}

// FNV-1a over every simulated result the benchmark can read, in a fixed
// order; host-dependent values (kernel event counts under sharding) are
// left out.
std::string DigestOf(const Day& day, const Totals& t, SimTime end) {
  Digest d;
  d.Add(end);
  for (const auto& p : day.processes) {
    d.Add(p->attempted());
    d.Add(p->failed());
    for (const Sample& s : p->samples()) {
      d.Add(static_cast<uint64_t>(s.kind));
      d.Add(s.latency);
    }
  }
  for (const AndrewUser* a : day.andrew_users) {
    if (a->result()) {
      for (SimTime phase : a->result()->phase_time) d.Add(phase);
    }
  }
  for (const auto& [opcode, op] : t.calls.per_op()) {
    d.Add(static_cast<uint64_t>(opcode));
    d.Add(op.calls);
    d.Add(op.errors);
    d.Add(op.bytes_in);
    d.Add(op.bytes_out);
    for (uint64_t b : op.latency.buckets()) d.Add(b);
  }
  const auto& v = t.venus;
  for (uint64_t x : {v.opens, v.cache_hits, v.fetches, v.stores, v.validations, v.stat_calls,
                     v.bytes_fetched, v.bytes_stored, v.callback_breaks_received}) {
    d.Add(x);
  }
  itc::campus::Campus& campus = *day.campus;
  for (size_t s = 0; s < campus.server_count(); ++s) {
    auto& ep = campus.server(s).endpoint();
    d.Add(ep.cpu().busy_time());
    d.Add(ep.cpu().jobs());
    d.Add(ep.disk().busy_time());
    d.Add(ep.disk().jobs());
  }
  d.Add(t.lan_busy);
  d.Add(campus.network().backbone().busy_time());
  d.Add(t.image_bytes);
  return d.Hex();
}

// One line of simulated results: final time, RPC calls by class and by op,
// Venus counters and the digest (which also covers the latency histograms).
std::string Summary(const Totals& t, SimTime end, const std::string& digest) {
  using itc::rpc::CallClass;
  auto calls = [&](CallClass c) {
    auto it = t.calls_by_class.find(c);
    return std::to_string(it == t.calls_by_class.end() ? 0 : it->second);
  };
  char time[32];
  std::snprintf(time, sizeof(time), "%.6f", Sec(end));
  std::string line = std::string("sim_end_s=") + time + " rpc{validate=" +
                     calls(CallClass::kValidate) + " status=" + calls(CallClass::kStatus) +
                     " fetch=" + calls(CallClass::kFetch) + " store=" + calls(CallClass::kStore) +
                     " other=" + calls(CallClass::kOther) + "} ops{";
  for (const auto& [opcode, op] : t.calls.per_op()) {
    line += std::string(op.name) + "=" + std::to_string(op.calls) + " ";
  }
  if (line.back() == ' ') line.pop_back();
  const auto& v = t.venus;
  line += "} venus{opens=" + std::to_string(v.opens) + " hits=" + std::to_string(v.cache_hits) +
          " fetches=" + std::to_string(v.fetches) + " stores=" + std::to_string(v.stores) +
          " validations=" + std::to_string(v.validations) +
          " callback_breaks=" + std::to_string(v.callback_breaks_received) + "} digest=" + digest;
  return line;
}

// Per-layer metrics read off the spans of a traced run.
void AddSpanMetrics(MetricSink& m, const std::vector<Span>& spans, uint32_t shards) {
  std::map<SpanKind, double> total_s;
  std::map<SpanKind, std::vector<double>> host_us;
  std::vector<bool> is_leaf(spans.size());
  int64_t run_all_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    total_s[s.kind] += static_cast<double>(s.host_ns()) / 1e9;
    is_leaf[i] = s.kind >= SpanKind::kStat && s.kind <= SpanKind::kAndrew;
    if (is_leaf[i]) host_us[s.kind].push_back(static_cast<double>(s.host_ns()) / 1e3);
    if (s.kind == SpanKind::kRunAll) run_all_ns = s.host_ns();
  }
  const std::vector<double> shared = SharedLeafTimes(spans, is_leaf);
  std::map<SpanKind, double> shared_s;
  for (size_t i = 0; i < spans.size(); ++i) shared_s[spans[i].kind] += shared[i] / 1e9;

  m.Add("campus.add_user_s", total_s[SpanKind::kAddUser], "s", "host");
  m.Add("workload.populate_s", total_s[SpanKind::kPopulate], "s", "host");
  m.Add("virtue.login_s", total_s[SpanKind::kLogin], "s", "host");
  const double wall = static_cast<double>(run_all_ns) / 1e9;
  const double step_s = static_cast<double>(ThreadUnionNs(spans, SpanKind::kStep)) / 1e9;
  m.Add("sim.run_wall_s", wall, "s", "host");
  m.Add("sim.step_s", step_s, "s", "host");
  m.Add("sim.kernel_self_s", wall * shards - step_s, "s", "host");
  for (auto [kind, label] : kVirtueOps) {
    const auto& us = host_us[kind];
    const std::string base = std::string("virtue.") + label;
    m.Add(base + ".host_s", shared_s[kind], "s", "host");
    m.AddQuantile(base + ".host_us_p50", us, 0.5, "us", "host");
    m.AddQuantile(base + ".host_us_p99", us, 0.99, "us", "host");
  }
  m.Add("andrew.host_s", shared_s[SpanKind::kAndrew], "s", "host",
        host_us[SpanKind::kAndrew].size());
  m.Add("trace.spans", static_cast<double>(spans.size()), "count", "count");
}

}  // namespace

IterationResult RunIteration(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  std::unique_ptr<SpanRecorder> recorder;
  if (traced) recorder = std::make_unique<SpanRecorder>(kSpanCapacityPerThread);
  SpanRecorder* rec = recorder.get();

  ResetPeakRss();
  const int64_t setup_begin = HostNowNs();
  ScopedSpan setup_span(rec, SpanKind::kSetup, 0, 0);
  Day day = BuildDay(spec, seed, rec, setup_span.id());
  setup_span.Close(0);
  const int64_t setup_end = HostNowNs();
  itc::campus::Campus& campus = *day.campus;

  itc::sim::Scheduler sched;
  sched.set_backend(itc::sim::KernelBackend::kFiber);
  if (spec.sharded) {
    sched.set_mode(itc::sim::SchedulerMode::kSharded);
    sched.set_shard_count(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    sched.set_lookahead(campus.config().cost.BackboneLookahead());
  }
  for (uint32_t w = 0; w < day.processes.size(); ++w) {
    sched.Add(day.processes[w].get(), campus.topology().ClusterOfNthWorkstation(w));
  }
  ScopedSpan run_span(rec, SpanKind::kRunAll, 0, 0);
  for (auto& p : day.processes) p->set_run_span(run_span.id());
  const int64_t switches_begin = OsContextSwitches();
  const int64_t cpu_begin = ProcessCpuNs();
  const int64_t run_begin = HostNowNs();
  const SimTime end = sched.RunAll();
  const int64_t run_end = HostNowNs();
  const double cpu_s = static_cast<double>(ProcessCpuNs() - cpu_begin) / 1e9;
  const int64_t switches = OsContextSwitches() - switches_begin;
  run_span.Close(end);
  const int64_t peak_rss_kb = PeakRssKb();

  IterationResult result;
  result.backend = itc::sim::KernelBackendName(sched.backend());
  result.shards = spec.sharded ? sched.shards_used() : 1;
  std::map<SpanKind, std::vector<double>> sim_ms;
  for (const auto& p : day.processes) {
    result.attempted += p->attempted();
    result.failed += p->failed();
    for (const std::string& e : p->errors()) {
      if (result.errors.size() < kMaxErrors) result.errors.push_back(e);
    }
    for (const Sample& s : p->samples()) sim_ms[s.kind].push_back(Ms(s.latency));
  }
  std::vector<double> andrew_totals;
  std::array<std::vector<double>, workload::kPhaseCount> phase_s;
  for (const AndrewUser* a : day.andrew_users) {
    if (!a->result()) continue;
    andrew_totals.push_back(Sec(a->result()->total));
    for (int ph = 0; ph < workload::kPhaseCount; ++ph) {
      phase_s[ph].push_back(Sec(a->result()->phase_time[ph]));
    }
  }
  if (andrew_totals.size() != day.andrew_users.size()) {
    result.errors.push_back("not every RunBenchmark5 returned ok");
  }
  const Totals t = Gather(campus, end, spec.encrypt);
  result.digest = DigestOf(day, t, end);
  result.summary = Summary(t, end, result.digest);

  MetricSink m;
  const double run_wall_s = static_cast<double>(run_end - run_begin) / 1e9;
  const auto& reads = sim_ms[SpanKind::kRead];
  const auto& stats = sim_ms[SpanKind::kStat];
  m.set_end_to_end(true);
  m.Add("setup_s", static_cast<double>(setup_end - setup_begin) / 1e9, "s", "host");
  m.Add("run_wall_s", run_wall_s, "s", "host");
  m.Add("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB", "host");
  // Reads mix cache hits, fetches and fetches queued behind a cold-cache
  // storm, and most stats cost one uncontended status call: medians fall
  // between modes or sit on one exact value. The geometric mean (an average
  // in log space) and the read tail are steady between seeds.
  m.Add("sim_read_gmean_ms", GeoMean(reads), "ms", "sim", reads.size());
  m.AddQuantile("sim_read_p99_ms", reads, 0.99, "ms", "sim");
  m.Add("sim_stat_gmean_ms", GeoMean(stats), "ms", "sim", stats.size());
  m.AddQuantile("sim_andrew_p50_s", andrew_totals, 0.5, "s", "sim");
  m.AddQuantile("sim_andrew_p90_s", andrew_totals, 0.9, "s", "sim");
  m.Add("sim_server_cpu_util", t.cpu_util_mean, "ratio", "sim", campus.server_count());

  m.set_end_to_end(false);
  m.AddQuantile("sim_read_p50_ms", reads, 0.5, "ms", "sim");
  m.AddQuantile("sim_stat_p50_ms", stats, 0.5, "ms", "sim");
  m.AddQuantile("sim_stat_p99_ms", stats, 0.99, "ms", "sim");
  m.Add("failed_frac",
        result.attempted == 0
            ? 0.0
            : static_cast<double>(result.failed) / static_cast<double>(result.attempted),
        "ratio", "count", result.attempted);
  const uint64_t events = sched.last_events();
  m.Add("sim.events", static_cast<double>(events), "count", "count");
  m.Add("sim.host_ns_per_event",
        events == 0 ? 0.0 : run_wall_s * 1e9 / static_cast<double>(events), "ns", "host", events);
  m.Add("sim.os_ctx_switches", static_cast<double>(switches), "count", "host");
  m.Add("sim.cpu_s", cpu_s, "s", "host");
  m.Add("sim.parallelism", run_wall_s > 0 ? cpu_s / run_wall_s : 0.0, "threads", "host");
  for (auto [kind, label] : kVirtueOps) {
    m.Add(std::string("virtue.") + label + ".calls", static_cast<double>(sim_ms[kind].size()),
          "count", "count");
  }
  for (int ph = 0; ph < workload::kPhaseCount; ++ph) {
    std::string phase(workload::PhaseName(static_cast<workload::Phase>(ph)));
    std::transform(phase.begin(), phase.end(), phase.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    m.AddQuantile("andrew." + phase + ".sim_s", phase_s[ph], 0.5, "s", "sim");
  }
  m.Add("venus.hit_ratio", t.venus.HitRatio(), "ratio", "count", t.venus.opens);
  m.Add("venus.fetches", static_cast<double>(t.venus.fetches), "count", "count");
  m.Add("venus.validations", static_cast<double>(t.venus.validations), "count", "count");
  m.Add("venus.stores", static_cast<double>(t.venus.stores), "count", "count");
  m.Add("venus.callback_breaks", static_cast<double>(t.venus.callback_breaks_received), "count",
        "count");
  m.Add("venus.bytes_fetched", static_cast<double>(t.venus.bytes_fetched), "B", "count");
  for (auto [cls, label] : {std::pair{itc::rpc::CallClass::kValidate, "validate"},
                            std::pair{itc::rpc::CallClass::kStatus, "status"},
                            std::pair{itc::rpc::CallClass::kFetch, "fetch"},
                            std::pair{itc::rpc::CallClass::kStore, "store"}}) {
    const auto calls = t.calls_by_class.find(cls);
    const auto latency = t.latency_by_class.find(cls);
    const itc::rpc::LatencyHistogram h =
        latency == t.latency_by_class.end() ? itc::rpc::LatencyHistogram{} : latency->second;
    const std::string base = std::string("rpc.") + label;
    m.Add(base + ".calls",
          calls == t.calls_by_class.end() ? 0.0 : static_cast<double>(calls->second), "count",
          "count");
    m.Add(base + ".sim_ms_p50", HistogramQuantile(h, 0.5) / 1e3, "ms", "sim", h.count());
    m.FlagTail(0.5);
    m.Add(base + ".sim_ms_p99", HistogramQuantile(h, 0.99) / 1e3, "ms", "sim", h.count());
    m.FlagTail(0.99);
  }
  m.Add("rpc.errors", static_cast<double>(t.calls.total_errors()), "count", "count");
  m.Add("rpc.bytes_in", static_cast<double>(t.calls.total_bytes_in()), "B", "count");
  m.Add("rpc.bytes_out", static_cast<double>(t.calls.total_bytes_out()), "B", "count");
  m.Add("rpc.handshakes", static_cast<double>(t.handshakes), "count", "count");
  m.Add("crypto.bytes", static_cast<double>(t.sealed_bytes), "B", "count");
  m.Add("vice.cpu.busy_s", Sec(t.cpu_busy), "s", "sim");
  m.Add("vice.cpu.jobs", static_cast<double>(t.cpu_jobs), "count", "count");
  m.Add("vice.cpu.peak_util", t.cpu_util_peak, "ratio", "sim");
  m.Add("vice.disk.busy_s", Sec(t.disk_busy), "s", "sim");
  m.Add("vice.disk.jobs", static_cast<double>(t.disk_jobs), "count", "count");
  m.Add("recovery.image_bytes", static_cast<double>(t.image_bytes), "B", "count");
  m.Add("net.lan.busy_s", Sec(t.lan_busy), "s", "sim");
  auto& backbone = campus.network().backbone();
  m.Add("net.backbone.busy_s", Sec(backbone.busy_time()), "s", "sim");
  m.Add("net.backbone.jobs", static_cast<double>(backbone.jobs()), "count", "count");
  m.Add("content.live_buffers", static_cast<double>(content::Store::Global().live_buffers()),
        "count", "host");
  m.Add("content.live_bytes", static_cast<double>(content::Store::Global().live_bytes()), "B",
        "host");

  if (rec != nullptr) {
    // Span-derived layers, and the cipher timing, only in the traced run.
    m.set_traced_only(true);
    const double ns_per_byte = CryptoNsPerByte();
    m.Add("crypto.ns_per_byte", ns_per_byte, "ns/B", "host");
    m.Add("crypto.est_s", ns_per_byte * static_cast<double>(t.sealed_bytes) / 1e9, "s", "host");
    result.spans = rec->Collect();
    result.spans_dropped = rec->dropped();
    AddSpanMetrics(m, result.spans, result.shards);
  }
  result.metrics = m.Take();
  return result;
}

}  // namespace perfbench

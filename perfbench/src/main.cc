// One measured iteration of an itcfs benchmark workload.
//
//   itcfs_perfbench --workload campus_day --seed 1 [--traced] [--trace-out FILE]
//
// Prints the host facts and the iteration's metrics, digest and checks as
// one JSON object on the last line of standard output. perfbench/run.py runs
// this binary repeatedly and aggregates the iterations.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/host_clock.h"
#include "src/spans.h"
#include "src/workloads.h"

namespace {

constexpr size_t kMaxTraceEvents = 200000;

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: itcfs_perfbench --workload campus_day|andrew_load|sharded_day "
               "--seed N [--traced] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  unsigned long long seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = errno == 0 && end != argv[i] && *end == '\0';
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  const auto spec = perfbench::SpecFor(workload);
  if (!spec || !have_seed) return Usage();

  const perfbench::HostFacts facts = perfbench::ReadHostFacts();
  if (!facts.optimized) {
    std::fprintf(stderr, "refusing to measure an unoptimized build (%s)\n",
                 facts.build_type.c_str());
    return 3;
  }

  perfbench::IterationResult r;
  try {
    r = perfbench::RunIteration(*spec, seed, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (traced && !trace_out.empty() &&
      !perfbench::WriteChromeTrace(trace_out, r.spans, kMaxTraceEvents)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }

  std::string out = "{\"workload\": " + Json(spec->name) + ", \"seed\": " + std::to_string(seed) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) out += (i ? ", " : "") + Json(r.errors[i]);
  out += "], \"digest\": " + Json(r.digest) + ", \"summary\": " + Json(r.summary) +
         ", \"spans_dropped\": " + std::to_string(r.spans_dropped) +
         ", \"facts\": {\"nproc\": " + std::to_string(facts.nproc) +
         ", \"cpu_model\": " + Json(facts.cpu_model) + ", \"compiler\": " + Json(facts.compiler) +
         ", \"build_type\": " + Json(facts.build_type) + ", \"backend\": " + Json(r.backend) +
         ", \"shards\": " + std::to_string(r.shards) + "}, \"metrics\": [";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += std::string(i ? ", " : "") + "{\"name\": " + Json(m.name) + ", \"value\": " + value +
           ", \"unit\": " + Json(m.unit) + ", \"clock\": " + Json(m.clock) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"end_to_end\": " + (m.end_to_end ? "true" : "false") +
           ", \"traced_only\": " + (m.traced_only ? "true" : "false") +
           ", \"thin_tail\": " + (m.thin_tail ? "true" : "false") + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

#include "src/host_clock.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

int64_t HostNowNs() {
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 + static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

int64_t OsContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_nvcsw) + static_cast<int64_t>(ru.ru_nivcsw);
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5\n", f);
    std::fclose(f);
  }
}

int64_t PeakRssKb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

HostFacts ReadHostFacts() {
  HostFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) continue;
      facts.cpu_model = colon + 1;
      while (!facts.cpu_model.empty() &&
             (facts.cpu_model.front() == ' ' || facts.cpu_model.front() == '\t')) {
        facts.cpu_model.erase(0, 1);
      }
      while (!facts.cpu_model.empty() && facts.cpu_model.back() == '\n') {
        facts.cpu_model.pop_back();
      }
      break;
    }
    std::fclose(f);
  }
  if (facts.cpu_model.empty()) facts.cpu_model = "unknown";
  facts.compiler = PERFBENCH_COMPILER;
  facts.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  facts.optimized = true;
#endif
  return facts;
}

}  // namespace perfbench

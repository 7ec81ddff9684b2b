#include "common.hpp"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <thread>

namespace perfbench {

HostClock::time_point HostClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
}

void Outcome::fail(const std::string& what, std::int64_t n) {
  failed += n;
  // Keep the report readable when one check fails many times.
  if (failures.size() < 20) failures.push_back(what);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v[v.size() / 2];
  s.p99 = v[(v.size() * 99) / 100];
  s.max = v.back();
  return s;
}

double host_seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

double us(flux::Duration d) { return static_cast<double>(d.count()) / 1e3; }
double ms(flux::Duration d) { return static_cast<double>(d.count()) / 1e6; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, a, b, c, d);
  return (b & (1u << 29)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.SHA[bit 29]
}

}  // namespace

flux::Json run_metadata() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  cpu_set_t set;
  CPU_ZERO(&set);
  const long nproc = sched_getaffinity(0, sizeof set, &set) == 0
                         ? CPU_COUNT(&set)
                         : static_cast<long>(std::thread::hardware_concurrency());
  return flux::Json::object({{"build_type", build_type},
                             {"release_build", build_type == "Release"},
                             {"compiler", std::string(PERFBENCH_COMPILER)},
                             {"nproc", static_cast<std::int64_t>(nproc)},
                             {"cpu_model", cpu_model()},
                             {"sha_ni", cpu_has_sha_ni()}});
}

}  // namespace perfbench

// Shared pieces of the benchmark workloads: command options, the result one
// repetition hands back, latency summaries and the host clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "json/json.hpp"

namespace perfbench {

/// Host time is this process's CPU time: what the implementation costs,
/// without the time a shared host gives to other processes. The simulator
/// is single-threaded and blocks on nothing, so uncontended it equals wall
/// time.
struct HostClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<HostClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;         ///< record spans and probe the layers
  std::string out_dir = ".";  ///< where the content log and trace go
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one repetition of a workload reports. The units of the `e2e` and
/// `layer` metrics are listed in run.py, which aggregates the repetitions of
/// a run. `report` holds the workload-specific names of the end-to-end
/// figures (fence_max_ms, turnaround_p99_us, ...), for people.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<Metric> report;
  std::vector<std::string> notes;  ///< sample counts, what is not reached
  std::vector<double> setup_s;     ///< host seconds of each timed set-up
  double phase_host_s = 0;         ///< host seconds of the measured phase

  /// Record a failed check: `n` operations of the attempt failed it.
  void fail(const std::string& what, std::int64_t n = 1);
};

/// Median/p99/max over a sample, with the sample count the numbers rest on.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};
Summary summarize(std::vector<double> v);

[[nodiscard]] double host_seconds_since(HostClock::time_point t0);
[[nodiscard]] double us(flux::Duration d);
[[nodiscard]] double ms(flux::Duration d);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Run metadata: build type, compiler, cpu, sha_ni, nproc.
[[nodiscard]] flux::Json run_metadata();

}  // namespace perfbench

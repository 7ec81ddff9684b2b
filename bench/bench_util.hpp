// Shared helpers for the paper-figure benchmark harnesses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hash/sha1_compress.hpp"
#include "json/json.hpp"
#include "kap/kap.hpp"

namespace flux::bench {

/// FLUX_BENCH_QUICK=1 trims the grids for smoke runs; the default grid is
/// the paper's (§V-A: 64..512 nodes fully populated with 16 processes).
inline bool quick_mode() {
  const char* env = std::getenv("FLUX_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline std::vector<std::uint32_t> node_grid() {
  if (quick_mode()) return {16, 32, 64};
  return {64, 128, 256, 512};
}

inline std::vector<std::size_t> vsize_grid() {
  if (quick_mode()) return {8, 512, 32768};
  return {8, 32, 128, 512, 2048, 8192, 32768};
}

inline std::uint32_t procs_per_node() { return quick_mode() ? 4 : 16; }

inline double ms(Duration d) { return static_cast<double>(d.count()) / 1e6; }
inline double us(Duration d) { return static_cast<double>(d.count()) / 1e3; }

inline void print_header(const char* title, const char* paper_ref,
                         const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Expected shape: %s\n", expectation);
  if (quick_mode()) std::printf("(FLUX_BENCH_QUICK=1: reduced grid)\n");
  std::printf("================================================================\n");
}

/// JSON metrics sidecar. The benchmarks print human-readable tables; the
/// sidecar writes the same measurements as machine-readable JSON so plots and
/// regression checks don't have to scrape stdout. Rows accumulate during the
/// run and "<name>.metrics.json" is written at process exit into the current
/// directory, with the active SHA-1 path ("sha-ni" | "portable") at the top
/// level (FLUX_BENCH_METRICS_DIR overrides the directory,
/// FLUX_BENCH_METRICS=0 disables the file entirely).
class MetricsSidecar {
 public:
  void open(std::string name) {
    if (name_.empty()) std::atexit(&MetricsSidecar::write_at_exit);
    name_ = std::move(name);
  }
  void add(Json row) { rows_.push_back(std::move(row)); }

  static MetricsSidecar& instance() {
    static MetricsSidecar m;
    return m;
  }

 private:
  void write() const {
    if (name_.empty() || rows_.empty()) return;
    const char* toggle = std::getenv("FLUX_BENCH_METRICS");
    if (toggle != nullptr && toggle[0] == '0') return;
    const char* dir = std::getenv("FLUX_BENCH_METRICS_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) + name_ +
        ".metrics.json";
    Json rows = Json::array();
    for (const Json& r : rows_) rows.push_back(r);
    Json doc = Json::object({{"bench", name_},
                             {"quick", quick_mode()},
                             {"sha1", sha1_internal::sha1_path()},
                             {"rows", std::move(rows)}});
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string text = doc.dump_pretty();
      std::fputs(text.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("[metrics] wrote %s (%zu rows)\n", path.c_str(),
                  rows_.size());
    }
  }
  static void write_at_exit() { instance().write(); }

  std::string name_;
  std::vector<Json> rows_;
};

/// Name the sidecar file for this benchmark (call once, early in main).
inline void metrics_open(std::string name) {
  MetricsSidecar::instance().open(std::move(name));
}

/// Append one measurement row to the sidecar.
inline void metrics_add(Json row) {
  MetricsSidecar::instance().add(std::move(row));
}

/// One KAP run with the benchmark defaults applied. Every run contributes a
/// sidecar row with the config knobs and headline results.
inline kap::KapResult run(kap::KapConfig cfg) {
  cfg.procs_per_node = procs_per_node();
  kap::KapResult r = kap::run_kap(cfg);
  Json row = Json::object(
      {{"nnodes", static_cast<std::int64_t>(cfg.nnodes)},
       {"procs_per_node", static_cast<std::int64_t>(cfg.procs_per_node)},
       {"value_size", static_cast<std::int64_t>(cfg.value_size)},
       {"gets_per_consumer", static_cast<std::int64_t>(cfg.gets_per_consumer)},
       {"redundant_values", cfg.redundant_values},
       {"single_directory", cfg.single_directory},
       {"wireup_us", us(r.wireup)},
       {"producer_max_ms", ms(r.producer.max)},
       {"sync_max_ms", ms(r.sync.max)},
       {"consumer_max_ms", ms(r.consumer.max)},
       {"total_objects", static_cast<std::int64_t>(r.total_objects)},
       {"net_messages", static_cast<std::int64_t>(r.net_messages)},
       {"net_bytes", static_cast<std::int64_t>(r.net_bytes)},
       {"cache_hits", static_cast<std::int64_t>(r.cache_hits)},
       {"cache_misses", static_cast<std::int64_t>(r.cache_misses)},
       {"host_seconds", r.host_seconds}});
  MetricsSidecar::instance().add(std::move(row));
  return r;
}

}  // namespace flux::bench

// flux_perfbench: one repetition of one benchmark workload.
//
//   flux_perfbench --workload kap|kvs-durable|jobs --seed N [--trace FILE]
//                  [--out DIR] [--source ID]
//
// Prints one JSON object: the run metadata, the checks that failed, and the
// repetition's end-to-end and per-layer values. With --trace the repetition
// records spans, probes the layers after its measured phase, and writes the
// spans to FILE. perfbench/run.py runs repetitions and aggregates them.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flux_perfbench: %s\nusage: flux_perfbench --workload "
               "kap|kvs-durable|jobs --seed N [--trace FILE] [--out DIR] "
               "[--source ID]\n",
               why.c_str());
  std::exit(2);
}

flux::Json to_json(const std::map<std::string, double>& m) {
  flux::Json j = flux::Json::object();
  for (const auto& [k, v] : m) j[k] = v;
  return j;
}

flux::Json to_json(const std::vector<std::string>& v) {
  flux::Json j = flux::Json::array();
  for (const std::string& s : v) j.push_back(s);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source = "unknown";
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--trace") {
      trace_file = v;
      opt.trace = true;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else if (a == "--source") {
      source = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  perfbench::SpanRecorder rec(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "kap")
      out = perfbench::run_kap(opt, rec);
    else if (opt.workload == "kvs-durable")
      out = perfbench::run_kvs_durable(opt, rec);
    else if (opt.workload == "jobs")
      out = perfbench::run_jobs(opt, rec);
    else
      usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    // A workload that cannot finish has no metrics to report.
    std::fprintf(stderr, "flux_perfbench: %s aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  flux::Json meta = perfbench::run_metadata();
  meta["workload"] = opt.workload;
  meta["seed"] = static_cast<std::int64_t>(opt.seed);
  meta["source"] = source;
  flux::Json report = flux::Json::array();
  for (const Metric& m : out.report)
    report.push_back(flux::Json::object(
        {{"name", m.name}, {"value", m.value}, {"unit", m.unit}}));
  flux::Json setups = flux::Json::array();
  for (const double s : out.setup_s) setups.push_back(s);
  flux::Json result = flux::Json::object(
      {{"meta", meta},
       {"attempted", out.attempted},
       {"failed", out.failed},
       {"failures", to_json(out.failures)},
       {"notes", to_json(out.notes)},
       {"report", report},
       {"e2e", to_json(out.e2e)},
       {"layer", to_json(out.layer)},
       {"setup_s", setups},
       {"phase_host_s", out.phase_host_s},
       {"peak_rss_mb", perfbench::peak_rss_mb()}});
  if (opt.trace) {
    result["spans"] = rec.summary();
    if (!rec.write(trace_file, meta))
      std::fprintf(stderr, "flux_perfbench: could not write %s\n",
                   trace_file.c_str());
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

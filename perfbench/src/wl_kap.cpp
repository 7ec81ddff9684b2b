// kap: the paper's PMI-bootstrap critical path (§V) at its largest point.
//
// 512 brokers x 16 procs = 8192 processes on a binary tree; every process
// puts one unique 512 B value into a multi-directory layout (<=128 keys per
// directory), joins one 8192-contributor fence, then reads the same 16
// objects (access-16). The fence climbs the relay tree to the master and the
// consumers fan cache faults back down, so this loads net, broker, the KVS
// fence and the slave caches, and bypasses persistence and jobs.
//
// The seed picks the value bytes and the schedule: a 100 ns seeded delivery
// jitter (NetParams::jitter_max, against 1.5 us hops) reorders deliveries
// that would otherwise tie, so each seed is a different but replayable run.
#include <stdexcept>

#include "broker/session.hpp"
#include "exec/sim_executor.hpp"
#include "kap/kap.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace flux;

kap::KapConfig kap_config(std::uint64_t seed) {
  kap::KapConfig c;
  c.nnodes = 512;
  c.procs_per_node = 16;
  c.tree_arity = 2;
  c.value_size = 512;
  c.puts_per_producer = 1;
  c.gets_per_consumer = 16;
  c.redundant_values = false;
  c.single_directory = false;
  c.dir_fanout = 128;
  c.sync = kap::KapConfig::Sync::Fence;
  c.seed = seed;
  c.net.jitter_max = Duration{100};
  c.net.jitter_seed = seed;
  return c;
}

/// The session run_kap builds for `c` (kap.cpp): run_kap does not expose the
/// host time of its phases, so set-up is timed on an identical session.
SessionConfig kap_session_config(const kap::KapConfig& c) {
  SessionConfig s;
  s.size = c.nnodes;
  s.tree_arity = c.tree_arity;
  s.net = c.net;
  s.seed = c.seed;
  s.modules = {"hb", "live", "barrier", "kvs"};
  s.module_config = Json::object(
      {{"kvs", Json::object({{"expiry_epochs", c.kvs_expiry_epochs}})},
       {"hb", Json::object({{"period_us", 100000}})},
       {"live", Json::object({{"missed_max", 100}})}});
  return s;
}

}  // namespace

Outcome run_kap(const Options& opt, SpanRecorder& rec) {
  const kap::KapConfig cfg = kap_config(opt.seed);
  const std::uint32_t procs = kap::total_procs(cfg);
  // One put and one fence per process, gets_per_consumer gets each.
  const auto ops = static_cast<std::int64_t>(procs) *
                   (2 + static_cast<std::int64_t>(cfg.gets_per_consumer));
  Outcome out;
  out.setup_s = time_setups(kap_session_config(cfg), rec);

  out.attempted = ops;
  kap::KapResult v;
  const auto h0 = HostClock::now();
  try {
    SpanScope s(rec, "kap::run_kap");
    v = kap::run_kap(cfg);  // checks every value read; throws on a stall
  } catch (const std::exception& e) {
    out.fail(std::string("kap: run_kap failed: ") + e.what(), ops);
    return out;
  }
  out.phase_host_s = host_seconds_since(h0);
  const double crit_path_s =
      static_cast<double>((v.producer.max + v.sync.max + v.consumer.max).count()) /
      1e9;

  out.e2e["host_ops_per_s"] = static_cast<double>(ops) / out.phase_host_s;
  out.e2e["virtual_ops_per_s"] = static_cast<double>(ops) / crit_path_s;
  out.e2e["ack_p50_us"] = us(v.sync.p50);
  out.e2e["ack_p99_us"] = us(v.sync.p99);
  out.e2e["ack_max_ms"] = ms(v.sync.max);
  out.e2e["result_p50_us"] = us(v.consumer.p50);
  out.e2e["result_p99_us"] = us(v.consumer.p99);
  out.e2e["result_max_ms"] = ms(v.consumer.max);

  out.report = {{"host_ops_per_s", out.e2e["host_ops_per_s"], "ops/s"},
                {"fence_max_ms", ms(v.sync.max), "ms"},
                {"get_max_ms", ms(v.consumer.max), "ms"}};
  out.notes.push_back("kap: " + std::to_string(ops) +
                      " KVS ops; fence and get percentiles over " +
                      std::to_string(procs) + " processes each");
  out.notes.push_back(
      "kap: virtual_ops_per_s divides by the critical path (producer + "
      "fence + consumer phase maxima); host_ops_per_s by run_kap's whole "
      "host time, its own session set-up included");

  out.layer["kap.fence_p50_ms"] = ms(v.sync.p50);
  out.layer["kap.get_p50_ms"] = ms(v.consumer.p50);
  out.layer["broker.wireup_us"] = us(v.wireup);
  out.layer["net.messages"] = static_cast<double>(v.net_messages);
  out.layer["net.bytes"] = static_cast<double>(v.net_bytes);
  out.layer["net.messages_per_op"] =
      static_cast<double>(v.net_messages) / static_cast<double>(ops);
  out.layer["net.bytes_per_op"] =
      static_cast<double>(v.net_bytes) / static_cast<double>(ops);
  out.layer["exec.events"] = static_cast<double>(v.sim_events);
  out.layer["exec.host_ns_per_event"] =
      out.phase_host_s * 1e9 / static_cast<double>(v.sim_events);
  add_cache_layers(out, v.cache_hits, v.cache_misses, v.faults_issued);
  out.layer["kvs.objects"] = static_cast<double>(v.total_objects);
  out.notes.push_back(
      "kap: broker.rpc_*, kvs.apply_*/announce_* are not reachable from "
      "outside: run_kap owns its session and returns only KapResult");
  return out;
}

}  // namespace perfbench

#include "probes.hpp"

#include <stdexcept>

#include "api/handle.hpp"
#include "kvs/kvs_module.hpp"
#include "obs/stats_client.hpp"

namespace perfbench {

using namespace flux;

namespace {

Task<void> stats_rpcs(Handle* h, SessionLayers* out, SpanRecorder* rec) {
  {
    const std::uint64_t s = rec->open("rpc kvs.stats", 0, 0, &h->executor());
    Message resp = co_await h->request("kvs.stats").call();
    out->kvs_master = resp.payload();
    rec->close(s, &h->executor());
  }
  const std::uint64_t s = rec->open("rpc cmb.stats.get", 0, 0, &h->executor());
  obs::FluxStats stats(*h);
  out->cmb = co_await stats.aggregate("cmb", true);
  rec->close(s, &h->executor());
}

double hist(const Json& cmb, const char* name, const char* field) {
  const Json& h = cmb.at("histograms").at(name);
  return h.is_object() ? h.get_double(field, 0.0) : 0.0;
}

}  // namespace

SessionLayers probe_session(SimExecutor& ex, Session& session,
                            SpanRecorder& rec) {
  SessionLayers out;
  auto h = session.attach(0);
  co_spawn(ex, stats_rpcs(h.get(), &out, &rec), "perfbench.stats");
  ex.run();
  for (NodeId r = 0; r < session.size(); ++r) {
    auto* kvs = dynamic_cast<KvsModule*>(session.broker(r).find_module("kvs"));
    if (kvs == nullptr) continue;
    out.cache_hits += kvs->cache().stats().hits;
    out.cache_misses += kvs->cache().stats().misses;
    out.faults_issued += kvs->op_stats().faults_issued;
  }
  return out;
}

void add_cache_layers(Outcome& out, std::uint64_t hits, std::uint64_t misses,
                      std::uint64_t faults) {
  const auto lookups = static_cast<double>(hits + misses);
  out.layer["kvs.cache_hits"] = static_cast<double>(hits);
  out.layer["kvs.cache_misses"] = static_cast<double>(misses);
  out.layer["kvs.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / lookups : 0;
  out.layer["kvs.faults_issued"] = static_cast<double>(faults);
}

void add_session_layers(Outcome& out, const SessionLayers& s) {
  out.layer["broker.rpc_p50_us"] = hist(s.cmb, "cmb.rpc_ns", "p50") / 1e3;
  out.layer["broker.rpc_p99_us"] = hist(s.cmb, "cmb.rpc_ns", "p99") / 1e3;
  out.layer["broker.rpc_timeouts"] = static_cast<double>(
      s.cmb.at("counters").get_int("cmb.rpc_timeouts", 0));
  add_cache_layers(out, s.cache_hits, s.cache_misses, s.faults_issued);
  const Json& k = s.kvs_master;
  out.layer["kvs.objects"] =
      static_cast<double>(k.get_int("store_objects", 0));
  out.layer["kvs.apply_batches"] =
      static_cast<double>(k.get_int("apply_batches", 0));
  out.layer["kvs.apply_batch_mean"] = k.get_double("apply_batch_mean", 0.0);
  out.layer["kvs.announces"] = static_cast<double>(k.get_int("announces", 0));
  out.layer["kvs.announce_batch_mean"] =
      k.get_double("announce_batch_mean", 0.0);
}

NetCount net_count(Session& session) {
  const auto& st = session.simnet()->stats();
  return {st.messages, st.bytes};
}

std::vector<double> time_setups(const SessionConfig& cfg, SpanRecorder& rec,
                                const std::function<void()>& before_each) {
  constexpr int kSetups = 15;
  std::vector<double> out;
  for (int i = 0; i < kSetups; ++i) {
    if (before_each) before_each();
    SpanScope setup(rec, "setup", 0, static_cast<std::uint64_t>(i));
    SimExecutor ex;
    const auto t0 = HostClock::now();
    std::unique_ptr<Session> session;
    {
      SpanScope s(rec, "Session::create_sim", setup.id(), 0, &ex);
      session = Session::create_sim(ex, cfg);
    }
    {
      SpanScope s(rec, "Session::run_until_online", setup.id(), 0, &ex);
      session->run_until_online();
    }
    out.push_back(host_seconds_since(t0));
    if (!session->all_online())
      throw std::runtime_error("set-up: session did not come online");
  }
  return out;
}

}  // namespace perfbench

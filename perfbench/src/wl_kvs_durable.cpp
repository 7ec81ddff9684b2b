// kvs-durable: many small commits against a persisting KVS, then a restart.
//
// 64 brokers with the content log on (checkpoint and GC cadences on). 32
// closed-loop clients each repeat: put own key, commit, get own key, get
// the shared hot key. Each client writes into a bounded keyspace, so
// overwrites leave garbage for GC. At 64 brokers the master's windowed
// apply/announce coalescing is active, and every acked commit goes through
// the content-log write path.
//
// Then a clean shutdown, a cold restart of the same session against the
// log, and the first get (restart_to_serving_ms): the log read path (read,
// parse, hash, insert). An untimed audit checks that every client's last
// acked key resolves to its last acked value. The traced run then replays
// the same log outside the session through FileLogBackend::recover,
// mark_and_sweep, Sha1::of and Json::parse/dump to price those layers.
//
// The seed picks each round's key (16 per client) and value size
// (log-uniform 16 B .. 2 KiB), the value bytes, and the 100 ns delivery
// jitter of the schedule.
#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "api/handle.hpp"
#include "kvs/content_backend.hpp"
#include "kvs/kvs_client.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace flux;

constexpr std::uint32_t kBrokers = 64;
constexpr std::size_t kClients = 32;
constexpr std::size_t kRounds = 500;
constexpr std::uint64_t kKeysPerClient = 16;
constexpr int kOpsPerRound = 4;
const char* const kHotKey = "kd.hot";

SessionConfig durable_config(const std::string& log_path, std::uint64_t seed) {
  SessionConfig s;
  s.size = kBrokers;
  s.seed = seed;
  s.net.jitter_max = Duration{100};  // seeded schedule, as in kap
  s.net.jitter_seed = seed;
  s.modules = {"hb", "live", "barrier", "kvs"};
  Json persist = Json::object({{"path", log_path},
                               {"checkpoint_every", 64},
                               {"gc_every", 256},
                               {"retention", 4}});
  s.module_config = Json::object(
      {{"hb", Json::object({{"period_us", 100000}})},
       {"live", Json::object({{"missed_max", 100}})},
       {"kvs", Json::object({{"persist", std::move(persist)}})}});
  return s;
}

std::string client_key(std::size_t client, std::uint32_t k) {
  return "kd.c" + std::to_string(client) + ".k" + std::to_string(k);
}

/// One client's seeded inputs: the key index and value of every round.
struct Plan {
  std::vector<std::uint32_t> key;
  std::vector<std::string> value;
};

std::vector<Plan> make_plans(std::uint64_t seed) {
  std::vector<Plan> plans(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c);
    for (std::size_t r = 0; r < kRounds; ++r) {
      plans[c].key.push_back(static_cast<std::uint32_t>(rng.below(kKeysPerClient)));
      const auto size = static_cast<std::size_t>(16.0 * std::exp2(7.0 * rng.uniform()));
      plans[c].value.push_back(rng.bytes(size));
    }
  }
  return plans;
}

struct ClientLog {
  std::vector<double> commit_us, get_us;
  std::size_t acked = 0;  ///< rounds up to the last acked commit
  std::int64_t failed_ops = 0;
  std::vector<std::string> errors;
};

Task<void> client(Handle* h, std::size_t id, const Plan* plan, const std::string* hot,
                  ClientLog* log, SpanRecorder* rec) {
  KvsClient kvs(*h);
  Executor& ex = h->executor();
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::uint64_t req =
        (static_cast<std::uint64_t>(id) << 32) | static_cast<std::uint32_t>(r);
    const std::string key = client_key(id, plan->key[r]);
    const std::string& value = plan->value[r];
    const std::uint64_t round = rec->open("client.round", 0, req, &ex);
    int done = 0;
    try {
      std::uint64_t s = rec->open("KvsClient::put", round, req, &ex);
      co_await kvs.put(key, Json(value));
      rec->close(s, &ex);
      ++done;

      TimePoint t = ex.now();
      s = rec->open("KvsClient::commit", round, req, &ex);
      (void)co_await kvs.commit();
      rec->close(s, &ex);
      log->commit_us.push_back(us(ex.now() - t));
      log->acked = r + 1;
      ++done;

      t = ex.now();
      s = rec->open("KvsClient::get", round, req, &ex);
      Json own = co_await kvs.get(key);
      rec->close(s, &ex);
      log->get_us.push_back(us(ex.now() - t));
      ++done;
      if (!own.is_string() || own.as_string() != value) {
        ++log->failed_ops;
        log->errors.push_back("kvs-durable: read-your-writes violated on " + key);
      }

      t = ex.now();
      s = rec->open("KvsClient::get", round, req, &ex);
      Json shared = co_await kvs.get(kHotKey);
      rec->close(s, &ex);
      log->get_us.push_back(us(ex.now() - t));
      ++done;
      if (!shared.is_string() || shared.as_string() != *hot) {
        ++log->failed_ops;
        log->errors.push_back("kvs-durable: hot key read a wrong value");
      }
    } catch (const std::exception& e) {
      log->failed_ops += kOpsPerRound - done;
      log->errors.push_back(std::string("kvs-durable: op failed: ") + e.what());
    }
    rec->close(round, &ex);
  }
}

Task<void> seed_hot(Handle* h, std::string value, bool* ok) {
  KvsClient kvs(*h);
  co_await kvs.put(kHotKey, Json(std::move(value)));
  (void)co_await kvs.commit();
  *ok = true;
}

/// After the restart: first get (timed by the caller), then the audit.
Task<void> first_get(Handle* h, std::string key, bool* served) {
  KvsClient kvs(*h);
  (void)co_await kvs.get(std::move(key));
  *served = true;
}

Task<void> audit(Handle* h, const std::vector<Plan>* plans,
                 const std::vector<ClientLog>* logs, std::int64_t* lost,
                 std::int64_t* checked) {
  KvsClient kvs(*h);
  for (std::size_t c = 0; c < kClients; ++c) {
    if ((*logs)[c].acked == 0) continue;
    const std::size_t r = (*logs)[c].acked - 1;
    ++*checked;
    try {
      Json v = co_await kvs.get(client_key(c, (*plans)[c].key[r]));
      if (!v.is_string() || v.as_string() != (*plans)[c].value[r]) ++*lost;
    } catch (const std::exception&) {
      ++*lost;
    }
  }
}

/// Replay the log outside the session: recover, GC, hash, parse, dump.
void offline_probes(const std::string& path, Outcome& out, SpanRecorder& rec) {
  ContentStore store;
  FileLogBackend backend(path);
  const auto log_bytes = static_cast<double>(std::filesystem::file_size(path));
  auto t0 = HostClock::now();
  ContentBackend::Recovered recovered;
  {
    SpanScope s(rec, "FileLogBackend::recover");
    recovered = backend.recover(store);
  }
  const double recover_s = host_seconds_since(t0);
  backend.close();

  std::vector<ObjPtr> objects;
  std::size_t bytes = 0;
  store.for_each([&](const ObjPtr& o, std::uint64_t) {
    objects.push_back(o);
    bytes += o->bytes.size();
  });
  const double mb = static_cast<double>(bytes) / 1e6;

  t0 = HostClock::now();
  std::size_t bad_hash = 0;
  {
    SpanScope s(rec, "Sha1::of");
    for (const ObjPtr& o : objects)
      if (Sha1::of(o->bytes) != o->id) ++bad_hash;
  }
  const double sha1_s = host_seconds_since(t0);

  std::vector<Json> docs;
  docs.reserve(objects.size());
  std::size_t bad_parse = 0;
  t0 = HostClock::now();
  {
    SpanScope s(rec, "Json::parse");
    for (const ObjPtr& o : objects) {
      auto doc = Json::parse(o->bytes);
      if (!doc) {
        ++bad_parse;
        docs.emplace_back();
      } else {
        docs.push_back(std::move(*doc));
      }
    }
  }
  const double parse_s = host_seconds_since(t0);

  std::size_t bad_dump = 0;
  t0 = HostClock::now();
  {
    SpanScope s(rec, "Json::dump");
    for (std::size_t i = 0; i < docs.size(); ++i)
      if (docs[i].dump() != objects[i]->bytes) ++bad_dump;
  }
  const double dump_s = host_seconds_since(t0);

  GcOptions opt;
  opt.current_version = recovered.versions.empty() ? 0 : recovered.versions[0];
  opt.retention = 0;
  t0 = HostClock::now();
  GcStats gc;
  {
    SpanScope s(rec, "mark_and_sweep");
    gc = mark_and_sweep(store, recovered.roots, opt);
  }
  const double gc_s = host_seconds_since(t0);

  if (bad_hash + bad_parse + bad_dump != 0)
    out.fail("kvs-durable: recovered objects fail hash/parse/dump round trip",
             static_cast<std::int64_t>(bad_hash + bad_parse + bad_dump));
  out.layer["kvs.content.recover_ms"] = recover_s * 1e3;
  out.layer["kvs.content.recover_mb_per_s"] = log_bytes / 1e6 / recover_s;
  out.layer["kvs.content.gc_pause_ms"] = gc_s * 1e3;
  out.layer["kvs.content.gc_swept_ratio"] =
      objects.empty() ? 0
                      : static_cast<double>(gc.swept) /
                            static_cast<double>(objects.size());
  out.layer["hash.sha1_mb_per_s"] = mb / sha1_s;
  out.layer["json.parse_mb_per_s"] = mb / parse_s;
  out.layer["json.dump_mb_per_s"] = mb / dump_s;
  out.notes.push_back("kvs-durable: offline probes over " +
                      std::to_string(objects.size()) + " recovered objects (" +
                      std::to_string(bytes) + " bytes)");
}

}  // namespace

Outcome run_kvs_durable(const Options& opt, SpanRecorder& rec) {
  const std::vector<Plan> plans = make_plans(opt.seed);
  const std::string hot_value = Rng(opt.seed ^ 0x407ull).bytes(256);
  const std::string log_path =
      opt.out_dir + "/kvs-durable-" + std::to_string(::getpid()) + ".log";
  const SessionConfig cfg = durable_config(log_path, opt.seed);
  constexpr std::int64_t kOps =
      static_cast<std::int64_t>(kClients * kRounds) * kOpsPerRound;
  Outcome out;
  std::error_code ec;
  auto remove_log = [&] {
    std::filesystem::remove(log_path, ec);
    std::filesystem::remove(log_path + ".tmp", ec);
  };

  out.setup_s = time_setups(cfg, rec, remove_log);
  remove_log();

  std::vector<ClientLog> logs(kClients);
  out.attempted = kOps;
  Duration wireup{0}, phase_virtual{0};
  std::uint64_t events = 0;
  NetCount net;
  SessionLayers layers;
  {  // -- set-up, measured phase, clean shutdown --------------------------
    SimExecutor ex;
    std::unique_ptr<Session> session;
    {
      SpanScope s(rec, "Session::create_sim", 0, 0, &ex);
      session = Session::create_sim(ex, cfg);
    }
    {
      SpanScope s(rec, "Session::run_until_online", 0, 0, &ex);
      wireup = session->run_until_online();
    }
    std::vector<std::unique_ptr<Handle>> handles;
    handles.push_back(session->attach(0));
    bool hot_ok = false;
    co_spawn(ex, seed_hot(handles[0].get(), hot_value, &hot_ok), "pb.hot");
    ex.run();
    if (!hot_ok) out.fail("kvs-durable: could not write the hot key");

    for (std::size_t c = 0; c < kClients; ++c) {
      handles.push_back(session->attach(
          static_cast<NodeId>(2 * c % kBrokers)));
      co_spawn(ex,
               client(handles.back().get(), c, &plans[c], &hot_value, &logs[c],
                      &rec),
               "pb.client");
    }
    const NetCount net0 = net_count(*session);
    const std::uint64_t ev0 = ex.executed();
    const TimePoint v0 = ex.now();
    const auto h0 = HostClock::now();
    ex.run();
    out.phase_host_s = host_seconds_since(h0);
    phase_virtual = ex.now() - v0;
    events = ex.executed() - ev0;
    const NetCount net1 = net_count(*session);
    net = {net1.messages - net0.messages, net1.bytes - net0.bytes};
    if (opt.trace) layers = probe_session(ex, *session, rec);
    handles.clear();
    SpanScope s(rec, "Session::~Session", 0, 0, &ex);
    session.reset();  // clean shutdown: final checkpoint, log closed
  }
  const auto log_bytes = std::filesystem::file_size(log_path, ec);

  std::vector<double> commit_us, get_us;
  for (ClientLog& l : logs) {
    commit_us.insert(commit_us.end(), l.commit_us.begin(), l.commit_us.end());
    get_us.insert(get_us.end(), l.get_us.begin(), l.get_us.end());
    if (l.failed_ops > 0) out.fail(l.errors.front(), l.failed_ops);
  }
  const Summary commit = summarize(std::move(commit_us));
  const Summary get = summarize(std::move(get_us));

  double restart_online_ms = 0, restart_to_serving_ms = 0;
  {  // -- cold restart against the log; first get; audit ----------------
    SimExecutor ex;
    const auto h0 = HostClock::now();
    std::unique_ptr<Session> session;
    {
      SpanScope s(rec, "Session::create_sim", 0, 1, &ex);
      session = Session::create_sim(ex, cfg);
    }
    {
      SpanScope s(rec, "Session::run_until_online", 0, 1, &ex);
      session->run_until_online();
    }
    restart_online_ms = host_seconds_since(h0) * 1e3;
    auto h = session->attach(1);
    bool served = false;
    {
      SpanScope s(rec, "KvsClient::get", 0, 1, &ex);
      co_spawn(ex, first_get(h.get(), client_key(0, plans[0].key[0]), &served),
               "pb.first-get");
      ex.run();
    }
    restart_to_serving_ms = host_seconds_since(h0) * 1e3;
    if (!served) out.fail("kvs-durable: first get after restart not served");
    std::int64_t lost = 0, checked = 0;
    co_spawn(ex, audit(h.get(), &plans, &logs, &lost, &checked), "pb.audit");
    ex.run();
    if (lost > 0) out.fail("kvs-durable: acked writes lost across restart", lost);
    out.notes.push_back("kvs-durable: audit checked the last acked write of " +
                        std::to_string(checked) + " clients after the restart");
  }
  if (opt.trace) offline_probes(log_path, out, rec);
  remove_log();

  const double virtual_s = static_cast<double>(phase_virtual.count()) / 1e9;
  const auto commits = static_cast<double>(kClients * kRounds);
  out.e2e["host_ops_per_s"] = static_cast<double>(kOps) / out.phase_host_s;
  out.e2e["virtual_ops_per_s"] = static_cast<double>(kOps) / virtual_s;
  out.e2e["ack_p50_us"] = commit.p50;
  out.e2e["ack_p99_us"] = commit.p99;
  out.e2e["ack_max_ms"] = commit.max / 1e3;
  out.e2e["result_p50_us"] = get.p50;
  out.e2e["result_p99_us"] = get.p99;
  out.e2e["result_max_ms"] = get.max / 1e3;

  out.report = {{"host_ops_per_s", out.e2e["host_ops_per_s"], "ops/s"},
                {"virtual_ops_per_s", out.e2e["virtual_ops_per_s"], "ops/s"},
                {"commit_p50_us", commit.p50, "us"},
                {"commit_p99_us", commit.p99, "us"},
                {"get_p50_us", get.p50, "us"},
                {"get_p99_us", get.p99, "us"},
                {"restart_to_serving_ms", restart_to_serving_ms, "ms"}};
  out.notes.push_back("kvs-durable: " + std::to_string(kOps) +
                      " ops; commit percentiles over " +
                      std::to_string(commit.n) + " commits, get over " +
                      std::to_string(get.n) + " gets");

  out.layer["broker.wireup_us"] = us(wireup);
  out.layer["broker.restart_online_ms"] = restart_online_ms;
  out.layer["net.messages"] = static_cast<double>(net.messages);
  out.layer["net.bytes"] = static_cast<double>(net.bytes);
  out.layer["net.messages_per_op"] =
      static_cast<double>(net.messages) / static_cast<double>(kOps);
  out.layer["net.bytes_per_op"] =
      static_cast<double>(net.bytes) / static_cast<double>(kOps);
  out.layer["exec.events"] = static_cast<double>(events);
  out.layer["exec.host_ns_per_event"] =
      out.phase_host_s * 1e9 / static_cast<double>(events);
  out.layer["kvs.restart_to_serving_ms"] = restart_to_serving_ms;
  out.layer["kvs.content.log_bytes_per_commit"] =
      static_cast<double>(log_bytes) / commits;
  if (opt.trace) {
    add_session_layers(out, layers);
    out.layer["kvs.content.checkpoints"] =
        static_cast<double>(layers.kvs_master.get_int("checkpoints", 0));
    out.layer["kvs.content.gc_passes"] =
        static_cast<double>(layers.kvs_master.get_int("gc_passes", 0));
  }
  return out;
}

}  // namespace perfbench

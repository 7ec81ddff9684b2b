// jobs: the job pipeline, job-ingest -> job-manager -> sched -> resvc ->
// wexec, with a KVS eventlog commit at every transition.
//
// 64 brokers, 32 closed-loop submitters, each doing submit() then wait()
// for its share of 1000 jobs of 1-8 nodes and 100 us - 2 ms walltime, so
// the scheduler queues and backfills. The seed orders that fixed mix of
// shapes and seeds a 100 ns delivery jitter of the schedule.
// Every transition commits into the one job directory, which grows with
// the number of jobs; the run is sized so that the per-job host cost of the
// last tenth of jobs is several times that of the first (jobs.host_growth),
// and short enough that a run holds about ten repetitions.
#include <algorithm>
#include <set>

#include "api/handle.hpp"
#include "api/job_client.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace flux;

constexpr std::uint32_t kBrokers = 64;
constexpr std::size_t kSubmitters = 32;
constexpr int kJobs = 1000;

struct Shape {
  std::int64_t nnodes = 1;
  Duration walltime{0};
};

/// Every seed runs the same mix of shapes (each of 8 node counts x 5
/// walltimes equally often) in its own seeded order, so seeds differ in
/// schedule, not in the amount of work.
std::vector<std::vector<Shape>> make_plans(std::uint64_t seed) {
  static constexpr std::int64_t kWalltimeUs[] = {100, 200, 500, 1000, 2000};
  std::vector<Shape> mix;
  for (int j = 0; j < kJobs; ++j)
    mix.push_back({1 + j % 8, std::chrono::microseconds(kWalltimeUs[(j / 8) % 5])});
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  for (std::size_t i = mix.size() - 1; i > 0; --i)
    std::swap(mix[i], mix[rng.below(i + 1)]);
  std::vector<std::vector<Shape>> plans(kSubmitters);
  for (std::size_t j = 0; j < mix.size(); ++j)
    plans[j % kSubmitters].push_back(mix[j]);
  return plans;
}

/// One job as the submitter saw it.
struct JobRecord {
  std::uint64_t id = 0;
  std::int64_t t_call = 0, t_ack = 0, t_done = 0;  ///< virtual ns
  bool ok = false;
  std::uint64_t span = 0;
  std::uint64_t req = 0;
};

struct Shared {
  std::vector<HostClock::time_point> done_host;  ///< host time per completion
  std::vector<std::string> errors;
  std::int64_t failed = 0;
};

bool clean_exit(const JobResult& r) {
  if (r.state != JobState::Complete || !r.success || !r.exits.is_object())
    return false;
  for (const auto& [code, count] : r.exits.as_object())
    if (code != "0" || !count.is_number()) return false;
  return true;
}

Task<void> submitter(Handle* h, int w, const std::vector<Shape>* plan,
                     std::vector<JobRecord>* jobs, Shared* sh,
                     SpanRecorder* rec) {
  Executor& ex = h->executor();
  for (std::size_t i = 0; i < plan->size(); ++i) {
    JobRecord& jr = (*jobs)[i];
    jr.req = static_cast<std::uint64_t>(i) * kSubmitters +
             static_cast<std::uint64_t>(w);
    jr.span = rec->open("job", 0, jr.req, &ex);
    try {
      jr.t_call = ex.now().count();
      std::uint64_t s = rec->open("JobBuilder::submit", jr.span, jr.req, &ex);
      JobHandle jh = co_await h->job()
                         .name("perfbench")
                         .nnodes((*plan)[i].nnodes)
                         .walltime((*plan)[i].walltime)
                         .submit();
      rec->close(s, &ex);
      jr.t_ack = ex.now().count();
      jr.id = jh.id();
      s = rec->open("JobHandle::wait", jr.span, jr.req, &ex);
      JobResult r = co_await jh.wait();
      rec->close(s, &ex);
      jr.t_done = ex.now().count();
      jr.ok = clean_exit(r);
      if (!jr.ok) {
        ++sh->failed;
        sh->errors.push_back("jobs: job " + std::to_string(jr.id) +
                             " ended " + std::string(job_state_name(r.state)) +
                             " or with a non-zero exit");
      }
    } catch (const std::exception& e) {
      ++sh->failed;
      sh->errors.push_back(std::string("jobs: submit/wait failed: ") + e.what());
    }
    rec->close(jr.span, &ex);
    sh->done_host.push_back(HostClock::now());
  }
}

/// Eventlog timestamps of each job's transitions (after the measured phase).
struct Stamps {
  std::int64_t submit = -1, alloc = -1, start = -1, finish = -1;
};

Task<void> read_eventlogs(Handle* h, const std::vector<JobRecord>* jobs,
                          std::vector<Stamps>* out, SpanRecorder* rec) {
  Executor& ex = h->executor();
  for (std::size_t i = 0; i < jobs->size(); ++i) {
    const JobRecord& jr = (*jobs)[i];
    if (jr.id == 0) continue;
    const std::uint64_t s = rec->open("JobHandle::events", 0, jr.req, &ex);
    Json log = co_await JobHandle(*h, jr.id).events();
    rec->close(s, &ex);
    if (!log.is_array()) continue;
    Stamps& st = (*out)[i];
    for (const Json& e : log.as_array()) {
      const std::string name = e.get_string("name");
      const std::int64_t t = e.get_int("t", -1);
      if (name == "submit") st.submit = t;
      else if (name == "alloc") st.alloc = t;
      else if (name == "start") st.start = t;
      else if (name == "finish") st.finish = t;
    }
  }
}

/// Layer probes after the measured phase: the stats RPCs and every job's
/// eventlog, from which the pipeline's stages are derived.
void probe_jobs(SimExecutor& ex, Session& session,
                std::vector<std::unique_ptr<Handle>>& handles,
                std::vector<std::vector<JobRecord>>& jobs, double completed,
                Outcome& out, SpanRecorder& rec) {
  const SessionLayers l = probe_session(ex, session, rec);
  add_session_layers(out, l);
  out.layer["kvs.commits_per_job"] =
      static_cast<double>(l.kvs_master.get_int("apply_batched_fences", 0)) /
      completed;
  out.layer["kvs.store_bytes_per_job"] =
      static_cast<double>(l.kvs_master.get_int("store_bytes", 0)) / completed;

  Json jm;
  auto root = session.attach(0);  // job-manager's stats live on rank 0
  co_spawn(ex, [](Handle* h, Json* o, SpanRecorder* r) -> Task<void> {
    const std::uint64_t s = r->open("rpc job-manager.stats.get", 0, 0, &h->executor());
    Message resp = co_await h->request("job-manager.stats.get").call();
    *o = resp.payload();
    r->close(s, &h->executor());
  }(root.get(), &jm, &rec), "pb.jm-stats");
  ex.run();
  const Json& hists = jm.at("histograms");
  if (hists.is_object()) {
    if (hists.at("job-manager.alloc_ns").is_object())
      out.layer["sched.alloc_mean_us"] =
          hists.at("job-manager.alloc_ns").get_double("mean", 0.0) / 1e3;
    if (hists.at("job-manager.queue_depth").is_object())
      out.layer["jobs.queue_depth_mean"] =
          hists.at("job-manager.queue_depth").get_double("mean", 0.0);
  }

  std::vector<std::vector<Stamps>> stamps(jobs.size());
  for (std::size_t w = 0; w < jobs.size(); ++w) {
    stamps[w].resize(jobs[w].size());
    co_spawn(ex, read_eventlogs(handles[w].get(), &jobs[w], &stamps[w], &rec),
             "pb.eventlogs");
  }
  ex.run();
  std::vector<double> ingest, queue, run, foldback;
  std::int64_t missing = 0;
  for (std::size_t w = 0; w < jobs.size(); ++w)
    for (std::size_t i = 0; i < jobs[w].size(); ++i) {
      const JobRecord& jr = jobs[w][i];
      const Stamps& st = stamps[w][i];
      if (!jr.ok) continue;
      if (st.submit < 0 || st.alloc < 0 || st.start < 0 || st.finish < 0) {
        ++missing;
        continue;
      }
      ingest.push_back(static_cast<double>(st.submit - jr.t_call) / 1e3);
      queue.push_back(static_cast<double>(st.alloc - st.submit) / 1e3);
      run.push_back(static_cast<double>(st.finish - st.start) / 1e3);
      foldback.push_back(static_cast<double>(jr.t_done - st.finish) / 1e3);
      rec.add_virtual("job.ingest", jr.span, jr.req, jr.t_call, st.submit);
      rec.add_virtual("job.queue", jr.span, jr.req, st.submit, st.alloc);
      rec.add_virtual("job.run", jr.span, jr.req, st.start, st.finish);
      rec.add_virtual("job.foldback", jr.span, jr.req, st.finish, jr.t_done);
    }
  if (missing > 0)
    out.fail("jobs: eventlog lacks submit/alloc/start/finish", missing);
  const Summary si = summarize(ingest), sq = summarize(queue),
                sr = summarize(run), sf = summarize(foldback);
  out.layer["jobs.ingest_p50_us"] = si.p50;
  out.layer["jobs.ingest_p99_us"] = si.p99;
  out.layer["jobs.queue_p50_us"] = sq.p50;
  out.layer["jobs.queue_p99_us"] = sq.p99;
  out.layer["jobs.run_p50_us"] = sr.p50;
  out.layer["jobs.foldback_p99_us"] = sf.p99;
}

}  // namespace

Outcome run_jobs(const Options& opt, SpanRecorder& rec) {
  const auto plans = make_plans(opt.seed);
  SessionConfig cfg;
  cfg.size = kBrokers;
  cfg.seed = opt.seed;
  cfg.net.jitter_max = Duration{100};  // seeded schedule, as in kap
  cfg.net.jitter_seed = opt.seed;
  Outcome out;
  out.setup_s = time_setups(cfg, rec);

  out.attempted = kJobs;
  SimExecutor ex;
  std::unique_ptr<Session> session;
  {
    SpanScope s(rec, "Session::create_sim", 0, 0, &ex);
    session = Session::create_sim(ex, cfg);
  }
  Duration wireup{0};
  {
    SpanScope s(rec, "Session::run_until_online", 0, 0, &ex);
    wireup = session->run_until_online();
  }

  std::vector<std::vector<JobRecord>> jobs(kSubmitters);
  Shared sh;
  sh.done_host.reserve(kJobs);
  std::vector<std::unique_ptr<Handle>> handles;
  for (std::size_t w = 0; w < kSubmitters; ++w) {
    jobs[w].resize(plans[w].size());
    handles.push_back(session->attach(
        static_cast<NodeId>(1 + static_cast<std::uint32_t>(w) % (kBrokers - 1))));
    co_spawn(ex,
             submitter(handles.back().get(), static_cast<int>(w), &plans[w],
                       &jobs[w], &sh, &rec),
             "pb.submitter");
  }
  const NetCount net0 = net_count(*session);
  const std::uint64_t ev0 = ex.executed();
  const TimePoint v0 = ex.now();
  const auto h0 = HostClock::now();
  ex.run();
  out.phase_host_s = host_seconds_since(h0);
  const Duration makespan = ex.now() - v0;
  const std::uint64_t events = ex.executed() - ev0;
  const NetCount net1 = net_count(*session);

  // -- checks: every job Complete with exit 0; jobids unique, increasing --
  if (sh.failed > 0) out.fail(sh.errors.front(), sh.failed);
  std::vector<double> ack_us, turnaround_us;
  std::set<std::uint64_t> ids;
  for (const auto& list : jobs) {
    std::uint64_t prev = 0;
    for (const JobRecord& jr : list) {
      if (jr.id == 0) continue;
      if (jr.id <= prev) out.fail("jobs: jobids not increasing per submitter");
      if (!ids.insert(jr.id).second) out.fail("jobs: duplicate jobid");
      prev = jr.id;
      if (!jr.ok) continue;
      ack_us.push_back(static_cast<double>(jr.t_ack - jr.t_call) / 1e3);
      turnaround_us.push_back(static_cast<double>(jr.t_done - jr.t_call) / 1e3);
    }
  }
  const double completed = static_cast<double>(turnaround_us.size());
  const Summary ack = summarize(std::move(ack_us));
  const Summary turnaround = summarize(std::move(turnaround_us));

  // -- per-job host cost, first and last tenth of completions --------------
  const std::size_t n = sh.done_host.size();
  const std::size_t tenth = n / 10;
  if (tenth > 0) {
    auto span_us = [](HostClock::time_point a, HostClock::time_point b) {
      return std::chrono::duration<double, std::micro>(b - a).count();
    };
    const double first =
        span_us(h0, sh.done_host[tenth - 1]) / static_cast<double>(tenth);
    const double last = span_us(sh.done_host[n - 1 - tenth], sh.done_host[n - 1]) /
                        static_cast<double>(tenth);
    out.layer["jobs.host_us_per_job_first"] = first;
    out.layer["jobs.host_us_per_job_last"] = last;
    out.layer["jobs.host_growth"] = last / first;
  }

  if (opt.trace) probe_jobs(ex, *session, handles, jobs, completed, out, rec);

  const double makespan_s = static_cast<double>(makespan.count()) / 1e9;
  out.e2e["host_ops_per_s"] = completed / out.phase_host_s;
  out.e2e["virtual_ops_per_s"] = completed / makespan_s;
  out.e2e["ack_p50_us"] = ack.p50;
  out.e2e["ack_p99_us"] = ack.p99;
  out.e2e["ack_max_ms"] = ack.max / 1e3;
  out.e2e["result_p50_us"] = turnaround.p50;
  out.e2e["result_p99_us"] = turnaround.p99;
  out.e2e["result_max_ms"] = turnaround.max / 1e3;

  out.report = {{"host_jobs_per_s", out.e2e["host_ops_per_s"], "jobs/s"},
                {"virtual_jobs_per_s", out.e2e["virtual_ops_per_s"], "jobs/s"},
                {"turnaround_p50_us", turnaround.p50, "us"},
                {"turnaround_p99_us", turnaround.p99, "us"}};
  out.notes.push_back("jobs: " + std::to_string(kJobs) +
                      " jobs; percentiles over " +
                      std::to_string(turnaround.n) + " completed jobs");

  out.layer["broker.wireup_us"] = us(wireup);
  out.layer["net.messages"] = static_cast<double>(net1.messages - net0.messages);
  out.layer["net.bytes"] = static_cast<double>(net1.bytes - net0.bytes);
  out.layer["net.messages_per_job"] =
      static_cast<double>(net1.messages - net0.messages) / completed;
  out.layer["exec.events"] = static_cast<double>(events);
  out.layer["exec.host_ns_per_event"] =
      out.phase_host_s * 1e9 / static_cast<double>(events);
  return out;
}

}  // namespace perfbench

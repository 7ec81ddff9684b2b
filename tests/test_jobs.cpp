// The job lifecycle pipeline: ingest -> queue -> schedule -> execute ->
// complete, with every transition folded into the KVS, fronted by the fluent
// h.job() client API (ctest -L jobs).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>

#include "api/job_client.hpp"
#include "fault/injector.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

/// Submit `n` short synthetic 1-node jobs back to back, then wait for every
/// one; returns their ids in submission order.
Task<std::vector<std::uint64_t>> run_jobs(Handle* hd, int n) {
  std::vector<JobHandle> handles;
  for (int i = 0; i < n; ++i) {
    JobHandle jh = co_await hd->job()
                       .nnodes(1)
                       .walltime(std::chrono::microseconds(10))
                       .submit();
    handles.push_back(jh);
  }
  std::vector<std::uint64_t> ids;
  for (JobHandle& jh : handles) {
    (void)co_await jh.wait();
    ids.push_back(jh.id());
  }
  co_return ids;
}

/// Walk the KVS tree under `dir`; records the entry count of every directory
/// into `sizes` (leaves answer list_dir with ENOTDIR).
Task<void> dir_sizes(KvsClient* kvs, std::string dir,
                     std::map<std::string, std::size_t>* sizes) {
  std::vector<std::string> names;
  try {
    names = co_await kvs->list_dir(dir);
  } catch (const FluxException& e) {
    if (e.error().code != errc::not_dir) throw;
    co_return;
  }
  (*sizes)[dir] = names.size();
  for (const std::string& n : names)
    co_await dir_sizes(kvs, dir + "." + n, sizes);
}

TEST(JobKvsDir, RadixPathComponents) {
  struct Case {
    std::uint64_t id;
    const char* want;
  };
  const Case cases[] = {
      {1, "job.0.0.1"},
      {63, "job.0.0.63"},
      {64, "job.0.1.64"},
      {4095, "job.0.63.4095"},
      {4096, "job.1.0.4096"},
      {262143, "job.63.63.262143"},
      {262144, "job.64.0.262144"},
      {UINT64_MAX, "job.4503599627370495.63.18446744073709551615"},
  };
  for (const Case& c : cases) EXPECT_EQ(job_kvs_dir("job", c.id), c.want);
  EXPECT_EQ(job_kvs_dir("lwj", 4096), "lwj.1.0.4096");
}

TEST(Jobs, SubmitWaitComplete) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(5);
  JobResult r = s.run([](Handle* hd) -> Task<JobResult> {
    Json args = Json::object({{"text", "hi"}});  // hoisted (gcc 12 + co_await)
    JobHandle jh = co_await hd->job()
                       .name("hello")
                       .command("echo", std::move(args))
                       .nnodes(2)
                       .walltime(std::chrono::milliseconds(1))
                       .submit();
    if (!jh.valid()) throw FluxException(Error(errc::proto, "invalid handle"));
    JobResult out = co_await jh.wait();
    co_return out;
  }(h.get()));
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.ntasks, 2);
  EXPECT_EQ(r.exits.get_int("0"), 2);
}

TEST(Jobs, LifecycleFoldedIntoKvs) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle jh = co_await hd->job().nnodes(2).submit();
    (void)co_await jh.wait();
    // Everything under job.<id>.: jobspec, state, ranks, result, stdio ref,
    // and the event log recording every transition in order.
    KvsClient kvs(*hd);
    const std::string base = jh.kvs_dir();
    Json spec = co_await kvs.get(base + ".jobspec");
    if (spec.get_int("request", -1) == -1 && !spec.contains("request"))
      throw FluxException(Error(errc::proto, "jobspec not folded back"));
    Json state = co_await kvs.get(base + ".state");
    if (state != Json("complete"))
      throw FluxException(Error(errc::proto, "state not complete"));
    Json ranks = co_await kvs.get(base + ".ranks");
    if (ranks.size() != 2)
      throw FluxException(Error(errc::proto, "ranks not folded back"));
    Json result = co_await kvs.get(base + ".result");
    if (!result.get_bool("success"))
      throw FluxException(Error(errc::proto, "result not folded back"));
    Json stdio = co_await kvs.get(base + ".stdio");
    (void)co_await kvs.get(stdio.as_string() + ".0.exitcode");

    Json log = co_await jh.events();
    std::vector<std::string> names;
    for (const Json& e : log.as_array()) names.push_back(e.get_string("name"));
    const std::vector<std::string> want{"submit", "alloc", "start", "finish"};
    if (names != want)
      throw FluxException(Error(errc::proto, "unexpected event sequence"));
    // Timestamps are monotone.
    std::int64_t last = -1;
    for (const Json& e : log.as_array()) {
      if (e.get_int("t") < last)
        throw FluxException(Error(errc::proto, "eventlog time regression"));
      last = e.get_int("t");
    }
  }(h.get()));
}

TEST(Jobs, WatchDrivenStateObservation) {
  // The existing KVS watch machinery observes job state transitions — no
  // polling API needed.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  std::vector<std::string> states;
  s.run([](Handle* hd, std::vector<std::string>* out) -> Task<void> {
    KvsClient kvs(*hd);
    JobHandle jh = co_await hd->job().command("spin").nnodes(1).submit();
    WatchHandle w = kvs.watch(jh.kvs_dir() + ".state",
                              [out](const std::optional<Json>& v) {
                                if (v) out->push_back(v->as_string());
                              });
    while (co_await jh.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    co_await jh.cancel();
    (void)co_await jh.wait();
    co_await hd->sleep(std::chrono::milliseconds(1));  // drain watch refresh
  }(h.get(), &states));
  ASSERT_GE(states.size(), 2u);
  EXPECT_EQ(states.back(), "canceled");
}

TEST(Jobs, CancelPendingJob) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    // Occupy the whole session so the next job stays Pending.
    JobHandle blocker = co_await hd->job().command("spin").nnodes(4).submit();
    JobHandle queued = co_await hd->job().nnodes(4).submit();
    if (co_await queued.state() != JobState::Pending)
      throw FluxException(Error(errc::proto, "expected queued job pending"));
    co_await queued.cancel();
    JobResult r = co_await queued.wait();
    if (r.state != JobState::Canceled)
      throw FluxException(Error(errc::proto, "cancel did not stick"));
    co_await blocker.cancel();
    (void)co_await blocker.wait();
  }(h.get()));
}

TEST(Jobs, PriorityOrdersPendingQueue) {
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(1);
  // While a blocker holds every node, submit low-priority then high-priority
  // full-width jobs; the high-priority one must run (and finish) first.
  std::vector<std::uint64_t> finish_order;
  s.run([](Handle* hd, std::vector<std::uint64_t>* order) -> Task<void> {
    JobHandle blocker = co_await hd->job().command("spin").nnodes(2).submit();
    while (co_await blocker.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    JobHandle low = co_await hd->job().nnodes(2).priority(0).submit();
    JobHandle high = co_await hd->job().nnodes(2).priority(10).submit();
    co_await blocker.cancel();
    (void)co_await blocker.wait();
    KvsClient kvs(*hd);
    (void)co_await low.wait();
    (void)co_await high.wait();
    // Reconstruct execution order from the committed eventlogs.
    auto start_time = [](const Json& log) -> std::int64_t {
      for (const Json& e : log.as_array())
        if (e.get_string("name") == "start") return e.get_int("t");
      return -1;
    };
    Json llog = co_await low.events();
    Json hlog = co_await high.events();
    if (start_time(hlog) >= start_time(llog))
      throw FluxException(Error(errc::proto, "priority did not reorder"));
    order->push_back(high.id());
    order->push_back(low.id());
  }(h.get(), &finish_order));
  ASSERT_EQ(finish_order.size(), 2u);
}

TEST(Jobs, AdmissionControlRejectsWhenQueueFull) {
  SessionConfig cfg = SimSession::default_config(2);
  cfg.module_config =
      Json::object({{"job-manager", Json::object({{"max_queue", 1}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle blocker = co_await hd->job().command("spin").nnodes(2).submit();
    while (co_await blocker.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    JobHandle queued = co_await hd->job().nnodes(2).submit();  // fills queue
    try {
      (void)co_await hd->job().nnodes(2).submit();
      throw FluxException(Error(errc::proto, "over-admission"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::job_rejected) throw;
    }
    co_await blocker.cancel();
    co_await queued.cancel();
    (void)co_await blocker.wait();
    (void)co_await queued.wait();
  }(h.get()));
}

TEST(Jobs, InfeasibleRequestIsUnsatisfiable) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  s.run([](Handle* hd) -> Task<void> {
    try {
      (void)co_await hd->job().nnodes(5).submit();  // session has 4 nodes
      throw FluxException(Error(errc::proto, "impossible job accepted"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::alloc_unsatisfiable) throw;
    }
  }(h.get()));
}

TEST(Jobs, MalformedSpecRejectedAtFirstHop) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    try {
      (void)co_await hd->job().nnodes(0).submit();
    } catch (const FluxException& e) {
      if (e.error().code != errc::job_rejected) throw;
      co_return;
    }
    throw FluxException(Error(errc::proto, "invalid jobspec accepted"));
  }(h.get()));
}

TEST(Jobs, UnknownJobErrors) {
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle ghost(*hd, 424242);
    for (int op = 0; op < 3; ++op) {
      try {
        if (op == 0)
          (void)co_await ghost.state();
        else if (op == 1)
          (void)co_await ghost.wait();
        else
          co_await ghost.cancel();
        throw FluxException(Error(errc::proto, "ghost job answered"));
      } catch (const FluxException& e) {
        if (e.error().code != errc::job_unknown) throw;
      }
    }
  }(h.get()));
}

TEST(Jobs, StatsExposedThroughRegistry) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  Json stats = s.run([](Handle* hd) -> Task<Json> {
    for (int i = 0; i < 3; ++i) {
      JobHandle jh = co_await hd->job().nnodes(1).submit();
      (void)co_await jh.wait();
    }
    // All job-manager state lives at the root; ask its registry directly
    // (the aggregated path is obs::FluxStats / `flux stats job-manager`).
    Message resp =
        co_await hd->request("job-manager.stats.get").to(0).call();
    co_return resp.payload();
  }(h.get()));
  const Json& counters = stats.at("counters");
  EXPECT_EQ(counters.get_int("job-manager.submitted"), 3);
  EXPECT_EQ(counters.get_int("job-manager.completed"), 3);
  EXPECT_EQ(counters.get_int("job-manager.sched.completed"), 3);
  EXPECT_GE(counters.get_int("job-manager.sched.passes"), 1);
  const Json& hists = stats.at("histograms");
  EXPECT_EQ(hists.at("job-manager.alloc_ns").get_int("count"), 3);
  EXPECT_EQ(stats.get_int("queue_depth", -1), 0);
  EXPECT_EQ(stats.get_int("running", -1), 0);
}

TEST(Jobs, JobDirectoriesStayBounded) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  std::map<std::string, std::size_t> sizes;
  std::vector<std::uint64_t> ids =
      s.run([](Handle* hd, std::map<std::string, std::size_t>* out)
                -> Task<std::vector<std::uint64_t>> {
        std::vector<std::uint64_t> done = co_await run_jobs(hd, 300);
        KvsClient kvs(*hd);
        co_await dir_sizes(&kvs, "job", out);
        co_await dir_sizes(&kvs, "lwj", out);
        co_return done;
      }(h.get(), &sizes));
  ASSERT_EQ(ids.size(), 300u);
  for (const auto& [dir, n] : sizes) EXPECT_LE(n, 64u) << dir;
  // Every job's record and capture directory is present under the layout.
  for (std::uint64_t id : ids) {
    EXPECT_TRUE(sizes.contains(job_kvs_dir("job", id))) << id;
    EXPECT_TRUE(sizes.contains(job_kvs_dir("lwj", id))) << id;
  }
}

TEST(Jobs, EvictedJobAnsweredFromKvs) {
  // The manager keeps the last 1024 terminal jobs in memory; older ones are
  // answered from their KVS record (job-manager's answer_from_kvs).
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(1);
  s.run([](Handle* hd) -> Task<void> {
    std::vector<std::uint64_t> ids = co_await run_jobs(hd, 1100);
    if (ids.front() != 1)
      throw FluxException(Error(errc::proto, "first jobid is not 1"));
    Message list = co_await hd->request("job-manager.list").call();
    for (const Json& j : list.payload().at("jobs").as_array())
      if (j.get_int("id") == 1)
        throw FluxException(Error(errc::proto, "job 1 was not evicted"));
    JobHandle first(*hd, 1);
    JobResult r = co_await first.wait();
    if (r.id != 1 || r.state != JobState::Complete || !r.success)
      throw FluxException(Error(errc::proto, "evicted wait answered wrong"));
    if (co_await first.state() != JobState::Complete)
      throw FluxException(Error(errc::proto, "evicted state answered wrong"));
    // The answer is the record stored under the radix layout.
    KvsClient kvs(*hd);
    Json result = co_await kvs.get(job_kvs_dir("job", 1) + ".result");
    if (result.get_int("id") != 1)
      throw FluxException(Error(errc::proto, "no result under job dir"));
  }(h.get()));
}

TEST(Jobs, BrokerCrashMidJobNeverOrphansAllocation) {
  // The chaos acceptance scenario: a broker dies while its rank runs job
  // tasks. The job must end Failed, the allocation must return to the
  // scheduler's pool, and the event log must say why.
  SessionConfig cfg = SimSession::default_config(8);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  SimSession s(cfg);
  auto h = s.attach(0);

  // The crash must land while the job runs, so inject it from inside the
  // simulation: SimSession::run drains to idle, which would otherwise march
  // virtual time through the job's whole lifetime before we ever pulled the
  // plug.
  JobHandle jh;
  JobResult r = s.run([](SimSession* sim, Handle* hd,
                         JobHandle* out) -> Task<JobResult> {
    JobHandle j = co_await hd->job().command("spin").nnodes(3).submit();
    while (co_await j.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    KvsClient kvs(*hd);
    Json ranks = co_await kvs.get(j.kvs_dir() + ".ranks");
    // Kill a non-root participant mid-run.
    NodeId victim = 0;
    for (const Json& rk : ranks.as_array())
      if (rk.as_int() != 0) victim = static_cast<NodeId>(rk.as_int());
    if (victim == 0)
      throw FluxException(Error(errc::proto, "no non-root rank allocated"));
    sim->session().fail(victim);
    *out = j;
    co_return co_await j.wait();  // node_down detection must unpark this
  }(&s, h.get(), &jh));
  EXPECT_EQ(r.state, JobState::Failed);

  // Allocation returned: everything except the dead node is free again.
  s.run([](Handle* hd, JobHandle j) -> Task<void> {
    Message resp = co_await hd->request("job-manager.stats.get").call();
    const Json& p = resp.payload();
    if (p.get_int("nodes_free") != 7)
      throw FluxException(Error(errc::proto, "allocation orphaned"));
    if (p.get_int("nodes_down") != 1)
      throw FluxException(Error(errc::proto, "dead node not excluded"));
    if (p.get_int("nodes_free") + p.get_int("nodes_down") !=
            p.get_int("nodes_total") ||
        p.get_int("running") != 0)
      throw FluxException(Error(errc::proto, "allocation leaked"));
    Json log = co_await j.events();
    bool node_down = false;
    for (const Json& e : log.as_array())
      if (e.get_string("name") == "node_down") node_down = true;
    if (!node_down)
      throw FluxException(
          Error(errc::proto, "no node_down event in " + log.dump()));
    // And the session still runs new jobs on the surviving nodes.
    JobHandle next = co_await hd->job().nnodes(2).submit();
    JobResult nr = co_await next.wait();
    if (nr.state != JobState::Complete)
      throw FluxException(Error(errc::proto, "session wedged after crash"));
  }(h.get(), jh));
}

/// Heartbeat fast enough that a failed broker is declared dead within a
/// millisecond of virtual time.
SessionConfig failure_config(std::uint32_t size) {
  SessionConfig cfg = SimSession::default_config(size);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  return cfg;
}

/// The `name` event's virtual timestamp in a job's eventlog (-1 if absent).
std::int64_t event_time(const Json& log, std::string_view name) {
  for (const Json& e : log.as_array())
    if (e.get_string("name") == name) return e.get_int("t");
  return -1;
}

TEST(Jobs, DeadRankLeavesThePool) {
  // An idle rank dies: the scheduler's pool drops exactly that node, so no
  // later job is placed on it and a full-width job can never fit.
  SimSession s(failure_config(4));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(2);  // first-fit would otherwise place a 3-node job on it
  s.settle(std::chrono::milliseconds(3));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    Message st = co_await hd->request("job-manager.stats.get").call();
    if (st.payload().get_int("nodes_total") != 4 ||
        st.payload().get_int("nodes_down") != 1 ||
        st.payload().get_int("nodes_free") != 3)
      throw FluxException(
          Error(errc::proto, "ledger after death: " + st.payload().dump()));
    KvsClient kvs(*hd);
    for (int i = 0; i < 3; ++i) {
      JobHandle j = co_await hd->job().command("hostname").nnodes(3).submit();
      JobResult r = co_await j.wait();
      if (r.state != JobState::Complete)
        throw FluxException(Error(errc::proto, "3-node job did not complete"));
      Json ranks = co_await kvs.get(j.kvs_dir() + ".ranks");
      for (const Json& rk : ranks.as_array())
        if (rk.as_int() == 2)
          throw FluxException(Error(errc::proto, "job placed on dead rank"));
    }
    try {
      (void)co_await hd->job().nnodes(4).submit();
      throw FluxException(Error(errc::proto, "full-width job accepted"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::alloc_unsatisfiable) throw;
    }
  }(h.get()));
}

TEST(Jobs, QueuedJobThatNoLongerFitsFails) {
  // A full-width job queues behind a 3-node job; then the idle fourth rank
  // dies. The queued job can never run, so it fails without an allocation
  // instead of pending forever.
  SimSession s(failure_config(4));
  s.settle(std::chrono::milliseconds(1));
  auto h = s.attach(0);
  s.run([](SimSession* sim, Handle* hd) -> Task<void> {
    JobHandle a = co_await hd->job()
                      .nnodes(3)
                      .walltime(std::chrono::milliseconds(5))
                      .submit();
    JobHandle b = co_await hd->job().nnodes(4).submit();
    while (co_await a.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(100));
    sim->session().fail(3);  // a holds ranks 0-2
    // Bounded: a job left pending would otherwise park wait() forever.
    JobState sb = JobState::Pending;
    for (int i = 0; i < 100 && sb == JobState::Pending; ++i) {
      co_await hd->sleep(std::chrono::microseconds(200));
      sb = co_await b.state();
    }
    if (sb == JobState::Pending)
      throw FluxException(Error(errc::proto, "unfit job still pending"));
    JobResult rb = co_await b.wait();
    if (rb.state != JobState::Failed)
      throw FluxException(Error(errc::proto, "unfit job did not fail"));
    const Json log = co_await b.events();
    if (event_time(log, "alloc") != -1)
      throw FluxException(
          Error(errc::proto, "unfit job was allocated: " + log.dump()));
    JobResult ra = co_await a.wait();
    if (ra.state != JobState::Complete)
      throw FluxException(Error(errc::proto, "running job did not complete"));
  }(&s, h.get()));
}

TEST(Jobs, FullWidthJobsRunInSubmitOrder) {
  // Two jobs that each need the whole session: the second waits for the
  // first, and both leave an exit code for every rank.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle a = co_await hd->job().command("hostname").nnodes(4).submit();
    JobHandle b = co_await hd->job().command("hostname").nnodes(4).submit();
    const std::array<JobHandle*, 2> both{&a, &b};
    for (JobHandle* j : both) {
      JobResult r = co_await j->wait();
      if (r.state != JobState::Complete || r.ntasks != 4)
        throw FluxException(Error(errc::proto, "full-width job failed"));
    }
    const Json log_a = co_await a.events();
    const Json log_b = co_await b.events();
    if (event_time(log_b, "alloc") < event_time(log_a, "finish"))
      throw FluxException(Error(errc::proto, "second job overtook the first"));
    KvsClient kvs(*hd);
    for (JobHandle* j : both) {
      Json stdio = co_await kvs.get(j->kvs_dir() + ".stdio");
      for (int r = 0; r < 4; ++r) {
        Json code = co_await kvs.get(stdio.as_string() + "." +
                                     std::to_string(r) + ".exitcode");
        if (code.as_int() != 0)
          throw FluxException(Error(errc::proto, "nonzero exitcode"));
      }
    }
  }(h.get()));
}

TEST(Jobs, ManySmallJobsUnderFirstfit) {
  SessionConfig cfg = SimSession::default_config(8);
  cfg.module_config = Json::object(
      {{"job-manager", Json::object({{"policy", "firstfit"}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 12; ++i) {
      JobHandle j = co_await hd->job().command("hostname").nnodes(2).submit();
      jobs.push_back(j);
    }
    for (JobHandle& j : jobs) {
      JobResult r = co_await j.wait();
      if (r.state != JobState::Complete)
        throw FluxException(Error(errc::proto, "small job failed"));
    }
    Message st = co_await hd->request("job-manager.stats.get").call();
    if (st.payload().get_int("running") != 0 ||
        st.payload().get_int("nodes_free") != 8)
      throw FluxException(
          Error(errc::proto, "pool not drained: " + st.payload().dump()));
  }(h.get()));
}

/// Counts the requests each broker sends to itself — the node-local client
/// hop a Handle takes — by topic; never alters a message.
class SelfRequestTally final : public fault::Injector {
 public:
  fault::Verdict on_send(NodeId from, NodeId to, const Message& msg) override {
    if (from == to && msg.type == MsgType::Request) ++by_topic[msg.topic];
    return fault::Verdict::deliver_v();
  }
  std::map<std::string, int> by_topic;
};

TEST(Jobs, ModuleKvsWritesTakeNoLoopbackHop) {
  // The job-manager's D.ranks commit and coalesced eventlog/state/result
  // flushes, and every wexec task's stdio capture, are module writes: they
  // reach the KVS module through module_rpc, never through the node-local
  // hop of a client Handle on their own broker.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  SelfRequestTally tally;
  s.session().set_fault_injector(&tally);
  const std::vector<JobHandle> jobs =
      s.run([](Handle* hd) -> Task<std::vector<JobHandle>> {
        std::vector<JobHandle> out;
        out.push_back(co_await hd->job().nnodes(2).submit());
        out.push_back(co_await hd->job().command("hostname").nnodes(4).submit());
        out.push_back(co_await hd->job().command("exit").nnodes(1).submit());
        for (JobHandle& j : out) {
          JobResult r = co_await j.wait();
          if (r.state != JobState::Complete)
            throw FluxException(Error(errc::proto, "job did not complete"));
        }
        co_return out;
      }(h.get()));
  s.session().set_fault_injector(nullptr);

  for (const auto& [topic, n] : tally.by_topic)
    EXPECT_FALSE(topic.starts_with("kvs."))
        << n << " self-addressed " << topic << " request(s)";
  // The tally does see the client hop: the submits took it.
  EXPECT_EQ(tally.by_topic["job.submit"], 3);

  // The writes still landed: every rank's capture of the 4-node job, and
  // each job's result.
  s.run([](Handle* hd, std::vector<JobHandle> js) -> Task<void> {
    KvsClient kvs(*hd);
    const std::string stdio = (co_await kvs.get(js[1].kvs_dir() + ".stdio"))
                                  .as_string();
    for (int r = 0; r < 4; ++r) {
      Json out = co_await kvs.get(stdio + "." + std::to_string(r) + ".stdout");
      if (out != Json::array({Json("node" + std::to_string(r))}))
        throw FluxException(Error(errc::proto, "capture lost: " + out.dump()));
    }
    for (const JobHandle& j : js) {
      Json result = co_await kvs.get(j.kvs_dir() + ".result");
      if (!result.get_bool("success"))
        throw FluxException(Error(errc::proto, "result not folded back"));
    }
  }(h.get(), jobs));
}

}  // namespace
}  // namespace flux

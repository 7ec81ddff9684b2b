#include "modules/job_manager.hpp"

#include <algorithm>

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"
#include "kvs/treeobj.hpp"
#include "sched/policy.hpp"

namespace flux::modules {

namespace {

constexpr std::size_t kTerminalKeep = 1024;

std::string job_key(std::uint64_t id, std::string_view leaf) {
  return job_kvs_dir("job", id) + "." + std::string(leaf);
}

}  // namespace

JobManager::JobManager(Broker& b) : ModuleBase(b) {
  on("submit", [this](Message& m) { op_submit(m); });
  on("cancel", [this](Message& m) { op_cancel(m); });
  on("state", [this](Message& m) { op_state(m); });
  on("wait", [this](Message& m) { op_wait(m); });
  on("list", [this](Message& m) { op_list(m); });
  broker().module_subscribe(*this, "live.down");

  obs::StatsRegistry& reg = broker().stats_registry();
  c_submitted_ = &reg.counter("job-manager.submitted");
  c_completed_ = &reg.counter("job-manager.completed");
  c_failed_ = &reg.counter("job-manager.failed");
  c_canceled_ = &reg.counter("job-manager.canceled");
  c_rejected_ = &reg.counter("job-manager.rejected");
  h_alloc_ns_ = &reg.histogram("job-manager.alloc_ns");
  h_run_ns_ = &reg.histogram("job-manager.run_ns");
  h_depth_ = &reg.histogram("job-manager.queue_depth");
}

JobManager::~JobManager() = default;

void JobManager::start() {
  if (!broker().is_root()) return;
  const Json cfg = broker().module_config("job-manager");
  max_queue_ = cfg.get_int("max_queue", 4096);
  // The session's only allocation ledger: node vertex i is broker rank i.
  graph_ = ResourceGraph::build_session(broker().size());
  node_ids_ = graph_.find("node");
  pool_ = std::make_unique<ResourcePool>(graph_);
  sched_ = std::make_unique<Scheduler>(broker().executor(), *pool_,
                                       make_policy(cfg.get_string("policy", "fcfs")));
  sched_->bind_stats(broker().stats_registry(), "job-manager.sched");
  sched_->on_start([this](std::uint64_t sched_id, const Allocation& alloc) {
    auto it = sched_to_job_.find(sched_id);
    if (it == sched_to_job_.end()) return;
    JobRecord* rec = find(it->second);
    if (rec == nullptr || rec->phase != Phase::Queued) return;
    for (ResourceId node : alloc.nodes)
      rec->ranks.push_back(static_cast<NodeId>(
          std::lower_bound(node_ids_.begin(), node_ids_.end(), node) -
          node_ids_.begin()));
    rec->phase = Phase::Dispatched;
    co_spawn(broker().executor(), dispatch(rec->id), "job-manager.dispatch");
  });
}

bool JobManager::forward_if_not_root(Message& msg) {
  if (broker().is_root()) return false;
  broker().forward_upstream(std::move(msg));
  return true;
}

JobManager::JobRecord* JobManager::find(std::uint64_t id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobManager::event(JobRecord& rec, std::string_view ev_name, Json context) {
  Json e = Json::object(
      {{"t", broker().executor().now().count()}, {"name", std::string(ev_name)}});
  if (context.is_object())
    for (const auto& [k, v] : context.as_object()) e[k] = v;
  rec.eventlog.push_back(std::move(e));
  txn_.put(job_key(rec.id, "eventlog"), rec.eventlog);
  schedule_flush();
}

void JobManager::stage_state(JobRecord& rec) {
  txn_.put(job_key(rec.id, "state"), std::string(job_state_name(rec.state)));
  schedule_flush();
}

void JobManager::schedule_flush() {
  if (flush_scheduled_) {
    flush_rerun_ = true;
    return;
  }
  flush_scheduled_ = true;
  co_spawn(broker().executor(), flush_task(), "job-manager.flush");
}

Task<void> JobManager::flush_task() {
  // Coalesced single-writer commit loop: stages that arrive while a commit
  // is in flight fold into one follow-up commit (the watch-refresh pattern).
  do {
    flush_rerun_ = false;
    Message commit = std::exchange(txn_, KvsTxn{}).request("kvs.commit");
    try {
      Message resp = co_await broker().module_rpc(*this, std::move(commit));
      if (!resp.ok())
        log::warn("job-manager", "kvs flush failed: ",
                  resp.payload().get_string("errmsg", "error"));
    } catch (const FluxException& e) {
      log::warn("job-manager", "kvs flush failed: ", e.what());
    }
  } while (flush_rerun_);
  flush_scheduled_ = false;
}

void JobManager::op_submit(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (id == 0 || !msg.payload().contains("jobspec")) {
    respond_error(msg, errc::inval, "job-manager.submit: need id and jobspec");
    return;
  }
  JobSpec spec;
  try {
    spec = JobSpec::from_json(msg.payload().at("jobspec"));
  } catch (const std::exception& e) {
    respond_error(msg, errc::job_rejected,
                  std::string("job-manager.submit: bad jobspec: ") + e.what());
    return;
  }
  if (std::cmp_greater_equal(sched_->queue_length(), max_queue_)) {
    c_rejected_->inc();
    respond_error(msg, errc::job_rejected,
                  "job-manager.submit: pending queue full");
    return;
  }
  Expected<std::uint64_t> sid =
      sched_->submit(spec.request, spec.walltime, spec.priority,
                     /*manual_completion=*/true);
  if (!sid) {
    c_rejected_->inc();
    respond_error(msg, errc::alloc_unsatisfiable,
                  "job-manager.submit: request can never fit this session");
    return;
  }

  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->spec = std::move(spec);
  rec->sched_id = *sid;
  rec->submit_t = broker().executor().now();
  sched_to_job_[*sid] = id;
  JobRecord& r = *rec;
  jobs_.emplace(id, std::move(rec));

  c_submitted_->inc();
  h_depth_->record(sched_->queue_length());
  txn_.put(job_key(id, "jobspec"), r.spec.to_json());
  event(r, "submit", Json::object({{"priority", r.spec.priority},
                                   {"nnodes", r.spec.request.nnodes}}));
  stage_state(r);
  respond_ok(msg, Json::object({{"id", static_cast<std::int64_t>(id)}}));
}

Task<void> JobManager::dispatch(std::uint64_t id) {
  JobRecord* rec = find(id);
  if (rec == nullptr || rec->phase != Phase::Dispatched) co_return;
  Json ranks_json = Json::array();
  for (NodeId r : rec->ranks) ranks_json.push_back(r);

  // 1. Commit the allocation, on its own, before any task runs.
  KvsTxn alloc;
  alloc.put(job_key(id, "ranks"), ranks_json);
  Message commit = std::move(alloc).request("kvs.commit");
  try {
    Message resp = co_await broker().module_rpc(*this, std::move(commit));
    if (!resp.ok())
      log::warn("job-manager", "failed to record allocation for job ", id);
  } catch (const FluxException&) {
    co_return;  // this broker failed or the session is shutting down
  }
  rec = find(id);
  if (rec == nullptr || rec->phase == Phase::Done) co_return;  // live.down won
  if (rec->canceled) {
    finalize(*rec, JobState::Canceled, Json::object(), 0, "canceled");
    co_return;
  }

  // 2. Transition to Running; fold the transition into the KVS.
  rec->state = JobState::Running;
  h_alloc_ns_->record(broker().executor().now() - rec->submit_t);
  event(*rec, "alloc", Json::object({{"ranks", ranks_json}}));
  event(*rec, "start", Json::object());
  stage_state(*rec);

  // 3. Execute through wexec. Empty command means the synthetic workload:
  // the built-in "sleep" for the job's walltime.
  const bool synthetic = rec->spec.command.empty();
  const std::string cmd = synthetic ? "sleep" : rec->spec.command;
  Json args = synthetic
                  ? Json::object({{"us", rec->spec.walltime.count() / 1000}})
                  : rec->spec.args;
  const Json run_req = Json::object({{"jobid", std::to_string(id)},
                                     {"dir", job_kvs_dir("lwj", id)},
                                     {"cmd", cmd},
                                     {"args", std::move(args)},
                                     {"ranks", ranks_json}});
  const TimePoint started = broker().executor().now();
  // Backstop deadline: wexec's collective stdio fence can hang forever if a
  // participant broker dies; live.down normally fails the job and cancels
  // this RPC first, but the timeout guarantees this coroutine always settles.
  const Duration deadline =
      rec->spec.walltime * 2 + std::chrono::seconds(30);
  Message run_resp;
  try {
    Future<Message> run = broker().module_rpc(
        *this, Message::request("wexec.run", run_req), deadline);
    rec->run_tag = broker().last_matchtag();
    run_resp = co_await run;
  } catch (const FluxException&) {
    // Deadline, transport loss, or live.down canceled the RPC after
    // finalizing the job.
    rec = find(id);
    if (rec != nullptr && rec->phase != Phase::Done)
      finalize(*rec, rec->canceled ? JobState::Canceled : JobState::Failed,
               Json::object(), 0, "exec_timeout");
    co_return;
  }

  rec = find(id);
  if (rec == nullptr || rec->phase == Phase::Done) co_return;  // live.down won
  h_run_ns_->record(broker().executor().now() - started);
  if (run_resp.errnum != 0) {
    const JobState terminal =
        rec->canceled ? JobState::Canceled : JobState::Failed;
    finalize(*rec, terminal, Json::object(), 0, "exec_failed");
    co_return;
  }
  const bool success = run_resp.payload().get_bool("success", false);
  Json exits = run_resp.payload().at("exits");
  const std::int64_t ntasks = run_resp.payload().get_int("ntasks", 0);
  JobState terminal = JobState::Failed;
  if (rec->canceled)
    terminal = JobState::Canceled;
  else if (success)
    terminal = JobState::Complete;
  finalize(*rec, terminal, std::move(exits), ntasks, "exit");
}

void JobManager::finalize(JobRecord& rec, JobState terminal, Json exits,
                          std::int64_t ntasks, std::string_view why) {
  if (rec.phase == Phase::Done) return;
  // Scheduler bookkeeping: a Queued job is still in the scheduler's pending
  // queue; a Dispatched one holds a pool allocation, returned here.
  if (rec.phase == Phase::Queued)
    (void)sched_->cancel(rec.sched_id);
  else
    sched_->finish(rec.sched_id);
  sched_to_job_.erase(rec.sched_id);
  rec.phase = Phase::Done;
  rec.state = terminal;
  const bool success = rec.state == JobState::Complete;
  rec.result =
      Json::object({{"id", static_cast<std::int64_t>(rec.id)},
                    {"state", std::string(job_state_name(rec.state))},
                    {"success", success},
                    {"exits", std::move(exits)},
                    {"ntasks", ntasks}});
  event(rec, "finish",
        Json::object({{"state", std::string(job_state_name(rec.state))},
                      {"why", std::string(why)}}));
  stage_state(rec);
  txn_.put(job_key(rec.id, "result"), rec.result);
  if (!rec.ranks.empty())
    txn_.put(job_key(rec.id, "stdio"), job_kvs_dir("lwj", rec.id));
  schedule_flush();

  switch (rec.state) {
    case JobState::Complete: c_completed_->inc(); break;
    case JobState::Canceled: c_canceled_->inc(); break;
    default: c_failed_->inc(); break;
  }
  for (Message& w : rec.waiters) respond_ok(w, rec.result);
  rec.waiters.clear();

  terminal_fifo_.push_back(rec.id);
  while (terminal_fifo_.size() > kTerminalKeep) {
    jobs_.erase(terminal_fifo_.front());
    terminal_fifo_.pop_front();
  }
}

Task<void> JobManager::kill_tasks(std::uint64_t id) {
  const Json req =
      Json::object({{"jobid", std::to_string(id)}, {"signum", 15}});
  try {
    Message resp = co_await broker().module_rpc(
        *this, Message::request("wexec.kill", req), std::chrono::seconds(5));
    if (resp.errnum != 0)
      log::debug("job-manager", "wexec.kill miss for job ", id);
  } catch (const FluxException&) {
    // Timeout or shutdown; the dispatch backstop deadline reaps the job.
  }
}

void JobManager::op_cancel(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  JobRecord* rec = find(id);
  if (rec == nullptr) {
    respond_error(msg, errc::job_unknown, "job-manager.cancel: no such job");
    return;
  }
  Json state_resp = Json::object(
      {{"id", static_cast<std::int64_t>(id)},
       {"state", std::string(job_state_name(rec->state))}});
  switch (rec->phase) {
    case Phase::Queued:
      rec->canceled = true;
      event(*rec, "cancel", Json::object());
      finalize(*rec, JobState::Canceled, Json::object(), 0, "canceled");
      break;
    case Phase::Dispatched:
      // Before wexec.run, dispatch sees the flag and the kill just misses.
      rec->canceled = true;
      event(*rec, "cancel", Json::object());
      co_spawn(broker().executor(), kill_tasks(id), "job-manager.kill");
      break;
    case Phase::Done:
      break;  // idempotent: respond with the terminal state
  }
  state_resp["state"] = std::string(job_state_name(rec->state));
  respond_ok(msg, std::move(state_resp));
}

void JobManager::op_state(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (JobRecord* rec = find(id)) {
    respond_ok(msg,
               Json::object({{"id", static_cast<std::int64_t>(id)},
                             {"state",
                              std::string(job_state_name(rec->state))}}));
    return;
  }
  co_spawn(broker().executor(),
           answer_from_kvs(std::move(msg), id, /*want_result=*/false),
           "job-manager.state");
}

void JobManager::op_wait(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (JobRecord* rec = find(id)) {
    if (rec->phase == Phase::Done)
      respond_ok(msg, rec->result);
    else
      rec->waiters.push_back(std::move(msg));
    return;
  }
  co_spawn(broker().executor(),
           answer_from_kvs(std::move(msg), id, /*want_result=*/true),
           "job-manager.wait");
}

Task<void> JobManager::answer_from_kvs(Message req, std::uint64_t id,
                                       bool want_result) {
  // Evicted (or pre-restart) jobs: the KVS is the system of record.
  Message get = Message::request(
      "kvs.get",
      Json::object({{"key", job_key(id, want_result ? "result" : "state")}}));
  ObjPtr obj;
  try {
    Message resp = co_await broker().module_rpc(*this, std::move(get));
    if (resp.ok() && resp.data()) obj = parse_object(*resp.data());
  } catch (const FluxException&) {
    // This broker failed or the session is shutting down.
  }
  if (!obj || !obj->is_val() ||
      !(want_result || obj->value().is_string())) {
    respond_error(req, errc::job_unknown, "job-manager: no such job");
    co_return;
  }
  if (want_result) {
    respond_ok(req, obj->value());
    co_return;
  }
  respond_ok(req, Json::object({{"id", static_cast<std::int64_t>(id)},
                                {"state", obj->value().as_string()}}));
}

void JobManager::op_list(Message& msg) {
  if (forward_if_not_root(msg)) return;
  Json jobs = Json::array();
  for (const auto& [id, rec] : jobs_)
    jobs.push_back(Json::object(
        {{"id", static_cast<std::int64_t>(id)},
         {"state", std::string(job_state_name(rec->state))}}));
  respond_ok(msg, Json::object({{"jobs", std::move(jobs)}}));
}

void JobManager::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root() || !sched_) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (rank >= broker().size()) return;
  // Fail every non-terminal job whose allocation includes the dead rank —
  // promptly, so nothing waits out the wexec fence that can no longer
  // complete. finalize() returns each allocation to the pool.
  std::vector<std::uint64_t> hit;
  for (const auto& [id, rec] : jobs_) {
    if (rec->phase == Phase::Done) continue;
    if (std::find(rec->ranks.begin(), rec->ranks.end(), rank) !=
        rec->ranks.end())
      hit.push_back(id);
  }
  for (std::uint64_t id : hit) {
    JobRecord* rec = find(id);
    const std::uint32_t run_tag = rec->run_tag;
    event(*rec, "node_down",
          Json::object({{"rank", static_cast<std::int64_t>(rank)}}));
    finalize(*rec, JobState::Failed, Json::object(), 0, "node_down");
    // The run can no longer complete: release the dispatch now instead of
    // at its backstop deadline, and stop the tasks on the surviving ranks.
    if (run_tag != 0 && broker().cancel_rpc(run_tag, "node down"))
      co_spawn(broker().executor(), kill_tasks(id), "job-manager.kill");
  }
  // The node is free now; scheduling passes are posted, so none can have
  // placed a job on it in between. A repeated live.down is refused here.
  if (!pool_->remove(node_ids_[rank])) return;
  // Queued jobs wider than what is left would wait forever.
  std::vector<std::uint64_t> unfit;
  for (const auto& [id, rec] : jobs_)
    if (rec->phase == Phase::Queued && !pool_->feasible(rec->spec.request))
      unfit.push_back(id);
  for (std::uint64_t id : unfit)
    finalize(*find(id), JobState::Failed, Json::object(), 0, "unsatisfiable");
}

Json JobManager::stats_json() const {
  Json j = ModuleBase::stats_json();
  if (sched_) {
    j["queue_depth"] = static_cast<std::int64_t>(sched_->queue_length());
    j["running"] = static_cast<std::int64_t>(sched_->running_count());
    j["active"] = static_cast<std::int64_t>(jobs_.size() -
                                            terminal_fifo_.size());
    j["nodes_total"] = static_cast<std::int64_t>(node_ids_.size());
    j["nodes_free"] = static_cast<std::int64_t>(pool_->free_nodes());
    j["nodes_down"] =
        static_cast<std::int64_t>(node_ids_.size() - pool_->total_nodes());
  }
  return j;
}

}  // namespace flux::modules

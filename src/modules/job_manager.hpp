// job-manager: the queueing/scheduling/dispatch half of the job lifecycle
// pipeline (paper §III; flux-core's job-manager + sched-simple, collapsed).
//
// Runs its real logic on the session root only (non-root brokers forward
// upstream, the resvc/wexec idiom). The root instance owns:
//   - admission control (bounded pending queue -> errc::job_rejected),
//   - a Scheduler over the session's only allocation ledger: a ResourcePool
//     of ResourceGraph::build_session, where node vertex i is broker rank i,
//     reusing src/sched/policy (fcfs / firstfit / easy policies, priority
//     ordering inside the queue),
//   - the dispatch path: scheduler start -> commit D.ranks -> wexec.run ->
//     pool release,
//   - the JobState machine Pending -> Running -> Complete/Failed/Canceled,
//     with every transition appended to a KVS event log,
//   - each job's KVS directory D = job_kvs_dir("job", id), a radix path
//     whose directories stay small (core/jobspec.hpp), single writer:
//       D.jobspec    submitted JobSpec (JSON)
//       D.state      current state name ("pending", "running", ...)
//       D.eventlog   array of {t, name, ...context} entries
//       D.ranks      allocated broker ranks, committed before any task runs
//       D.result     {id, state, success, exits, ntasks} (terminal)
//       D.stdio      ref to the capture dir job_kvs_dir("lwj", id), which
//                    the manager hands to wexec.run as "dir"
//   D.ranks is its own kvs.commit. Every other KVS write coalesces:
//   transitions stage into the manager's KvsTxn, and a single in-flight
//   commit coroutine ships it as one module_rpc kvs.commit (the KVS
//   watch-refresh pattern). The manager holds no client Handle, so none of
//   its KVS traffic takes the node-local hop.
//
// Protocol (all root-authoritative; non-root forwards upstream):
//   job-manager.submit {id, jobspec}   from job-ingest; responds {id}
//   job-manager.cancel {id}            cancel; kills running tasks (SIGTERM)
//   job-manager.state  {id}            -> {id, state}
//   job-manager.wait   {id}            -> terminal result (parks until then)
//   job-manager.list   {}              -> {jobs: [{id, state}...]}
//   job-manager.stats.get              -> also {nodes_total, nodes_free,
//                                         nodes_down} of the ledger
//
// Failure handling: on "live.down" the manager fails (never orphans) every
// non-terminal job whose allocation includes the dead rank, which returns
// those allocations to the pool, and then removes the dead node from the
// pool. A failed job's pending wexec.run is canceled at once and its tasks
// on the surviving ranks are killed. Queued jobs that no longer fit what is
// left fail too.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "broker/module.hpp"
#include "core/jobspec.hpp"
#include "exec/task.hpp"
#include "kvs/kvs_client.hpp"
#include "resource/resource.hpp"
#include "sched/scheduler.hpp"

namespace flux::modules {

class JobManager final : public ModuleBase {
 public:
  explicit JobManager(Broker& broker);
  ~JobManager() override;

  [[nodiscard]] std::string_view name() const override { return "job-manager"; }
  void start() override;
  void handle_event(const Message& msg) override;
  [[nodiscard]] Json stats_json() const override;

 private:
  /// Where a job is in the dispatch pipeline (orthogonal to JobState: a
  /// Dispatched job presents as Pending until D.ranks is committed).
  enum class Phase { Queued, Dispatched, Done };

  struct JobRecord {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Pending;
    Phase phase = Phase::Queued;
    std::uint64_t sched_id = 0;  ///< Scheduler's internal job id
    std::vector<NodeId> ranks;   ///< pool allocation (empty while Queued)
    std::uint32_t run_tag = 0;   ///< matchtag of the wexec.run RPC, once sent
    bool canceled = false;       ///< cancel requested
    Json eventlog = Json::array();
    std::vector<Message> waiters;  ///< parked job-manager.wait requests
    Json result;                   ///< terminal result payload
    TimePoint submit_t{0};
  };

  void op_submit(Message& msg);
  void op_cancel(Message& msg);
  void op_state(Message& msg);
  void op_wait(Message& msg);
  void op_list(Message& msg);

  [[nodiscard]] bool forward_if_not_root(Message& msg);
  JobRecord* find(std::uint64_t id);

  /// Append an eventlog entry and stage the log + current state into txn_
  /// (flushed by the coalesced commit coroutine).
  void event(JobRecord& rec, std::string_view ev_name, Json context);
  void stage_state(JobRecord& rec);
  void schedule_flush();
  Task<void> flush_task();

  Task<void> dispatch(std::uint64_t id);
  void finalize(JobRecord& rec, JobState terminal, Json exits,
                std::int64_t ntasks, std::string_view why);
  Task<void> kill_tasks(std::uint64_t id);
  Task<void> answer_from_kvs(Message req, std::uint64_t id, bool want_result);

  // Root-only state (built in start()).
  std::int64_t max_queue_ = 4096;
  ResourceGraph graph_;
  std::vector<ResourceId> node_ids_;        ///< rank -> node vertex
  std::unique_ptr<ResourcePool> pool_;      ///< the allocation ledger
  std::unique_ptr<Scheduler> sched_;
  KvsTxn txn_;  ///< staged writes awaiting the next flush
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> jobs_;
  std::map<std::uint64_t, std::uint64_t> sched_to_job_;
  std::deque<std::uint64_t> terminal_fifo_;  ///< bounded eviction of Done jobs
  bool flush_scheduled_ = false;
  bool flush_rerun_ = false;

  // Registry instruments (broker's StatsRegistry; resolved once).
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_canceled_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Histogram* h_alloc_ns_ = nullptr;  ///< submit -> allocation latency
  obs::Histogram* h_run_ns_ = nullptr;    ///< allocation -> terminal latency
  obs::Histogram* h_depth_ = nullptr;     ///< queue depth sampled per submit
};

}  // namespace flux::modules

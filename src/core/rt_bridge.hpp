// RtInstance: the bridge between the conceptual job hierarchy (§III) and the
// prototyped run-time (§IV).
//
// A FluxInstance schedules in virtual time over an abstract resource graph;
// an RtInstance additionally *executes* its app jobs on a live comms
// session: node allocations map to broker ranks (via the resvc module's
// inventory), job processes launch in bulk through wexec, their stdio and
// exit codes land in the KVS under lwj.rt<jobid>.*, and the job table itself
// is mirrored into the KVS — the paper's "richer provenance on jobs".
#pragma once

#include <map>
#include <memory>
#include <string>

#include "api/handle.hpp"
#include "broker/session.hpp"
#include "core/jobspec.hpp"
#include "kvs/kvs_client.hpp"
#include "sched/scheduler.hpp"

namespace flux {

class RtInstance {
 public:
  /// Bind to a wired-up session. One broker rank == one schedulable node.
  RtInstance(Session& session, std::string policy = "fcfs");
  ~RtInstance();
  RtInstance(const RtInstance&) = delete;
  RtInstance& operator=(const RtInstance&) = delete;

  /// Submit an app job that runs `cmd` (a CommandRegistry entry) with
  /// `args` on request.nnodes broker ranks. Walltime bounds scheduling
  /// (EASY backfill); the job actually ends when its processes exit.
  Expected<std::uint64_t> submit(const JobSpec& spec, std::string cmd,
                                 Json args = Json::object());

  [[nodiscard]] JobState state(std::uint64_t jobid) const;
  [[nodiscard]] bool idle() const { return sched_->idle(); }
  [[nodiscard]] Scheduler& scheduler() { return *sched_; }

  /// Fires after a job's processes exited and its record is in the KVS.
  using CompleteFn = std::function<void(std::uint64_t jobid, bool success)>;
  void on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

 private:
  struct RtJob {
    JobSpec spec;
    std::string cmd;
    Json args;
    JobState state = JobState::Pending;
    bool success = false;
  };

  Task<void> launch(std::uint64_t jobid, Allocation alloc);
  [[nodiscard]] std::string lwj_name(std::uint64_t jobid) const {
    return "rt" + std::to_string(jobid);
  }

  Session& session_;
  std::unique_ptr<Handle> handle_;
  std::unique_ptr<KvsClient> kvs_;
  ResourceGraph graph_;  // one "node" vertex per broker rank
  std::unique_ptr<ResourcePool> pool_;
  std::unique_ptr<Scheduler> sched_;
  std::map<std::uint64_t, RtJob> jobs_;
  CompleteFn on_complete_;
};

}  // namespace flux

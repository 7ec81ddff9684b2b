#include "core/rt_bridge.hpp"

#include "base/log.hpp"

namespace flux {

RtInstance::RtInstance(Session& session, std::string policy)
    : session_(session) {
  handle_ = session_.attach(0);
  kvs_ = std::make_unique<KvsClient>(*handle_);

  // One schedulable "node" per broker rank (cores from the resvc default).
  const ResourceId root = graph_.add_root("session", "rt");
  const auto cores = static_cast<unsigned>(
      session_.config().module_config.at("resvc").get_int("cores_per_node", 16));
  for (NodeId r = 0; r < session_.size(); ++r) {
    const ResourceId node = graph_.add(root, "node", "n" + std::to_string(r));
    for (unsigned c = 0; c < cores; ++c)
      graph_.add(node, "core", "c" + std::to_string(c));
  }
  pool_ = std::make_unique<ResourcePool>(graph_);
  sched_ = std::make_unique<Scheduler>(handle_->executor(), *pool_,
                                       make_policy(policy));
  sched_->on_start([this](std::uint64_t jobid, const Allocation& alloc) {
    auto it = jobs_.find(jobid);
    if (it == jobs_.end()) return;
    it->second.state = JobState::Running;
    co_spawn(handle_->executor(), launch(jobid, alloc),
             "rt-launch" + std::to_string(jobid));
  });
  sched_->on_end([this](std::uint64_t jobid) {
    auto it = jobs_.find(jobid);
    if (it == jobs_.end()) return;
    it->second.state = it->second.success ? JobState::Complete
                                          : JobState::Failed;
    if (on_complete_) on_complete_(jobid, it->second.success);
  });
}

RtInstance::~RtInstance() = default;

Expected<std::uint64_t> RtInstance::submit(const JobSpec& spec,
                                           std::string cmd, Json args) {
  auto jobid = sched_->submit(spec.request, spec.walltime, spec.priority,
                              /*manual_completion=*/true);
  if (!jobid) return jobid.error();
  jobs_.emplace(*jobid, RtJob{spec, std::move(cmd), std::move(args),
                              JobState::Pending, false});
  return *jobid;
}

JobState RtInstance::state(std::uint64_t jobid) const {
  auto it = jobs_.find(jobid);
  return it == jobs_.end() ? JobState::Canceled : it->second.state;
}

Task<void> RtInstance::launch(std::uint64_t jobid, Allocation alloc) {
  auto it = jobs_.find(jobid);
  if (it == jobs_.end()) co_return;
  RtJob& job = it->second;

  // Resource vertices -> broker ranks ("n<rank>" by construction).
  Json ranks = Json::array();
  for (ResourceId node : alloc.nodes)
    ranks.push_back(std::stoll(graph_.at(node).name.substr(1)));

  // RtInstance jobs keep a flat capture dir: their ids come from this
  // instance's scheduler, not the session job-manager.
  const std::string dir = "lwj." + lwj_name(jobid);
  Json run = Json::object({{"jobid", lwj_name(jobid)},
                           {"dir", dir},
                           {"cmd", job.cmd},
                           {"args", job.args},
                           {"ranks", std::move(ranks)}});
  bool success = false;
  try {
    Message resp = co_await handle_->request("wexec.run").payload(std::move(run)).call();
    success = resp.payload().get_bool("success");
  } catch (const FluxException& e) {
    log::warn("rt", "job ", jobid, " launch failed: ", e.what());
  }
  job.success = success;

  // Job provenance: final record into the KVS next to wexec's stdio capture.
  try {
    Json record = Json::object({{"state", success ? "complete" : "failed"},
                                {"nnodes", job.spec.request.nnodes},
                                {"name", job.spec.name}});
    co_await kvs_->put(dir + ".record", std::move(record));
    co_await kvs_->commit();
  } catch (const FluxException& e) {
    log::warn("rt", "job ", jobid, " record write failed: ", e.what());
  }
  sched_->finish(jobid);
}

}  // namespace flux

// resvc: "Resources are enumerated in the KVS and allocated when the
// scheduler runs an application." (Table I)
//
// The root instance owns the session's node inventory: at startup it
// enumerates every broker rank into the KVS (resource.nodes.<rank> =
// {cores, mem_gb, state}) and then serves first-fit node allocations.
// Allocations are recorded under <dir>.resources, where `dir` is the
// caller's capture directory sent with resvc.alloc {jobid, dir, nnodes} (the
// job-manager sends job_kvs_dir("lwj", id)); resvc never derives a KVS path
// from the jobid. live.down events take nodes out of the pool (and update
// the KVS enumeration).
//
// This is the *flat* per-session allocator the paper's prototype had; the
// hierarchical, multi-level scheduling of §III lives above it in src/sched
// and src/core.
#pragma once

#include <map>
#include <set>
#include <string>

#include "broker/module.hpp"
#include "exec/task.hpp"

namespace flux::modules {

class Resvc final : public ModuleBase {
 public:
  explicit Resvc(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "resvc"; }
  void start() override;
  void handle_event(const Message& msg) override;

 private:
  void op_alloc(Message& msg);
  void op_free(Message& msg);
  void op_status(Message& msg);

  Task<void> enumerate();
  Task<void> record_alloc(Message req, std::string jobid, std::string dir,
                          std::vector<NodeId> ranks);
  Task<void> mark_node_state(NodeId rank, std::string state);

  // Root-only state.
  std::int64_t cores_per_node_ = 16;
  std::int64_t mem_per_node_gb_ = 32;
  std::set<NodeId> free_;
  std::set<NodeId> down_;
  std::map<std::string, std::vector<NodeId>> allocations_;
};

}  // namespace flux::modules

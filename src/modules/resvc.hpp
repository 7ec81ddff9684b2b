// resvc: "Resources are enumerated in the KVS and allocated when the
// scheduler runs an application." (Table I)
//
// The root instance enumerates every broker rank into the KVS at startup
// (resource.nodes.n<rank> = {cores, mem_gb, state}, the node shape of
// ResourceGraph::build_session) and marks a node "down" there when
// live.down declares its broker dead. resvc.status answers {total, down}.
//
// resvc allocates nothing: the job-manager's scheduler pool is the
// session's only allocation ledger (node vertex i is broker rank i), and
// the job-manager records each allocation under its job directory.
#pragma once

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
  void op_status(Message& msg);

  Task<void> enumerate();
  Task<void> mark_node_state(NodeId rank, std::string state);

  std::set<NodeId> down_;  ///< root-only
};

}  // namespace flux::modules

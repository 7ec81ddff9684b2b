#include "modules/resvc.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"
#include "resource/resource.hpp"

namespace flux::modules {

namespace {

Json node_record(std::string state) {
  return Json::object({{"cores", ResourceGraph::kSessionCoresPerNode},
                       {"mem_gb", ResourceGraph::kSessionMemGbPerNode},
                       {"state", std::move(state)}});
}

std::string node_key(NodeId rank) {
  return "resource.nodes.n" + std::to_string(rank);
}

}  // namespace

Resvc::Resvc(Broker& b) : ModuleBase(b) {
  on("status", [this](Message& m) { op_status(m); });
  broker().module_subscribe(*this, "live.down");
}

void Resvc::start() {
  if (!broker().is_root()) return;
  co_spawn(broker().executor(), enumerate(), "resvc.enumerate");
}

Task<void> Resvc::enumerate() {
  KvsTxn txn;
  for (NodeId r = 0; r < broker().size(); ++r)
    txn.put(node_key(r), node_record("up"));
  Message commit = std::move(txn).request("kvs.commit");
  Message resp = co_await broker().module_rpc(*this, std::move(commit));
  if (!resp.ok()) log::error("resvc", "enumeration commit failed");
}

void Resvc::op_status(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  respond_ok(msg, Json::object({{"total", broker().size()},
                                {"down", down_.size()}}));
}

void Resvc::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root()) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (rank >= broker().size()) return;
  down_.insert(rank);
  co_spawn(broker().executor(), mark_node_state(rank, "down"), "resvc.down");
}

Task<void> Resvc::mark_node_state(NodeId rank, std::string state) {
  KvsTxn txn;
  txn.put(node_key(rank), node_record(std::move(state)));
  Message commit = std::move(txn).request("kvs.commit");
  (void)co_await broker().module_rpc(*this, std::move(commit));
}

}  // namespace flux::modules

#include "modules/resvc.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/treeobj.hpp"
#include "resource/resource.hpp"

namespace flux::modules {

namespace {

ObjPtr node_record(std::string state) {
  return make_val_object(Json::object(
      {{"cores", ResourceGraph::kSessionCoresPerNode},
       {"mem_gb", ResourceGraph::kSessionMemGbPerNode},
       {"state", std::move(state)}}));
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
  for (NodeId r = 0; r < broker().size(); ++r) {
    ObjPtr obj = node_record("up");
    Message put = Message::request(
        "kvs.put",
        Json::object({{"key", "resource.nodes.n" + std::to_string(r)}}));
    put.set_data(std::shared_ptr<const std::string>(obj, &obj->bytes));
    Message resp = co_await broker().module_rpc(*this, std::move(put));
    if (resp.errnum != 0) {
      log::error("resvc", "enumeration put failed");
      co_return;
    }
  }
  Message resp =
      co_await broker().module_rpc(*this, Message::request("kvs.commit"));
  if (resp.errnum != 0) log::error("resvc", "enumeration commit failed");
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
  ObjPtr obj = node_record(std::move(state));
  Message put = Message::request(
      "kvs.put",
      Json::object({{"key", "resource.nodes.n" + std::to_string(rank)}}));
  put.set_data(std::shared_ptr<const std::string>(obj, &obj->bytes));
  (void)co_await broker().module_rpc(*this, std::move(put));
  (void)co_await broker().module_rpc(*this, Message::request("kvs.commit"));
}

}  // namespace flux::modules

#include "modules/resvc.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/treeobj.hpp"

namespace flux::modules {

Resvc::Resvc(Broker& b) : ModuleBase(b) {
  on("alloc", [this](Message& m) { op_alloc(m); });
  on("free", [this](Message& m) { op_free(m); });
  on("status", [this](Message& m) { op_status(m); });
  broker().module_subscribe(*this, "live.down");
}

void Resvc::start() {
  if (!broker().is_root()) return;
  const Json cfg = broker().module_config("resvc");
  cores_per_node_ = cfg.get_int("cores_per_node", 16);
  mem_per_node_gb_ = cfg.get_int("mem_per_node_gb", 32);
  for (NodeId r = 0; r < broker().size(); ++r) free_.insert(r);
  if (cfg.get_bool("enumerate", true))
    co_spawn(broker().executor(), enumerate(), "resvc.enumerate");
}

Task<void> Resvc::enumerate() {
  for (NodeId r = 0; r < broker().size(); ++r) {
    ObjPtr obj = make_val_object(Json::object({{"cores", cores_per_node_},
                                               {"mem_gb", mem_per_node_gb_},
                                               {"state", "up"}}));
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

void Resvc::op_alloc(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  std::string dir = msg.payload().get_string("dir");
  const std::int64_t nnodes = msg.payload().get_int("nnodes", 1);
  if (jobid.empty() || dir.empty() || nnodes <= 0) {
    respond_error(msg, errc::inval,
                  "resvc.alloc: need jobid, dir and nnodes > 0");
    return;
  }
  if (allocations_.contains(jobid)) {
    respond_error(msg, errc::exist, "resvc.alloc: jobid already allocated");
    return;
  }
  if (std::cmp_less(free_.size(), nnodes)) {
    respond_error(msg, errc::no_spc, "resvc.alloc: insufficient free nodes");
    return;
  }
  std::vector<NodeId> ranks;
  ranks.reserve(static_cast<std::size_t>(nnodes));
  for (auto it = free_.begin(); std::cmp_less(ranks.size(), nnodes);)
    ranks.push_back(*it), it = free_.erase(it);
  allocations_.emplace(jobid, ranks);
  co_spawn(broker().executor(),
           record_alloc(std::move(msg), jobid, std::move(dir), ranks),
           "resvc.record");
}

Task<void> Resvc::record_alloc(Message req, std::string jobid, std::string dir,
                               std::vector<NodeId> ranks) {
  Json list = Json::array();
  for (NodeId r : ranks) list.push_back(r);
  ObjPtr obj = make_val_object(list);
  Message put = Message::request(
      "kvs.put", Json::object({{"key", dir + ".resources"}}));
  put.set_data(std::shared_ptr<const std::string>(obj, &obj->bytes));
  Message put_resp = co_await broker().module_rpc(*this, std::move(put));
  Message commit_resp =
      co_await broker().module_rpc(*this, Message::request("kvs.commit"));
  if (put_resp.errnum != 0 || commit_resp.errnum != 0)
    log::warn("resvc", "failed to record allocation for ", jobid);
  respond_ok(req, Json::object({{"jobid", std::move(jobid)},
                                {"ranks", std::move(list)},
                                {"cores_per_node", cores_per_node_}}));
}

void Resvc::op_free(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  auto it = allocations_.find(jobid);
  if (it == allocations_.end()) {
    respond_error(msg, errc::noent, "resvc.free: no such allocation");
    return;
  }
  for (NodeId r : it->second)
    if (!down_.contains(r)) free_.insert(r);
  allocations_.erase(it);
  respond_ok(msg, Json::object({{"jobid", jobid}}));
}

void Resvc::op_status(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  Json jobs = Json::array();
  for (const auto& [jobid, ranks] : allocations_) jobs.push_back(jobid);
  respond_ok(msg, Json::object({{"total", broker().size()},
                                {"free", free_.size()},
                                {"down", down_.size()},
                                {"jobs", std::move(jobs)}}));
}

void Resvc::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root()) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (rank >= broker().size()) return;
  down_.insert(rank);
  free_.erase(rank);
  co_spawn(broker().executor(), mark_node_state(rank, "down"), "resvc.down");
}

Task<void> Resvc::mark_node_state(NodeId rank, std::string state) {
  ObjPtr obj = make_val_object(Json::object({{"cores", cores_per_node_},
                                             {"mem_gb", mem_per_node_gb_},
                                             {"state", std::move(state)}}));
  Message put = Message::request(
      "kvs.put",
      Json::object({{"key", "resource.nodes.n" + std::to_string(rank)}}));
  put.set_data(std::shared_ptr<const std::string>(obj, &obj->bytes));
  (void)co_await broker().module_rpc(*this, std::move(put));
  (void)co_await broker().module_rpc(*this, Message::request("kvs.commit"));
}

}  // namespace flux::modules

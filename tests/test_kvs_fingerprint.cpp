// KVS traffic fingerprint at shards=1.
//
// A seeded 16-broker workload (multi-key commits from every rank, a 16-party
// fence, cold gets and a watch) against a persisting master runs twice: once
// with announce_window_us 0 (every apply and announce synchronous) and once
// with 40 (windowed apply and announce coalescing). A pass-through fault
// injector tallies every transport send by message type and topic. The
// per-topic message counts and byte totals, the master's final root ref,
// version, store size and content-log size (GC and checkpoints included),
// and the final virtual time are pinned in tests/golden/kvs_traffic_k1.txt,
// so any change to the single-master KVS message flow or master state shows
// up as a diff.
//
// Regenerate after an intentional protocol change with:
//   FLUX_UPDATE_GOLDEN=1 ./flux_tests --gtest_filter='KvsTrafficFingerprint.*'

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "fault/injector.hpp"
#include "kvs/kvs_module.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

constexpr std::uint32_t kBrokers = 16;
constexpr int kRounds = 3;

/// Counts (messages, bytes) per "<type> <topic>"; never alters a message.
class TrafficTally final : public fault::Injector {
 public:
  fault::Verdict on_send(NodeId /*from*/, NodeId /*to*/,
                         const Message& msg) override {
    std::string label(msg_type_name(msg.type));
    label += ' ';
    label += msg.topic;
    auto& [count, bytes] = by_topic_[label];
    ++count;
    bytes += msg.wire_size();
    return fault::Verdict::deliver_v();
  }

  [[nodiscard]] const std::map<std::string,
                               std::pair<std::uint64_t, std::uint64_t>>&
  by_topic() const noexcept {
    return by_topic_;
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_topic_;
};

Task<void> committer(Handle* h, int id, std::uint64_t seed) {
  KvsClient kvs(*h);
  Rng rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t nkeys = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < nkeys; ++k)
      co_await kvs.put("dir" + std::to_string(rng.below(4)) + ".r" +
                           std::to_string(id) + "k" + std::to_string(k),
                       static_cast<std::int64_t>(rng.below(8)));
    co_await kvs.commit();
  }
}

Task<void> fencer(Handle* h, int id) {
  KvsClient kvs(*h);
  // Values repeat across ranks, so the relay tree's SHA1 dedup has work.
  co_await kvs.put("pmi.rank" + std::to_string(id),
                   "card-" + std::to_string(id % 4));
  co_await kvs.fence("pmi.barrier", kBrokers);
}

Task<void> cold_get(Handle* h, int id, int* served) {
  KvsClient kvs(*h);
  const Json v = co_await kvs.get("pmi.rank" + std::to_string(id));
  if (v == Json("card-" + std::to_string(id % 4))) ++*served;
}

Task<void> watched_writes(Handle* h) {
  KvsClient kvs(*h);
  for (int v = 1; v <= 2; ++v) {
    co_await kvs.put("watched.key", v);
    co_await kvs.commit();
  }
}

struct Fingerprint {
  std::string text;
  KvsModule::OpStats master_ops;
};

/// Runs the workload with the given apply/announce window and renders the
/// fingerprint as text.
Fingerprint fingerprint(std::int64_t window_us) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("flux-kvs-fingerprint-" + std::to_string(::getpid()) + "-" +
        std::to_string(window_us) + ".log"))
          .string();
  std::filesystem::remove(log_path);
  SessionConfig cfg = SimSession::default_config(kBrokers);
  cfg.module_config = Json::object(
      {{"kvs",
        Json::object({{"announce_window_us", window_us},
                      {"persist", Json::object({{"path", log_path},
                                                {"checkpoint_every", 4},
                                                {"gc_every", 8},
                                                {"retention", 1}})}})}});
  auto s = std::make_unique<SimSession>(std::move(cfg));
  TrafficTally tally;
  s->session().set_fault_injector(&tally);
  const SimNet::Stats wireup = s->session().simnet()->stats();

  std::vector<std::unique_ptr<Handle>> handles;
  for (NodeId r = 0; r < kBrokers; ++r) handles.push_back(s->attach(r));

  auto watcher = std::make_unique<KvsClient>(*handles[9]);
  int watch_fires = 0;
  WatchHandle watch = watcher->watch(
      "watched.key", [&](const std::optional<Json>&) { ++watch_fires; });
  s->ex().run();

  Rng seeds(0xf1c5);
  for (NodeId r = 0; r < kBrokers; ++r)
    co_spawn(s->ex(), committer(handles[r].get(), static_cast<int>(r), seeds()),
             "fp-committer");
  s->ex().run();

  for (NodeId r = 0; r < kBrokers; ++r)
    co_spawn(s->ex(), fencer(handles[r].get(), static_cast<int>(r)), "fp-fence");
  s->ex().run();

  // Each rank reads a value written far away in the tree: cold cache faults.
  int gets_served = 0;
  for (NodeId r = 0; r < kBrokers; ++r)
    co_spawn(s->ex(),
             cold_get(handles[r].get(), static_cast<int>((r * 7 + 3) % kBrokers),
                      &gets_served),
             "fp-get");
  s->ex().run();

  s->run(watched_writes(handles[14].get()));
  s->ex().run();

  auto* master =
      dynamic_cast<KvsModule*>(s->session().broker(0).find_module("kvs"));
  EXPECT_NE(master, nullptr);
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::ostringstream out;
  out << "[announce_window_us=" << window_us << "]\n";
  for (const auto& [label, counts] : tally.by_topic()) {
    out << label << " " << counts.first << " " << counts.second << "\n";
    messages += counts.first;
    bytes += counts.second;
  }
  out << "total " << messages << " " << bytes << "\n";
  Fingerprint fp;
  if (master != nullptr) {
    fp.master_ops = master->op_stats();
    out << "root " << master->root_ref().hex() << " version "
        << master->root_version() << "\n";
    out << "apply_batches " << fp.master_ops.apply_batches << " fences "
        << fp.master_ops.apply_batched_fences << " announces "
        << fp.master_ops.announces << "\n";
    const KvsModule::PersistStats& ps = master->persist_stats();
    out << "store_objects " << master->store().count() << " checkpoints "
        << ps.checkpoints << " gc_passes " << ps.gc_passes << " gc_swept "
        << ps.gc_swept << " log_bytes " << std::filesystem::file_size(log_path)
        << "\n";
  }
  out << "gets_served " << gets_served << " watch_fires " << watch_fires
      << "\n";
  out << "end_ns " << s->ex().now().count() << "\n";

  // The tally sees exactly what the simulated transport carried after wireup.
  const SimNet::Stats& net = s->session().simnet()->stats();
  EXPECT_EQ(messages, net.messages - wireup.messages);
  EXPECT_EQ(bytes, net.bytes - wireup.bytes);
  s->session().set_fault_injector(nullptr);
  watch.reset();
  watcher.reset();
  handles.clear();
  s.reset();
  std::filesystem::remove(log_path);
  fp.text = out.str();
  return fp;
}

std::filesystem::path golden_path() {
  return std::filesystem::path(FLUX_GOLDEN_DIR) / "kvs_traffic_k1.txt";
}

TEST(KvsTrafficFingerprint, SingleMasterTrafficIsPinned) {
  const std::string got = fingerprint(0).text + fingerprint(40).text;
  if (std::getenv("FLUX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    out << got;
    ASSERT_TRUE(out.good()) << "failed writing " << golden_path();
    return;
  }
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (regenerate with FLUX_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "shards=1 KVS traffic changed; if intentional, regenerate with "
         "FLUX_UPDATE_GOLDEN=1";
}

TEST(KvsTrafficFingerprint, WindowCoalescesAnnounces) {
  // Guards the golden's coverage: the 40 us run must actually take the
  // deferred apply/announce path, and the 0 us run must not.
  const KvsModule::OpStats sync = fingerprint(0).master_ops;
  const KvsModule::OpStats windowed = fingerprint(40).master_ops;
  EXPECT_EQ(sync.apply_batched_fences, windowed.apply_batched_fences);
  EXPECT_LT(windowed.apply_batches, sync.apply_batches);
  EXPECT_LT(windowed.announces, sync.announces);
}

}  // namespace
}  // namespace flux

// resvc (resource enumeration in the KVS) and the PMI bootstrap
// library (the paper's MPI-runtime integration path).
#include <gtest/gtest.h>

#include "api/pmi.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

// ---------------------------------------------------------------------------
// resvc
// ---------------------------------------------------------------------------

TEST(Resvc, EnumeratesNodesIntoKvs) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    auto nodes = co_await kvs.list_dir("resource.nodes");
    if (nodes.size() != 8)
      throw FluxException(Error(errc::proto, "expected 8 enumerated nodes"));
    Json n0 = co_await kvs.get("resource.nodes.n0");
    if (n0.get_int("cores") != 16 || n0.get_string("state") != "up")
      throw FluxException(Error(errc::proto, "bad node record"));
  }(h.get()));
}

// ---------------------------------------------------------------------------
// PMI bootstrap (the paper's KAP motivation: "distributed HPC software would
// use KVS operations in a coordinated fashion to exchange connection
// information among processes during its bootstrapping phase")
// ---------------------------------------------------------------------------

TEST(Pmi, FullBootstrapExchange) {
  constexpr int kProcs = 12;
  SimSession s(SimSession::default_config(4));
  std::vector<std::unique_ptr<Handle>> handles;
  int ok = 0;
  for (int p = 0; p < kProcs; ++p) {
    handles.push_back(s.attach(static_cast<NodeId>(p) % 4));
    co_spawn(
        s.ex(),
        [](Handle* h, int rank, int* done) -> Task<void> {
          Pmi pmi(*h, "job42", rank, kProcs);
          co_await pmi.init();
          // Publish our "business card", as an MPI runtime would.
          co_await pmi.put("card." + std::to_string(rank),
                           "addr-of-" + std::to_string(rank));
          co_await pmi.barrier();
          // Read every peer's card.
          for (int peer = 0; peer < kProcs; ++peer) {
            std::string card =
                co_await pmi.get("card." + std::to_string(peer));
            if (card != "addr-of-" + std::to_string(peer))
              throw FluxException(Error(errc::proto, "bad business card"));
          }
          co_await pmi.finalize();
          ++*done;
        }(handles.back().get(), p, &ok),
        "pmi-proc");
  }
  s.ex().run();
  EXPECT_EQ(ok, kProcs);
}

TEST(Pmi, BarrierPublishesPriorPuts) {
  SimSession s(SimSession::default_config(4));
  auto a = s.attach(1);
  auto b = s.attach(3);
  int stage = 0;
  co_spawn(s.ex(), [](Handle* h, int* st) -> Task<void> {
    Pmi pmi(*h, "j", 0, 2);
    co_await pmi.init();
    co_await pmi.put("k", "v");
    co_await pmi.barrier();
    *st += 1;
  }(a.get(), &stage), "pmi-a");
  co_spawn(s.ex(), [](Handle* h, int* st) -> Task<void> {
    Pmi pmi(*h, "j", 1, 2);
    co_await pmi.init();
    co_await pmi.barrier();
    // After the barrier the peer's put must be visible.
    std::string v = co_await pmi.get("k");
    if (v != "v") throw FluxException(Error(errc::proto, "put not visible"));
    *st += 1;
  }(b.get(), &stage), "pmi-b");
  s.ex().run();
  EXPECT_EQ(stage, 2);
}

TEST(Pmi, InitRecordsProcessTable) {
  SimSession s(SimSession::default_config(4));
  auto a = s.attach(2);
  auto b = s.attach(0);
  int done = 0;
  for (auto* h : {a.get(), b.get()}) {
    static int rank = 0;
    co_spawn(s.ex(), [](Handle* hd, int r, int* d) -> Task<void> {
      Pmi pmi(*hd, "ptab", r, 2);
      co_await pmi.init();
      ++*d;
    }(h, rank++, &done), "pmi");
  }
  s.ex().run();
  ASSERT_EQ(done, 2);
  auto h = s.attach(1);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    Json proc0 = co_await kvs.get("ptab.proc.0");
    if (proc0.get_int("broker_rank", -1) < 0)
      throw FluxException(Error(errc::proto, "no broker rank recorded"));
  }(h.get()));
}

}  // namespace
}  // namespace flux

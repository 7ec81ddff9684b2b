// Outside-in layer probes for a simulated session the benchmark owns: the
// stats RPCs (kvs.stats on the master, cmb.stats.get swept over every rank)
// and the KVS modules' public counters. Called only after a measured phase.
#pragma once

#include <functional>

#include "broker/session.hpp"
#include "common.hpp"
#include "exec/sim_executor.hpp"
#include "spans.hpp"

namespace perfbench {

struct SessionLayers {
  flux::Json kvs_master = flux::Json::object();  ///< kvs.stats on rank 0
  flux::Json cmb = flux::Json::object();  ///< cmb.stats.get, all ranks merged
  std::uint64_t cache_hits = 0, cache_misses = 0, faults_issued = 0;
};

/// Issue the stats RPCs from rank 0 and sum the KVS module counters.
SessionLayers probe_session(flux::SimExecutor& ex, flux::Session& session,
                            SpanRecorder& rec);

/// Fill kvs.cache_hits/misses/hit_ratio and kvs.faults_issued, summed over
/// all brokers.
void add_cache_layers(Outcome& out, std::uint64_t hits, std::uint64_t misses,
                      std::uint64_t faults);

/// Fill the broker.rpc_*, kvs.cache_*, kvs.faults_issued, kvs.objects,
/// kvs.apply_* and kvs.announce_* layer metrics.
void add_session_layers(Outcome& out, const SessionLayers& s);

/// Count of simulated messages and bytes, for before/after deltas.
struct NetCount {
  std::uint64_t messages = 0, bytes = 0;
};
NetCount net_count(flux::Session& session);

/// Host seconds from Session::create_sim until every broker is online, for
/// 15 fresh sessions built from `cfg` (each torn down before the next); the
/// median over a run's repetitions is setup_s. `before_each` runs untimed
/// ahead of each set-up.
std::vector<double> time_setups(const flux::SessionConfig& cfg,
                                SpanRecorder& rec,
                                const std::function<void()>& before_each = {});

}  // namespace perfbench

// The kvs comms module (paper §IV-B), with the namespace split over k shard
// masters (§VII's "distributed KVS master", module config {"shards": k}).
// The paper's single master is simply k=1; there is one code path.
//
// One instance runs inside each broker where the module is loaded.
//  - The namespace is hash-partitioned by top-level directory; a
//    deterministic ShardMap (rendezvous hashing, shard_map.hpp) lets every
//    broker compute a key's owner locally. master_rank(s) = s*size/k, so
//    shard 0 is mastered by the session root.
//  - A shard's *master* holds that shard's authoritative content store,
//    applies transactions to its hash tree (own root ref + version) and
//    publishes each new root. Every other instance is a *slave cache* for
//    that shard: it resolves gets against its local object cache, faulting
//    missing objects from its parent toward the master "recursively up the
//    tree until the request can be fulfilled", and adopts roots in version
//    order when setroot events arrive.
//  - A fence (a commit is a one-party fence) is split into one part per
//    shard; empty parts still carry their participant count, so every
//    master detects completion at nprocs independently. Parts climb toward
//    their master with same-turn contributions coalesced and objects SHA1-
//    deduplicated at every hop. Masters apply ready fences in batches and
//    announce them under a rate-limiting window (announce_window_us).
//  - Next hop toward shard s's master: the session tree when that master is
//    the session root, else the shard's own reduction tree over *direct*
//    transport edges (Broker::forward_direct / direct_rpc), so shard traffic
//    never serializes through the session root — the point of §VII.
//
// What depends on k lives at the edges:
//  - k=1: the master announces "kvs.setroot" with the names of the fences
//    the new root completes, and every instance completes those fences when
//    the event arrives. Wire shapes carry no shard fields.
//  - k>1: masters announce "kvs.setroot.<s>" and report each applied fence
//    to a ShardCoordinator on the session root, which fuses the per-shard
//    completions into one "kvs.fence.done" event carrying the full version
//    vector — collective-commit semantics plus cross-shard visibility.
//    Responses and stats carry the vector as "vv".
//
// Consistency (Vogels' taxonomy, as claimed by the paper):
//  - monotonic reads: each shard's roots apply in that shard's version
//    order, and gets walk an immutable snapshot;
//  - read-your-writes: commit/fence responses carry the new root, which the
//    local instance adopts *before* responding to the caller;
//  - causal: get_version/wait_version let one process pass a version to
//    another, which waits for it before reading. The scalar version is the
//    sum of the shard versions (monotonic; shard 0's version at k=1).
//
// A dead shard master ("live.down") fails fast: in-flight direct RPCs to it
// settle EHOSTDOWN, pending fences fuse as failed, new operations on its
// shard are refused, and the other shards keep serving. With {"failover":
// true} the next live rank re-masters the shard (hb-clocked).
//
// Client-visible operations (via kvs_client.hpp):
//   stage, get, lookup_ref, commit, fence, get_version, wait_version, stats,
//   drop_cache
// Writes have one protocol: the writer stages a KvsTxn and ships it whole
// in one commit/fence ("ops" tuples plus an object bundle); stage only
// positions a client's value objects early (write-back). No per-endpoint
// write state lives here.
// Internal (module-to-module):
//   flush (aggregated dirty state heading to a master), load/fault (object
//   fetch from the parent toward a master), shard_done (master ->
//   coordinator).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/module.hpp"
#include "exec/future.hpp"
#include "exec/task.hpp"
#include "kvs/content_store.hpp"
#include "kvs/object_bundle.hpp"
#include "kvs/shard_map.hpp"

namespace flux {

class ShardCoordinator;

class KvsModule final : public ModuleBase {
 public:
  explicit KvsModule(Broker& broker);
  ~KvsModule() override;

  [[nodiscard]] std::string_view name() const override { return "kvs"; }
  void start() override;
  void shutdown() override;
  void on_fail() override;
  void handle_event(const Message& msg) override;

  /// True on the session root (shard 0's home master).
  [[nodiscard]] bool is_master() const noexcept;

  /// Number of shard masters (module config {"shards": k}; default 1).
  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }
  [[nodiscard]] const ShardMap& shard_map() const noexcept { return shard_map_; }
  /// The shard this broker masters, if any.
  [[nodiscard]] std::optional<std::uint32_t> my_shard() const noexcept {
    return my_shard_;
  }

  struct OpStats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t commits = 0;
    std::uint64_t fences = 0;
    /// Upstream fault round-trips issued (a batched kvs.load counts once no
    /// matter how many objects it brings in).
    std::uint64_t faults_issued = 0;
    std::uint64_t faults_served = 0;
    /// Batched kvs.load requests handled for downstream brokers.
    std::uint64_t loads_served = 0;
    /// Objects brought into the local cache by fault/load responses.
    std::uint64_t objects_faulted = 0;
    std::uint64_t flushes_forwarded = 0;
    /// Masters: root transitions performed (one per coalesced apply batch)
    /// and the total fences those transitions covered. The ratio is the
    /// coalescing factor commit bursts achieve.
    std::uint64_t apply_batches = 0;
    std::uint64_t apply_batched_fences = 0;
    /// Masters: setroot announces published and the fences they covered.
    /// Under commit bursts one announce carries several coalesced root
    /// transitions, so announces <= apply_batches.
    std::uint64_t announces = 0;
    std::uint64_t announced_fences = 0;
  };

  /// Persistence/GC counters (masters with a durable backend only).
  struct PersistStats {
    std::uint64_t checkpoints = 0;
    std::uint64_t gc_passes = 0;
    std::uint64_t gc_swept = 0;
    std::uint64_t gc_swept_bytes = 0;
    std::uint64_t recovered_objects = 0;
    std::uint64_t recovered_version = 0;  ///< post-recovery-epoch version
    std::uint64_t truncated_bytes = 0;    ///< torn tail dropped at recovery
  };

  // Introspection for tests/benches.
  /// Scalar version: the sum of the shard versions.
  [[nodiscard]] std::uint64_t root_version() const noexcept { return root_version_; }
  /// Scalar root ref: shard 0's root.
  [[nodiscard]] const Sha1& root_ref() const noexcept { return roots_[0]; }
  [[nodiscard]] const ObjectCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ContentStore& store() const noexcept { return store_; }
  [[nodiscard]] const OpStats& op_stats() const noexcept { return ops_; }
  [[nodiscard]] const PersistStats& persist_stats() const noexcept {
    return persist_stats_;
  }
  [[nodiscard]] bool persistent() const noexcept { return backend_ != nullptr; }
  [[nodiscard]] const std::vector<std::uint64_t>& shard_versions() const noexcept {
    return versions_;
  }
  /// Current master rank per shard (updated by hb-driven failover).
  [[nodiscard]] const std::vector<NodeId>& shard_masters() const noexcept {
    return shard_masters_;
  }

 private:
  // -- request handlers -------------------------------------------------------
  void op_stage(Message& msg);
  void op_get(Message& msg);
  void op_lookup_ref(Message& msg);
  void op_get_version(Message& msg);
  void op_wait_version(Message& msg);
  void op_commit(Message& msg);
  void op_fence(Message& msg);
  void op_flush(Message& msg);
  void op_fault(Message& msg);
  void op_load(Message& msg);
  void op_shard_done(Message& msg);
  void op_stats(Message& msg);
  void op_drop_cache(Message& msg);

  // -- machinery ---------------------------------------------------------------
  struct Txn {
    std::vector<Tuple> tuples;
    std::vector<ObjPtr> objects;
  };
  /// Position a client's object: the sole master (k=1) stores it outright;
  /// everyone else caches it (pinned until its fence completes when `pin`)
  /// and lets the fence flush carry it to its shard.
  void stage_object(const ObjPtr& obj, bool pin);
  /// Claim the transaction a commit/fence request carries (payload ops +
  /// bundle); returns nullopt after responding with an error on malformed
  /// input.
  std::optional<Txn> claim_txn(Message& msg);

  /// One fence as this broker sees it: one part per shard.
  struct Fence {
    struct Part {
      // Contributor identities not yet flushed upstream (or into the master
      // total). May repeat across waves — the master's `counted` set dedupes.
      std::vector<std::string> pending_contributors;
      std::vector<Tuple> pending_tuples;
      std::vector<ObjPtr> pending_objects;
      /// Objects already forwarded upstream for this part: cumulative, so an
      /// object crosses each broker at most once no matter how contributions
      /// stagger ("values are reduced while being sent up the tree").
      std::unordered_set<Sha1> forwarded_ids;
      /// Contributor identities seen at this broker — local clients and
      /// relayed flushes alike (retry detection — see fence_add).
      std::set<std::string> origins;
      bool flush_scheduled = false;
      // Tuples were routed to this shard through this broker; if the shard's
      // master then dies mid-fence, local waiters must see an error even
      // when the coordinator salvages the live shards.
      bool touched = false;
      // Master only: distinct contributor identities seen so far. The part
      // is ready when this reaches nprocs. Counting identities instead of
      // arrivals makes client RPC retries idempotent end-to-end: a duplicate
      // flush (the original was merely slow) collapses here instead of
      // letting the fence fuse without the slowest participant's ops, while
      // a retry whose original flush was lost to a crashed broker
      // re-supplies it.
      std::set<std::string> counted;
      std::vector<Tuple> total_tuples;
      // Master only: already queued in the apply batch — extra contributions
      // past nprocs must not enqueue it twice.
      bool apply_pending = false;
    };
    std::int64_t nprocs = 0;
    std::vector<Part> parts;
    // Requests from clients of *this* broker awaiting completion.
    std::vector<Message> waiters;
    // Local cache pins to release at completion.
    std::vector<Sha1> pins;
  };

  /// Identity of the requesting endpoint, stable across its RPC retries.
  std::string fence_origin_key(const Message& msg);

  /// Add contributions to fence `name`'s part for `shard` and schedule its
  /// flush toward that shard's master.
  void fence_add(const std::string& name, std::uint32_t shard,
                 std::int64_t nprocs, std::vector<std::string> contributors,
                 std::vector<Tuple> tuples, const std::vector<ObjPtr>& objects);
  /// The posted flush: one upstream kvs.flush per (fence, shard) per reactor
  /// turn, or — at the master — count the contributions in.
  void flush_fence(const std::string& name, std::uint32_t shard);
  void master_check_fence(const std::string& name, std::uint32_t shard);

  /// Master: post one apply for every fence part that became ready this
  /// reactor turn (idempotent while a flush is pending).
  void schedule_master_apply();
  /// The posted flush: per shard, concatenates the batch (readiness order)
  /// into ONE apply_transaction + ONE version bump, so all coalesced
  /// committers observe the same new root.
  void flush_apply_batch();

  /// Master: apply tuples to shard `shard`, bump its version, schedule the
  /// announce of `fences`.
  void master_apply(std::uint32_t shard, const std::vector<Tuple>& tuples,
                    std::vector<std::string> fences);

  /// Master: announce now if the last announce is at least one window old,
  /// else arm a timer at last_announce_ + window. Idle and sequential
  /// traffic stays on the synchronous path; only commit bursts (applies
  /// closer together than the window) coalesce.
  void schedule_announce();
  /// Publish one setroot per shard covering every root transition since
  /// the last announce, completing the accumulated fences.
  void flush_announce();
  /// Publish shard `shard`'s current root. k=1: "kvs.setroot" naming the
  /// fences it completes. k>1: "kvs.setroot.<s>" (claiming mastership when
  /// `claim_master`), then each fence is reported to the coordinator.
  void publish_root(std::uint32_t shard, std::vector<std::string> fences,
                    bool claim_master = false);

  /// Adopt shard `shard`'s root if it is newer (per-shard monotonic reads).
  /// Callers follow up with refresh_scalar_root().
  void adopt_root(std::uint32_t shard, const Sha1& ref, std::uint64_t version);
  /// Adopt every newer root a payload names: "vv"/"rootrefs" arrays when
  /// present, else "version"/"rootref" as shard 0's root.
  void adopt_roots(const Json& payload);
  /// Recompute the scalar version (sum of shard versions) and complete the
  /// version waiters it unblocks.
  void refresh_scalar_root();
  /// Complete fence `name`'s local waiters against the current root (or
  /// with EHOSTDOWN when the fence lost writes to a dead shard master).
  void complete_fence(const std::string& name, bool failed);

  void on_setroot(const Message& msg);
  void on_fence_done(const Message& msg);
  void on_live_down(const Message& msg);

  [[nodiscard]] bool is_shard_master(std::uint32_t shard) const noexcept;
  /// k=1 and this broker is the master: every key is authoritative here.
  [[nodiscard]] bool sole_master() const noexcept {
    return shards_ == 1 && is_shard_master(0);
  }
  /// The shard currently mastered by `rank`, consulting failover state.
  [[nodiscard]] std::optional<std::uint32_t> mastered_by(NodeId rank) const;
  /// True when shard `shard`'s master is the session root, so requests
  /// toward it travel the session tree.
  [[nodiscard]] bool via_session_tree(std::uint32_t shard) const noexcept;
  /// Send a fire-and-forget request one hop toward shard `shard`'s master.
  void forward_toward_master(std::uint32_t shard, Message req);
  /// Bind the kvs.shard.<s>.* instruments once this broker masters `shard`.
  void bind_shard_stats(std::uint32_t shard);

  // -- failover / rejoin recovery ---------------------------------------------
  /// Deterministic successor for a dead shard master: the next live rank
  /// after it in ring order (every broker computes the same answer from the
  /// globally-ordered live.down history).
  [[nodiscard]] NodeId successor_for(std::uint32_t shard) const;
  /// hb tick: promote this broker for any shard whose failover grace period
  /// has elapsed and whose designated successor we are.
  void check_failovers();
  /// Take over a dead shard: re-bootstrap it one version above the last
  /// published root and announce mastership via "kvs.setroot.<s>".
  void promote_shard(std::uint32_t shard);
  /// After a broker restart+rejoin: re-adopt roots/versions/masters from the
  /// upstream kvs instance (objects fault back in on demand).
  Task<void> resync_after_rejoin();
  /// Re-bind `shard` to master `rank` (failover or rejoin announcement):
  /// the shard counts as live again. False when `rank` is out of range or
  /// already the master.
  bool rebind_master(std::uint32_t shard, std::int64_t rank);
  /// Give `shard` a fresh empty root one version up (bootstrap, failover,
  /// or a restarted master without a durable log).
  void bootstrap_empty(std::uint32_t shard);
  /// Next hop toward shard `shard`'s master over its own tree, climbing over
  /// dead interior ranks (the shard-tree analogue of the session tree's
  /// self-healing). nullopt at the master or when the whole chain above is
  /// dead.
  [[nodiscard]] std::optional<NodeId> shard_parent_live(std::uint32_t shard,
                                                        NodeId rank) const;

  /// Local-or-fault object lookup (coalesces concurrent faults) in shard
  /// `shard`'s tree.
  Task<ObjPtr> lookup_object(Sha1 ref, std::uint32_t shard);

  /// Chain-aware lookup used by the get walk: on a miss, one batched
  /// kvs.load round-trip brings in `ref` plus (speculatively) the whole
  /// directory chain named by `walk` below it.
  Task<ObjPtr> lookup_chain(Sha1 ref, std::vector<std::string> walk,
                            std::uint32_t shard);

  /// Batched fault core: make `refs` locally available, fetching every miss
  /// in a single upstream kvs.load round-trip (per-id coalescing across
  /// concurrent batches via faults_). `walk` is the speculative chain hint
  /// forwarded when refs[0] itself is missing. Returns objects positionally
  /// (null = unknown upstream, or fetch tainted by timeout/host-down).
  Task<std::vector<ObjPtr>> ensure_objects(std::vector<Sha1> refs,
                                           std::vector<std::string> walk,
                                           std::uint32_t shard);

  /// Server side of one kvs.load request; responds with an ObjectBundle of
  /// everything located (requested refs + walked chain) and the missing ids.
  Task<void> serve_load(Message req, std::vector<Sha1> refs,
                        std::vector<std::string> walk, std::uint32_t shard);

  /// Async get walk; responds to `req` when done.
  Task<void> do_get(Message req, bool ref_only);
  /// Merged top-level listing of every shard's root (k>1 root-directory get).
  Task<void> list_root_merged(Message req);

  /// Version waits name a shard, or kScalar for the scalar version.
  static constexpr std::int64_t kScalar = -1;
  [[nodiscard]] std::uint64_t version_of(std::int64_t shard) const;
  /// Resolves once version_of(shard) reaches `version`.
  Future<std::uint64_t> version_reached(std::int64_t shard,
                                        std::uint64_t version);

  // -- persistence (durable content store + checkpoint/restart + GC) ----------
  /// Module config {"persist": {"path": ..., "checkpoint_every": N,
  /// "gc_every": M, "retention": R}}. Only masters open a backend; with k>1
  /// the path gains the suffix ".s<shard>".
  struct PersistConfig {
    std::string path;
    std::uint64_t checkpoint_every = 16;  ///< applies per checkpoint record
    std::uint64_t gc_every = 0;           ///< applies per GC pass (0 = off)
    std::uint64_t retention = 4;          ///< versions kept past reachability
  };
  /// Open the backend for this master and replay the durable log. Returns
  /// true when a prior root was recovered (the caller re-announces it one
  /// version up — the recovery epoch — instead of bootstrapping empty).
  bool persist_open(std::uint32_t shard);
  /// Durability point after one master apply: append the root record, sync
  /// (ack-after-sync: announce only happens after this), then run the
  /// checkpoint and GC cadences.
  void persist_root(std::uint32_t shard);
  /// Live roots and GC pins (in-flight fence objects) for mark_and_sweep.
  [[nodiscard]] std::vector<Sha1> gc_roots() const;
  [[nodiscard]] std::vector<Sha1> gc_pins() const;
  void run_gc();

  // -- state -------------------------------------------------------------------
  std::uint32_t shards_ = 1;
  ShardMap shard_map_;
  std::optional<std::uint32_t> my_shard_;
  // Per-shard root ref and version (0 == no root yet).
  std::vector<Sha1> roots_ = std::vector<Sha1>(1);
  std::vector<std::uint64_t> versions_ = std::vector<std::uint64_t>(1, 0);
  std::uint64_t root_version_ = 0;  // sum of versions_
  ContentStore store_;              // shard masters only
  ObjectCache cache_;               // slaves (and staging toward masters)
  std::uint64_t epoch_ = 0;
  std::uint64_t expiry_epochs_ = 0;  // 0 == expiry disabled

  std::uint64_t commit_seq_ = 0;
  std::uint64_t fence_anon_seq_ = 0;  // fence_origin_key fallback counter
  std::map<std::string, Fence> fences_;
  /// Master: fence parts ready to apply, coalescing within one reactor turn
  /// in readiness order. Flushed by one posted task; under sustained load
  /// the flush is additionally rate-limited to one per announce window, so
  /// commits arriving at distinct instants still share one root transition
  /// (and one directory freeze/hash) per shard.
  struct ReadyPart {
    std::uint32_t shard;
    std::string name;
    std::vector<Tuple> tuples;
  };
  std::vector<ReadyPart> apply_batch_;
  bool apply_scheduled_ = false;
  TimePoint last_apply_flush_{};
  /// Batch instruments (bound on masters in start(); surface in
  /// `flux_cli stats`).
  obs::Counter* apply_batches_stat_ = nullptr;
  obs::Histogram* apply_batch_size_ = nullptr;
  /// Master: deferred setroot announce. The window rate-limits both the
  /// apply flush (above) and the O(tree) event broadcast — which carries the
  /// coalesced fence completions downstream — to one per window under load;
  /// the first flush after an idle window stays synchronous, so lone-op
  /// latency is untouched. Zero window disables deferral.
  Duration announce_window_{};
  TimePoint last_announce_{};
  bool announce_armed_ = false;
  /// Liveness token for the deferred apply/announce timers: ThreadExecutor
  /// timers are not cancelable, and a broker restart destroys this module
  /// instance while an armed timer may still fire — the callbacks hold a
  /// weak_ptr and become no-ops once the token dies with the module.
  std::shared_ptr<const bool> announce_token_ = std::make_shared<const bool>(true);
  /// Applied fences awaiting the announce: {shard, fence name}.
  std::vector<std::pair<std::uint32_t, std::string>> announce_names_;
  obs::Counter* announces_stat_ = nullptr;
  obs::Histogram* announce_size_ = nullptr;
  std::unordered_map<Sha1, Promise<ObjPtr>> faults_;
  /// Parked version waits in registration order: {shard or kScalar,
  /// version to reach, promise}.
  struct VersionWaiter {
    std::int64_t shard;
    std::uint64_t version;
    Promise<std::uint64_t> promise;
  };
  std::vector<VersionWaiter> version_waiters_;

  // Persistence state (masters with {"persist": ...} config only).
  std::optional<PersistConfig> persist_;
  std::unique_ptr<ContentBackend> backend_;
  std::uint64_t applies_since_checkpoint_ = 0;
  std::uint64_t applies_since_gc_ = 0;
  /// Per-shard version this instance re-established from its durable log at
  /// start() (post recovery-epoch bump); 0 = not recovered. Consulted by
  /// resync_after_rejoin to keep recovered data instead of re-bootstrapping
  /// empty.
  std::vector<std::uint64_t> recovered_versions_;
  PersistStats persist_stats_;
  obs::Histogram* gc_pause_ns_ = nullptr;

  // Liveness and failover.
  std::vector<bool> shard_dead_;           // indexed by shard (master died)
  std::unordered_set<NodeId> dead_ranks_;  // every dead rank (tree healing)
  // Current master per shard (ShardMap home ranks until failover moves one).
  std::vector<NodeId> shard_masters_;
  // hb-driven failover (module config {"failover": true}): shard -> epoch at
  // which the designated successor self-promotes.
  bool failover_ = false;
  std::map<std::uint32_t, std::uint64_t> pending_failover_;
  std::unique_ptr<ShardCoordinator> coord_;  // session root, k>1 only
  // Per-shard instruments (k>1 shard masters only; named kvs.shard.<s>.*).
  obs::Counter* shard_commits_ = nullptr;
  obs::Counter* shard_faults_served_ = nullptr;
  obs::Histogram* shard_apply_ns_ = nullptr;

  OpStats ops_;
};

}  // namespace flux

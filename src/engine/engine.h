/// \file engine.h
/// \brief The LMFAO engine: prepare-once / execute-many evaluation of
/// aggregate batches.
///
/// Ties the layers together (Fig. 1): View Generation lowers the batch into
/// a workload of merged directional views; Multi-Output Optimization groups
/// the views and compiles one register program per group; execution runs the
/// groups over the join tree, sequentially or in parallel, and extracts one
/// result map per query.
///
/// The public surface is a prepared-statement-style split:
///
///   - `Engine::Prepare(batch)` runs all three optimization layers once and
///     returns a `PreparedBatch` handle owning the immutable compiled
///     artifact (workload, groups, attribute orders, group plans with leaf
///     factor tables and flattened register programs) plus a frozen
///     snapshot of the engine options.
///   - `PreparedBatch::Execute(params)` runs ONLY the execution layer. It
///     is repeatable and safe to call concurrently from multiple threads:
///     the compiled state is never mutated, and each Execute builds its own
///     ExecutionContext. Parameterized functions (Function::IndicatorParam)
///     resolve their threshold slots against `params` at group bind time.
///   - `Engine::Evaluate(batch, params)` remains as the one-shot
///     convenience wrapper, literally Prepare + Execute.
///
/// Prepare is backed by a *structural plan cache*: batches with equal
/// structure (group-bys, root hints, aggregate signatures — parameterized
/// functions hash their slot, not any bound constant) and equal
/// compile-relevant options share one compiled artifact, so workloads that
/// re-issue the same batch shape with different constants (CART node
/// batches, k-means iterations) compile once and execute many times.
/// `InvalidateCaches()` bumps a generation counter: existing PreparedBatch
/// handles turn stale and fail Execute with FailedPrecondition instead of
/// silently reusing sort/plan caches of mutated relations.

#ifndef LMFAO_ENGINE_ENGINE_H_
#define LMFAO_ENGINE_ENGINE_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dist/shard_spec.h"
#include "engine/attribute_order.h"
#include "engine/grouping.h"
#include "engine/ir.h"
#include "engine/jit.h"
#include "engine/parallel.h"
#include "engine/plan.h"
#include "engine/view_generation.h"
#include "jointree/join_tree.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lmfao {

class Engine;

/// \brief Resource limits governing one execution pass.
///
/// Enforced by a CancelToken shared across the pass's workers: checked at
/// group boundaries, after every publish, and (interpreter tiers) amortized
/// inside the trie iteration. A tripped deadline returns DeadlineExceeded,
/// a tripped memory budget ResourceExhausted; either way the pass unwinds
/// cleanly — consumed views released, partial outputs dropped, the engine's
/// caches and generation untouched — so the same PreparedBatch can be
/// re-executed afterwards. Both fields default to "unlimited"; enabling
/// them costs <2% on untripped executions (bench_e2e_batch LimitOverhead).
struct ExecLimits {
  /// Wall-clock budget in seconds for the whole pass; <= 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Budget for live view memory (ViewStore bytes plus in-flight output
  /// maps); 0 = unlimited. A trip on a domain-sharded group retries once
  /// unsharded (lower peak memory) before failing the pass.
  size_t max_view_bytes = 0;

  bool enabled() const {
    return deadline_seconds > 0.0 || max_view_bytes != 0;
  }
};

/// \brief All engine options, including the ablation toggles benchmarked by
/// bench_ablation.
struct EngineOptions {
  ViewGenerationOptions view_generation;
  GroupingOptions grouping;
  PlanOptions plan;
  /// The unified task+domain scheduler (parallel.h). Defaults to
  /// sequential execution (num_threads = 1); any larger thread count runs
  /// the hybrid scheduler, whose task-only / domain-only degenerations are
  /// toggles on SchedulerOptions.
  SchedulerOptions scheduler;
  /// Maximum distinct batch shapes held by the structural plan cache
  /// (least-recently-used shapes are evicted beyond this; outstanding
  /// PreparedBatch handles keep their artifact alive regardless). 0
  /// disables caching — every Prepare compiles fresh. Execution-only: not
  /// part of the cache key.
  size_t plan_cache_capacity = 64;
  /// Runtime JIT backend (engine/jit.h): Prepare lowers the batch's plans
  /// through the runtime emitter and compiles them into a shared object;
  /// groups whose native function is ready execute it instead of the
  /// interpreter. Defaults from the environment (LMFAO_JIT=off|on|async|
  /// sync, LMFAO_JIT_CC=<compiler>); kOff when unset. The mode (on/off) is
  /// part of the plan-cache key — artifacts carry their module.
  JitOptions jit = JitOptions::FromEnv();
  /// Routes interpreter hot kernels (range sums, scratch product sums,
  /// fused beta runs) through the explicit AVX2 tier (simd_kernels.h).
  /// Bit-identical to the scalar shapes on all inputs, so it defaults on;
  /// execution-only, not part of the cache key.
  bool simd_kernels = true;
  /// Default resource limits for every Execute of batches prepared under
  /// these options; the per-call Execute(params, limits) overloads
  /// override them. Execution-only, not part of the cache key.
  ExecLimits limits;
};

/// \brief Per-group execution statistics.
struct GroupStats {
  int group_id = -1;
  RelationId node = kInvalidRelation;
  int num_outputs = 0;
  double seconds = 0.0;
  size_t output_entries = 0;
  /// Domain shards the group ran in (1 = unsharded).
  int shards = 1;
  /// Seconds the group waited between becoming ready and starting.
  double wait_seconds = 0.0;
  /// Execution backend the group ran on: "jit" (native compiled function),
  /// "simd" (interpreter with explicit AVX2 kernels), or "interp" (scalar
  /// interpreter). Points at static strings.
  const char* backend = "interp";
  /// True when the group ran below its requested tier or shape: a JIT
  /// module was configured but this group fell back to the interpreter
  /// tiers, or a memory trip forced the once-unsharded retry.
  bool degraded = false;
  /// Live ViewStore bytes right after the group published its outputs and
  /// released its inputs (the view-memory frontier at this point of the
  /// schedule), split into key-side bytes (packed keys, cached hashes,
  /// occupancy) and payload bytes so layout wins stay attributable.
  size_t store_key_bytes = 0;
  size_t store_payload_bytes = 0;

  size_t store_bytes() const { return store_key_bytes + store_payload_bytes; }
};

/// \brief One shard's figures from a sharded execution
/// (PreparedBatch::ExecuteSharded): its slice of the partitioned
/// relation, its local execute time, and the bytes it shipped to the
/// coordinator.
struct DistShardStats {
  int shard = 0;
  /// Rows of the partitioned relation in this shard's slice.
  size_t rows = 0;
  /// Local execute wall time (includes encoding the shard's views).
  double seconds = 0.0;
  /// Encoded view-exchange bytes this shard produced.
  size_t exchange_bytes = 0;
};

/// \brief Statistics of one batch evaluation.
///
/// Timing is split along the Prepare/Execute boundary: `compile_seconds`
/// is the optimization-layer time THIS call actually paid (0 when the
/// artifact came from a PreparedBatch or the plan cache), while
/// viewgen/grouping/plan_seconds record the phase breakdown of the
/// artifact's original compilation, whenever it happened.
struct ExecutionStats {
  int num_queries = 0;
  int num_views = 0;        ///< Inner (directional) views after merging.
  int num_aggregates = 0;   ///< Aggregate slots across all views/outputs.
  int num_groups = 0;
  double viewgen_seconds = 0.0;
  double grouping_seconds = 0.0;
  double plan_seconds = 0.0;
  /// Compile time paid by this call (viewgen + grouping + planning, plus
  /// cache bookkeeping). ~0 on a plan-cache hit or a prepared Execute.
  double compile_seconds = 0.0;
  /// True when this call reused a previously compiled artifact (plan-cache
  /// hit, or any Execute of an existing PreparedBatch).
  bool plan_cache_hit = false;
  double execute_seconds = 0.0;
  double total_seconds = 0.0;
  /// Peak number of simultaneously materialized views; eager eviction
  /// keeps this below the workload's total view count on multi-group
  /// workloads.
  size_t peak_live_views = 0;
  /// Peak bytes held by the ViewStore, plus the key/payload split (each
  /// side's own peak, so the two need not sum to peak_view_bytes).
  size_t peak_view_bytes = 0;
  size_t peak_view_key_bytes = 0;
  size_t peak_view_payload_bytes = 0;
  /// Views frozen into sorted-array form (plan-layer freeze decision).
  int num_frozen_views = 0;
  /// \name Delta execution (PreparedBatch::ExecuteDelta).
  /// @{
  /// True when this result was produced by folding delta passes into a
  /// previous result instead of a full execution.
  bool delta_execution = false;
  /// Delta passes run — one per relation that grew between the base
  /// result's epoch and the refresh epoch (0 = nothing changed, the base
  /// results were returned unchanged).
  int delta_passes = 0;
  /// Total appended rows propagated across all delta passes.
  size_t delta_rows = 0;
  /// Across all delta passes, group executions whose input closure
  /// (GroupPlan::source_relation_mask) contains the pass's delta relation —
  /// the groups that computed true deltas rather than replaying unchanged
  /// inputs.
  int delta_dirty_groups = 0;
  /// @}
  /// \name Sharded distributed execution (PreparedBatch::ExecuteSharded).
  /// @{
  /// True when this result was produced by merging per-shard partial
  /// results through the view-exchange / coordinator path.
  bool dist_execution = false;
  /// Effective shard count (after clamping to the partitioned relation's
  /// rows); 0 on non-sharded executions.
  int dist_shards = 0;
  /// The relation whose row ranges the shards partitioned.
  RelationId dist_relation = kInvalidRelation;
  /// Total encoded view-exchange bytes shipped from shards to the
  /// coordinator.
  size_t exchange_bytes = 0;
  /// Coordinator time: decoding shard frames and folding them into the
  /// final result maps.
  double merge_seconds = 0.0;
  /// Max / mean local execute time across shards; their ratio is the
  /// shard skew (1.0 = perfectly balanced).
  double shard_max_seconds = 0.0;
  double shard_mean_seconds = 0.0;
  std::vector<DistShardStats> dist_shard_stats;
  /// @}
  /// \name Execution backend (see GroupStats::backend).
  /// @{
  /// Group executions per backend tier this call. Delta passes accumulate
  /// across passes, so the three can sum to a multiple of num_groups.
  int groups_jit = 0;
  int groups_simd = 0;
  int groups_interp = 0;
  /// "jit" / "simd" / "interp" when every group ran one tier, "mixed"
  /// otherwise (e.g. async JIT still compiling for part of a pass).
  std::string backend = "interp";
  /// \name Resource governance (ExecLimits).
  /// Limit trips observed during the pass — deadline or memory-budget
  /// trips, including injected OOM failpoints and trips the unsharded
  /// retry recovered from — and groups that ran degraded (see
  /// GroupStats::degraded). Delta executions accumulate across passes.
  /// @{
  int limit_trips = 0;
  int degraded_groups = 0;
  /// @}
  /// Recomputes `backend` from the per-tier counters.
  void DeriveBackend() {
    const int kinds = (groups_jit > 0 ? 1 : 0) + (groups_simd > 0 ? 1 : 0) +
                      (groups_interp > 0 ? 1 : 0);
    if (kinds > 1) {
      backend = "mixed";
    } else if (groups_jit > 0) {
      backend = "jit";
    } else if (groups_simd > 0) {
      backend = "simd";
    } else {
      backend = "interp";
    }
  }
  /// @}
  std::vector<GroupStats> groups;
};

/// \brief The result of evaluating a batch.
struct BatchResult {
  std::vector<QueryResult> results;  ///< Parallel to the batch's queries.
  ExecutionStats stats;
  /// The epoch this result reflects: per-relation committed row counts at
  /// execution time. `PreparedBatch::ExecuteDelta` refreshes a result from
  /// these watermarks to the current epoch by propagating only the rows in
  /// between.
  EpochSnapshot epoch;
  /// Signature of the compiled artifact that produced this result;
  /// ExecuteDelta refuses to fold deltas computed under a different batch
  /// shape.
  uint64_t artifact_signature = 0;
  /// Hash of the bound parameter values the result was computed under;
  /// ExecuteDelta requires the same bindings (a delta under different
  /// parameters is not a delta of this result).
  uint64_t param_fingerprint = 0;
};

/// \brief Inspection artifacts (used by the demo-style examples and the
/// structural benchmarks reproducing Fig. 2 / Fig. 3).
struct CompiledBatch {
  Workload workload;
  GroupedWorkload grouped;
  std::vector<std::vector<AttrId>> attr_orders;  ///< Per group.
  std::vector<OrderEstimate> order_estimates;    ///< Per group.
  std::vector<GroupPlan> plans;                  ///< Per group.
};

/// \brief The immutable product of compiling one batch shape: everything
/// the execution layer needs, plus the structural signature and the cost
/// of the original compile. Shared (by shared_ptr) between the engine's
/// plan cache and every PreparedBatch handle, and never mutated after
/// construction — which is what makes concurrent Executes safe.
struct CompiledArtifact {
  CompiledBatch compiled;
  /// Sorted distinct parameter slots the batch references; Execute
  /// validates all of them are bound before running.
  std::vector<ParamId> required_params;
  /// Structural batch signature + compile-relevant options fingerprint
  /// (the plan-cache key).
  uint64_t signature = 0;
  int num_queries = 0;
  int num_views = 0;
  int num_aggregates = 0;
  /// Phase breakdown of the original compilation.
  double viewgen_seconds = 0.0;
  double grouping_seconds = 0.0;
  double plan_seconds = 0.0;
  /// The batch's JIT module (null when the JIT is off or runtime codegen
  /// was skipped). May still be compiling (async mode): executions probe
  /// its state per group and fall back to the interpreter tiers until it
  /// is ready. Shared with the plan cache, so a cached artifact's module
  /// is reused — the compile is paid once per batch shape.
  std::shared_ptr<JitModule> jit;
};

/// \brief A compiled batch ready for repeated execution.
///
/// Obtained from `Engine::Prepare`. The handle borrows the Engine (which
/// must outlive it) and shares the immutable compiled artifact; copying a
/// PreparedBatch is cheap and copies share the artifact.
///
/// Thread safety: `Execute` / `ExecuteAt` / `ExecuteDelta` may be called
/// concurrently from any number of threads — each call builds a private
/// ExecutionContext over the shared immutable artifact, and the engine's
/// sorted-relation cache is internally synchronized. `Catalog::Append` may
/// also run concurrently with executions: each execution reads an epoch
/// snapshot, so it observes either none or all of any append.
/// `Engine::InvalidateCaches` (required after *non-append* mutations) must
/// not run while Executes are in flight; it marks this handle stale so
/// *subsequent* Executes fail cleanly.
class PreparedBatch {
 public:
  PreparedBatch() = default;

  /// Runs the execution layer over the compiled artifact. `params` binds
  /// the batch's parameterized functions (all `required_params` slots must
  /// be bound); a batch with no parameterized functions executes with the
  /// default empty pack. Fails with FailedPrecondition when the handle is
  /// stale (InvalidateCaches was called after Prepare).
  ///
  /// The execution reads the epoch snapshotted at call start: rows appended
  /// concurrently (Catalog::Append) are not observed, and the snapshot is
  /// recorded in BatchResult::epoch for later ExecuteDelta refreshes.
  ///
  /// Resource governance: the options snapshot's `limits` (when enabled)
  /// bound the pass's wall-clock and view memory; the two-argument
  /// overload overrides them per call. A tripped limit returns
  /// DeadlineExceeded / ResourceExhausted (message includes per-group
  /// progress), the pass unwinds with zero leaked views, and the handle
  /// stays valid — a subsequent Execute with laxer limits succeeds.
  StatusOr<BatchResult> Execute(const ParamPack& params = {}) const;
  StatusOr<BatchResult> Execute(const ParamPack& params,
                                const ExecLimits& limits) const;

  /// Like Execute, but pins the execution to an explicit epoch (obtained
  /// from Catalog::SnapshotEpoch), reading exactly the rows committed at
  /// that epoch regardless of appends since. The epoch must not exceed the
  /// current watermarks.
  StatusOr<BatchResult> ExecuteAt(const EpochSnapshot& epoch,
                                  const ParamPack& params = {}) const;
  StatusOr<BatchResult> ExecuteAt(const EpochSnapshot& epoch,
                                  const ParamPack& params,
                                  const ExecLimits& limits) const;

  /// Incrementally refreshes `base` (a result of Execute / ExecuteAt /
  /// ExecuteDelta of this same batch shape under the same `params`) to the
  /// current epoch, propagating only the rows appended since
  /// `base.epoch`. Returns a new result, bit-for-bit equal to a full
  /// Execute at the refresh epoch; `base` is not modified, so one base can
  /// seed many refreshes.
  ///
  /// Since every aggregate is a SUM of products of per-relation factors,
  /// the batch is multilinear in its relations: for changed relations
  /// c_1 < ... < c_k,
  ///   Q(R + dR) - Q(R) = sum_i Q(R_new for c_j<c_i, dR_i, R_old for c_j>c_i)
  /// so each pass re-runs the unchanged compiled plan with one relation
  /// served as its appended slice and the others pinned to old/new
  /// watermarks, and the pass's query outputs are added into the base
  /// results (ViewMap::MergeAdd).
  ///
  /// Errors: FailedPrecondition when the handle is stale (a non-append
  /// mutation invalidated it) or when any relation's watermark moved
  /// backwards vs `base.epoch` (non-append mutation without
  /// InvalidateCaches); InvalidArgument when `base` came from a different
  /// batch shape or different parameter bindings, or params are unbound.
  ///
  /// A failed (or limit-tripped) ExecuteDelta leaves `base` untouched and
  /// re-refreshable: the delta passes fold into a private copy of the base
  /// results, which is only returned on full success.
  StatusOr<BatchResult> ExecuteDelta(const BatchResult& base,
                                     const ParamPack& params = {}) const;
  StatusOr<BatchResult> ExecuteDelta(const BatchResult& base,
                                     const ParamPack& params,
                                     const ExecLimits& limits) const;

  /// Sharded distributed execution (src/dist/): partitions one base
  /// relation into `num_shards` row-range shards (num_shards <= 0 uses the
  /// handle's ShardSpec — see Engine::PrepareSharded), runs the unchanged
  /// compiled plans once per shard with that relation served as its slice,
  /// ships every shard's frozen query outputs through the ViewWire
  /// serialization, and folds them in the coordinator merge stage.
  /// Multilinearity makes the merged result bit-for-bit equal to Execute
  /// on integer-exact data (the per-key float summation order is shard-
  /// major and deterministic). The returned BatchResult carries the same
  /// epoch/signature/fingerprint a plain Execute would, so ExecuteDelta
  /// composes: a sharded base refreshes incrementally, and the delta slice
  /// of the partitioned relation is exactly the owning (last) shard's
  /// extension. Defined in src/dist/sharded_exec.cc.
  StatusOr<BatchResult> ExecuteSharded(int num_shards,
                                       const ParamPack& params = {}) const;
  StatusOr<BatchResult> ExecuteSharded(int num_shards,
                                       const ParamPack& params,
                                       const ExecLimits& limits) const;

  /// The sharding spec frozen into this handle (PrepareSharded); default
  /// (num_shards = 0) means ExecuteSharded picks everything per call.
  const ShardSpec& shard_spec() const { return shard_spec_; }

  bool valid() const { return artifact_ != nullptr; }
  /// The artifact accessors below require valid() (checked): an empty or
  /// moved-from handle has no artifact.
  const CompiledBatch& compiled() const {
    LMFAO_CHECK(valid());
    return artifact_->compiled;
  }
  const std::vector<ParamId>& required_params() const {
    LMFAO_CHECK(valid());
    return artifact_->required_params;
  }
  /// The engine options frozen at Prepare time; Execute always uses this
  /// snapshot (later Engine::mutable_options() mutations affect only
  /// future Prepares).
  const EngineOptions& options() const { return options_; }
  uint64_t signature() const {
    LMFAO_CHECK(valid());
    return artifact_->signature;
  }
  /// True when Prepare served this handle from the plan cache.
  bool from_cache() const { return from_cache_; }
  /// Compile time paid by the Prepare call that produced this handle
  /// (~0 when from_cache()).
  double compile_seconds() const { return compile_seconds_; }

 private:
  friend class Engine;

  /// One execution pass over the compiled plans: every relation is served
  /// at the extent `rows` says — except `delta_node` (when valid), which is
  /// served as its row slice [delta_lo, delta_hi) instead. The shared
  /// machinery behind ExecuteAt (no delta node), each ExecuteDelta term
  /// (the slice is the relation's appended rows), and each ExecuteSharded
  /// shard (the slice is the shard's partition of the relation).
  struct PassSpec {
    const EpochSnapshot* rows = nullptr;
    RelationId delta_node = kInvalidRelation;
    size_t delta_lo = 0;
    size_t delta_hi = 0;
  };
  StatusOr<BatchResult> RunPass(const PassSpec& spec, const ParamPack& params,
                                const ExecLimits& limits) const;

  /// Validates the handle and the bound params (the common preamble of
  /// every Execute flavor).
  Status CheckExecutable(const ParamPack& params) const;

  Engine* engine_ = nullptr;
  std::shared_ptr<const CompiledArtifact> artifact_;
  EngineOptions options_;
  uint64_t generation_ = 0;
  bool from_cache_ = false;
  double compile_seconds_ = 0.0;
  /// Sharding defaults for ExecuteSharded (set by Engine::PrepareSharded;
  /// inert otherwise).
  ShardSpec shard_spec_;
};

/// \brief The optimization and execution engine.
///
/// The engine borrows the catalog and join tree; both must outlive it (as
/// must every PreparedBatch handle it hands out — handles borrow the
/// engine).
///
/// Caching: sorted copies of node relations are cached across executions
/// (keyed by relation, sort order, and epoch watermark — appends extend a
/// cached snapshot by sort-and-merge of the appended slice instead of a
/// full re-sort), and compiled artifacts are cached by batch structure
/// (see Prepare) — bounded to `EngineOptions::plan_cache_capacity` shapes
/// with LRU eviction, every hit verified against the exact structural key
/// (a signature-hash collision recompiles instead of serving the wrong
/// plans). Appends through `Catalog::Append` invalidate NOTHING: handles
/// stay valid and executions read epoch snapshots. After any *non-append*
/// mutation, call `InvalidateCaches()` — it drops both caches and bumps
/// the generation counter, so outstanding PreparedBatch handles fail their
/// next Execute instead of reading stale sorted data.
///
/// `mutable_options()` semantics: options are snapshotted into the
/// PreparedBatch at Prepare time. Mutations affect only future Prepares
/// (and Evaluates, which Prepare internally); already-prepared handles
/// keep executing under their snapshot. Compile-relevant options
/// (view_generation, grouping, plan) are part of the plan-cache key, so
/// toggling them never serves a mismatched cached artifact; scheduler
/// options do not key the cache (they are execution-only) but are frozen
/// per handle.
class Engine {
 public:
  Engine(const Catalog* catalog, const JoinTree* tree,
         EngineOptions options = {});

  /// Compiles the batch through all optimization layers without executing.
  StatusOr<CompiledBatch> Compile(const QueryBatch& batch) const;

  /// Compiles the batch (or fetches the structurally equal compiled
  /// artifact from the plan cache) and returns the execute-many handle.
  StatusOr<PreparedBatch> Prepare(const QueryBatch& batch);

  /// Prepare plus a frozen sharding spec: the handle's ExecuteSharded
  /// defaults to `spec` (per-call shard counts still override it). A
  /// pinned `spec.relation` is validated against the compiled plans here,
  /// so an ineligible relation fails at prepare time, not mid-execution.
  /// Defined in src/dist/sharded_exec.cc.
  StatusOr<PreparedBatch> PrepareSharded(const QueryBatch& batch,
                                         const ShardSpec& spec);

  /// One-shot convenience: Prepare + Execute. `params` binds parameterized
  /// functions, as in PreparedBatch::Execute. The three-argument overload
  /// bounds the execution pass with `limits` (overriding the options
  /// snapshot), as in PreparedBatch::Execute(params, limits) — the serving
  /// layer uses it to give ad-hoc queries the same deadline budget as
  /// prepared ones.
  StatusOr<BatchResult> Evaluate(const QueryBatch& batch,
                                 const ParamPack& params = {});
  StatusOr<BatchResult> Evaluate(const QueryBatch& batch,
                                 const ParamPack& params,
                                 const ExecLimits& limits);

  /// Drops cached sorted relations and compiled artifacts, and bumps the
  /// generation counter: every PreparedBatch handed out so far becomes
  /// stale. Call after mutating relations. Must not run concurrently with
  /// in-flight Executes.
  void InvalidateCaches();

  /// Monotonic cache generation; PreparedBatch handles are valid only for
  /// the generation they were prepared under.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Plan-cache observability (for benches and tests).
  struct PlanCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    /// Prepares served a cached artifact that carries a JIT module.
    size_t jit_hits = 0;
    /// JIT module compilations kicked off by Prepare.
    size_t jit_compiles = 0;
    /// Modules that reached a terminal failed state (so far).
    size_t jit_failures = 0;
    /// Total compiler+link wall-clock of terminal modules still alive, ms.
    double jit_compile_ms = 0.0;
  };
  PlanCacheStats plan_cache_stats() const;

  const EngineOptions& options() const { return options_; }
  /// See the class comment for the post-Prepare mutation contract.
  EngineOptions& mutable_options() { return options_; }

 private:
  friend class PreparedBatch;

  /// Returns the node relation restricted to its first `rows` committed
  /// rows, sorted by the subsequence of `order` present in it. Snapshots
  /// are immutable, shared, and cached per (node, order, rows); extending a
  /// cached smaller epoch costs a sort of the appended slice plus one
  /// linear stable merge (bit-identical to re-sorting from scratch, see
  /// MergeSortedRelations), not a full re-sort. At most the two largest
  /// epochs per (node, order) stay cached; executions pin the snapshots
  /// they read, so pruning never invalidates an in-flight pass.
  StatusOr<std::shared_ptr<const Relation>> SortedRelationAt(
      RelationId node, const std::vector<AttrId>& order, size_t rows);

  /// Builds rows [lo, hi) of `node` sorted by `order`'s subsequence — the
  /// delta slice of one ExecuteDelta term. Uncached (slices are small and
  /// read once per consuming group).
  StatusOr<std::shared_ptr<const Relation>> SortedDeltaSlice(
      RelationId node, const std::vector<AttrId>& order, size_t lo,
      size_t hi);

  /// Compiles a fresh artifact (all three layers) for `batch` — the one
  /// compile pipeline behind both Compile and Prepare. The caller sets
  /// the signature before freezing the artifact const.
  StatusOr<std::shared_ptr<CompiledArtifact>> CompileArtifact(
      const QueryBatch& batch) const;

  const Catalog* catalog_;
  const JoinTree* tree_;
  EngineOptions options_;
  /// (node, sort order) -> epoch (row watermark) -> immutable sorted
  /// snapshot. Ordered by epoch so extension finds the largest cached
  /// prefix <= the requested watermark.
  std::map<std::pair<RelationId, std::vector<AttrId>>,
           std::map<size_t, std::shared_ptr<const Relation>>>
      sorted_cache_;
  std::mutex cache_mu_;

  /// Structural plan cache: signature -> (exact structural key, artifact,
  /// LRU position). The signature is a 64-bit hash of the structural key;
  /// every hit verifies the full key, so a hash collision degrades to a
  /// fresh compile instead of silently serving another shape's plans.
  /// Bounded to EngineOptions::plan_cache_capacity shapes, LRU-evicted.
  struct PlanCacheEntry {
    std::vector<uint64_t> structural_key;
    std::shared_ptr<const CompiledArtifact> artifact;
    std::list<uint64_t>::iterator lru_pos;
  };
  std::unordered_map<uint64_t, PlanCacheEntry> plan_cache_;
  /// Signatures in recency order: least-recently-used at the front.
  std::list<uint64_t> plan_lru_;
  size_t plan_cache_hits_ = 0;
  size_t plan_cache_misses_ = 0;
  /// JIT observability (under plan_mu_): kick/hit counters plus weak refs
  /// to every module this engine started, for failure/latency aggregation
  /// in plan_cache_stats() without pinning dead artifacts.
  size_t jit_hits_ = 0;
  size_t jit_compiles_ = 0;
  mutable std::vector<std::weak_ptr<JitModule>> jit_modules_;
  mutable std::mutex plan_mu_;

  /// Bumped (and the plan cache cleared) atomically under plan_mu_, so a
  /// racing Prepare can never pair the new generation with a stale cache
  /// entry.
  std::atomic<uint64_t> generation_{0};
};

namespace internal {

/// Hash of the bound values of the batch's required parameter slots.
/// Recorded in BatchResult so ExecuteDelta / ExecuteSharded can verify
/// results were computed under the same bindings. Defined in engine.cc;
/// exposed here for the sharded-execution layer (src/dist/).
uint64_t ParamFingerprint(const std::vector<ParamId>& required,
                          const ParamPack& params);

}  // namespace internal

}  // namespace lmfao

#endif  // LMFAO_ENGINE_ENGINE_H_

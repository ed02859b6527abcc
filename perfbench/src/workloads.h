/// \file workloads.h
/// \brief The three benchmark workloads. Each generates its data from
/// `args.seed`, measures for `args.seconds`, checks its answers outside the
/// timed regions, and leaves its raw figures in `raw`.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "engine/engine.h"

namespace perfbench {

/// Ridge regression on Retailer: prepared 4-thread covariance Execute,
/// AssembleSigma and TrainRidgeBgd per operation, closed loop.
void RunCov(const Args& args, RawRecord* raw);
/// CART trees on Retailer, sequential, a fresh Engine per tree, one tree
/// per 5 s of `args.seconds`; one operation is one node batch.
void RunCart(const Args& args, RawRecord* raw);
/// Open-loop mixed traffic into a 3-worker Server over Favorita, with
/// appends beside the reads.
void RunServe(const Args& args, RawRecord* raw);

/// Records one checked operation: `ok` false counts it failed.
inline void CountOperation(bool ok, RawRecord* raw) {
  raw->Increment("attempted");
  if (!ok) raw->Increment("failed");
}

/// Adds `engine`'s plan-cache hits and misses to `raw`.
inline void RecordPlanCache(const lmfao::Engine& engine, RawRecord* raw) {
  const lmfao::Engine::PlanCacheStats stats = engine.plan_cache_stats();
  raw->Increment("compile.plan_cache_hits", static_cast<double>(stats.hits));
  raw->Increment("compile.plan_cache_misses",
                 static_cast<double>(stats.misses));
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

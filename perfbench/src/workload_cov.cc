#include <algorithm>
#include <cmath>
#include <memory>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "probes.h"
#include "serve_loop.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace lmfao;

namespace {

constexpr int64_t kInventoryRows = 200000;
constexpr int kThreads = 4;
constexpr int kSetupReps = 3;
constexpr int kRefreshReps = 5;
/// 0.1% of Inventory per refresh.
constexpr size_t kRefreshRows = kInventoryRows / 1000;

bool ModelsClose(const BgdResult& a, const BgdResult& b) {
  if (a.theta.size() != b.theta.size()) return false;
  for (size_t i = 0; i < a.theta.size(); ++i) {
    const double scale = std::max(std::fabs(a.theta[i]), std::fabs(b.theta[i]));
    if (std::fabs(a.theta[i] - b.theta[i]) > 1e-6 * scale + 1e-9) return false;
  }
  return true;
}

}  // namespace

void RunCov(const Args& args, RawRecord* raw) {
  auto db = MakeRetailerData(kInventoryRows, args.seed);
  const FeatureSet features = RetailerFeatures(*db);
  const CovarianceBatch cov = ValueOrDie(
      BuildCovarianceBatch(features, db->catalog), "covariance batch");

  // References, before the peak-RSS reset: the sequential interpreter, and
  // (cross-checking runs) the scan baseline over the materialized join.
  std::vector<QueryResult> reference;
  BgdResult reference_model;
  {
    Engine sequential(&db->catalog, &db->tree, BaseOptions(1));
    const PreparedBatch prepared =
        ValueOrDie(sequential.Prepare(cov.batch), "prepare reference");
    reference = ValueOrDie(prepared.Execute(), "execute reference").results;
    const SigmaMatrix sigma = ValueOrDie(
        AssembleSigma(cov, features, reference), "reference sigma");
    reference_model = ValueOrDie(TrainRidgeBgd(sigma), "reference ridge");
  }
  if (args.cross_check) {
    const Relation joined = ValueOrDie(
        MaterializeJoin(db->catalog, db->tree, db->inventory), "join");
    const std::vector<QueryResult> scanned = ValueOrDie(
        EvaluateBatchSharedScan(joined, cov.batch), "baseline scan");
    raw->Increment("mismatches",
                   CompareResults(reference, scanned, kRelTol).mismatched);
  }
  if (!ResetPeakRss()) raw->Set("peak_rss_reset_failed", 1);

  Tracer& tracer = Tracer::Get();
  auto check = [&](const BatchResult& result, const BgdResult& model) {
    const Comparison c = CompareResults(result.results, reference, kRelTol);
    raw->SetMax("exec.bitdiff_queries", c.bitdiff);
    raw->Increment("mismatches", c.mismatched);
    const bool ok = c.mismatched == 0 && ModelsClose(model, reference_model);
    CountOperation(ok, raw);
    return ok;
  };

  // Set-up: from the data in the catalog to the first trained model, on a
  // fresh engine each time (so the sorts are paid again).
  std::unique_ptr<Engine> engine;
  PreparedBatch prepared;
  for (int r = 0; r < kSetupReps; ++r) {
    if (engine) RecordPlanCache(*engine, raw);
    prepared = PreparedBatch();
    engine.reset();
    tracer.SetThreadState(args.trace, -1);
    const double start = NowSeconds();
    engine = std::make_unique<Engine>(&db->catalog, &db->tree,
                                      BaseOptions(kThreads));
    prepared = ValueOrDie(TimedPrepare(engine.get(), cov.batch), "prepare");
    const BatchResult first = ValueOrDie(TimedExecute(prepared, {}), "execute");
    const BgdResult model =
        ValueOrDie(TimedRidge(cov, features, first.results), "ridge");
    raw->Add("setup_s", NowSeconds() - start);
    tracer.SetThreadState(false, -1);
    check(first, model);
  }
  RecordPlanCache(*engine, raw);

  // Measured closed loop: one model per operation.
  const double end = NowSeconds() + args.seconds;
  for (int64_t op = 0; NowSeconds() < end; ++op) {
    const bool traced = args.trace && op % 2 == 0;
    tracer.SetThreadState(traced, op);
    const double start = NowSeconds();
    StatusOr<BatchResult> result = Status::Internal("not run");
    StatusOr<BgdResult> model = Status::Internal("not run");
    {
      ScopedSpan span("op");
      result = TimedExecute(prepared, {});
      if (result.ok()) model = TimedRidge(cov, features, result->results);
    }
    const double seconds = NowSeconds() - start;
    tracer.SetThreadState(false, -1);
    if (!result.ok() || !model.ok()) {
      CountOperation(false, raw);
      continue;
    }
    raw->Add(traced ? "op_ms_traced" : "op_ms", seconds * 1e3);
    raw->Add("train_s", seconds);
    raw->Increment("measured_seconds", seconds);
    if (check(*result, *model)) raw->Increment("ok_ops");
  }
  raw->Add("peak_rss_mib", PeakRssMib());

  ProbeTarget target;
  target.catalog = &db->catalog;
  target.tree = &db->tree;
  target.batch = &cov.batch;
  target.threads = kThreads;
  if (args.trace) {
    tracer.SetThreadState(true, -1);
    const std::string text = BatchText(cov.batch, {}, db->catalog);
    if (!ProbeParse(text, db->catalog, cov.batch.size(), 3)) {
      raw->Increment("mismatches");
    }
    ProbeCompilePhases(target, 3);
    if (!ProbeSortedFetches(target, reference, 2)) raw->Increment("mismatches");
    ProbeCart(target, features);
    if (!ProbeServe(target, 4, 2.0, raw)) raw->Increment("mismatches");
  }

  // Refresh: 0.1% Inventory appends folded in by ExecuteDelta.
  tracer.SetThreadState(args.trace, -1);
  Rng rng(args.seed ^ 0xc0ffee);
  RunRefreshLoop(&db->catalog, prepared, {}, db->inventory, kRefreshRows,
                 kRefreshReps, "refresh_ms", &rng, raw);
  tracer.SetThreadState(false, -1);
}

}  // namespace perfbench

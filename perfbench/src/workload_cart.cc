#include <algorithm>
#include <cmath>

#include "baseline/join.h"
#include "probes.h"
#include "serve_loop.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace lmfao;

namespace {

constexpr int64_t kInventoryRows = 100000;
/// The scan provider re-scans the join per node; this size keeps the
/// reference tree to a few seconds.
constexpr int64_t kCheckInventoryRows = 2000;
constexpr int kSetupReps = 3;
constexpr int kRefreshReps = 3;
/// A run trains one tree per this many seconds of --seconds. The count is
/// fixed rather than timed so every run of a seed does the same work: the
/// host's speed changes in phases of seconds, and a timed loop turned that
/// into a varying number of trees.
constexpr double kNominalTreeSeconds = 5.0;
constexpr size_t kRefreshRows = kInventoryRows / 1000;

CartOptions TreeOptions() {
  CartOptions options;
  options.max_depth = 3;
  options.num_thresholds = 32;
  return options;
}

/// Trains the tree with LMFAO and with the scan provider on a small
/// instance of the same generator; true when the two trees agree.
bool CheckAgainstScan(uint64_t seed) {
  auto db = MakeRetailerData(kCheckInventoryRows, seed);
  const FeatureSet features = RetailerFeatures(*db);
  Engine engine(&db->catalog, &db->tree, BaseOptions(1));
  LmfaoCartProvider lmfao_provider(&engine);
  CartTrainer trainer(features, &db->catalog, TreeOptions());
  const DecisionTree lmfao_tree =
      ValueOrDie(trainer.Train(&lmfao_provider), "train check tree");
  const Relation joined = ValueOrDie(
      MaterializeJoin(db->catalog, db->tree, db->inventory), "join");
  ScanCartProvider scan_provider(&joined);
  const DecisionTree scan_tree =
      ValueOrDie(trainer.Train(&scan_provider), "train scan tree");
  return TreesEqual(lmfao_tree, scan_tree, kRelTol);
}

}  // namespace

void RunCart(const Args& args, RawRecord* raw) {
  if (args.cross_check && !CheckAgainstScan(args.seed)) {
    raw->Increment("mismatches");
  }

  auto db = MakeRetailerData(kInventoryRows, args.seed);
  const FeatureSet features = RetailerFeatures(*db);
  if (!ResetPeakRss()) raw->Set("peak_rss_reset_failed", 1);
  Tracer& tracer = Tracer::Get();

  // Set-up: a fresh engine and trainer to the root node's answer.
  CartTrainer trainer(features, &db->catalog, TreeOptions());
  const CartNodeBatch root = trainer.BuildNodeBatch({});
  std::vector<QueryResult> root_results;
  for (int r = 0; r < kSetupReps; ++r) {
    tracer.SetThreadState(args.trace, -1);
    const double start = NowSeconds();
    Engine engine(&db->catalog, &db->tree, BaseOptions(1));
    CartTrainer setup_trainer(features, &db->catalog, TreeOptions());
    TimedCartProvider provider(&engine);
    StatusOr<std::vector<QueryResult>> results = provider.EvaluateBatch(
        setup_trainer.BuildNodeBatch({}).batch, root.params);
    raw->Add("setup_s", NowSeconds() - start);
    tracer.SetThreadState(false, -1);
    RecordPlanCache(engine, raw);
    if (!results.ok()) {
      CountOperation(false, raw);
      continue;
    }
    if (root_results.empty()) root_results = std::move(results).value();
    // Sequential execution is deterministic: every set-up must agree bit
    // for bit with the first.
    CountOperation(
        r == 0 || CompareResults(*results, root_results, 0.0).bitdiff == 0,
        raw);
  }

  // Measured: whole trees, a fresh engine each. Each tree's fingerprint
  // goes to run.py, which checks that every tree of the run is the same.
  const int64_t trees =
      std::max<int64_t>(1, std::llround(args.seconds / kNominalTreeSeconds));
  for (int64_t tree_index = 0; tree_index < trees; ++tree_index) {
    const bool traced = args.trace && tree_index % 2 == 0;
    tracer.SetThreadState(traced, tree_index);
    Engine engine(&db->catalog, &db->tree, BaseOptions(1));
    TimedCartProvider provider(&engine);
    double seconds = 0.0;
    StatusOr<DecisionTree> tree = TimedTrainTree(&trainer, &provider, &seconds);
    tracer.SetThreadState(false, -1);
    RecordPlanCache(engine, raw);
    for (double node : provider.node_seconds()) {
      raw->Add(traced ? "op_ms_traced" : "op_ms", node * 1e3);
    }
    if (!tree.ok()) {
      CountOperation(false, raw);
      continue;
    }
    raw->Add("train_s", seconds);
    raw->Add("tree_fingerprint", TreeFingerprint(*tree));
    raw->Increment("measured_seconds", seconds);
    for (size_t n = 0; n < provider.node_seconds().size(); ++n) {
      CountOperation(true, raw);
      raw->Increment("ok_ops");
    }
  }
  raw->Add("peak_rss_mib", PeakRssMib());

  ProbeTarget target;
  target.catalog = &db->catalog;
  target.tree = &db->tree;
  target.batch = &root.batch;
  target.params = root.params;
  target.threads = 1;
  if (args.trace) {
    tracer.SetThreadState(true, -1);
    const std::string text = BatchText(root.batch, root.params, db->catalog);
    if (!ProbeParse(text, db->catalog, root.batch.size(), 3)) {
      raw->Increment("mismatches");
    }
    ProbeCompilePhases(target, 3);
    if (!ProbeSortedFetches(target, root_results, 2)) {
      raw->Increment("mismatches");
    }
    ProbeRidge(target, features, 3);
    if (!ProbeServe(target, 4, 2.0, raw)) raw->Increment("mismatches");
  }

  // Refresh: 0.1% Inventory appends folded into the root node's answer.
  tracer.SetThreadState(args.trace, -1);
  Engine engine(&db->catalog, &db->tree, BaseOptions(1));
  const PreparedBatch prepared =
      ValueOrDie(engine.Prepare(root.batch), "prepare root");
  Rng rng(args.seed ^ 0xc0ffee);
  RunRefreshLoop(&db->catalog, prepared, root.params, db->inventory,
                 kRefreshRows, kRefreshReps, "refresh_ms", &rng, raw);
  tracer.SetThreadState(false, -1);
}

}  // namespace perfbench

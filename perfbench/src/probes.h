/// \file probes.h
/// \brief Timed calls into each layer, and the layer probes of the traced
/// run.
///
/// Each wrapper opens a span named after the layer entry point it calls
/// and, for executions, attaches the public ExecutionStats counters to it.
/// A probe calls one layer's entry points on the workload's own data and
/// batch; the traced run uses probes for the layers the workload's own
/// operations do not call, so every per-layer metric is measured on every
/// workload (see README.md).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "ml/cart.h"
#include "ml/linreg.h"

namespace perfbench {

/// Engine::Prepare in a `compile.prepare` span.
lmfao::StatusOr<lmfao::PreparedBatch> TimedPrepare(lmfao::Engine* engine,
                                                  const lmfao::QueryBatch& b);
/// PreparedBatch::Execute in an `exec.execute` span carrying the stats.
lmfao::StatusOr<lmfao::BatchResult> TimedExecute(
    const lmfao::PreparedBatch& prepared, const lmfao::ParamPack& params);
/// AssembleSigma + TrainRidgeBgd in `ml.sigma` / `ml.bgd` spans.
lmfao::StatusOr<lmfao::BgdResult> TimedRidge(
    const lmfao::CovarianceBatch& cov, const lmfao::FeatureSet& features,
    const std::vector<lmfao::QueryResult>& results);

/// Wraps LmfaoCartProvider and times each node batch (`ml.cart_provider`).
/// While tracing, it makes the provider's two public calls itself
/// (Engine::Prepare, then PreparedBatch::Execute) so the compile and
/// execute spans and the execution stats are visible.
class TimedCartProvider : public lmfao::CartAggregateProvider {
 public:
  /// `split_calls` false keeps the provider's calls whole even while
  /// tracing (probes use it so their engine spans stay out of the
  /// workload's compile and exec figures).
  explicit TimedCartProvider(lmfao::Engine* engine, bool split_calls = true)
      : engine_(engine), inner_(engine), split_calls_(split_calls) {}
  lmfao::StatusOr<std::vector<lmfao::QueryResult>> EvaluateBatch(
      const lmfao::QueryBatch& batch, const lmfao::ParamPack& params) override;

  /// Wall seconds of every node batch so far.
  const std::vector<double>& node_seconds() const { return node_seconds_; }
  double total_seconds() const { return total_seconds_; }

 private:
  lmfao::Engine* engine_;
  lmfao::LmfaoCartProvider inner_;
  bool split_calls_;
  std::vector<double> node_seconds_;
  double total_seconds_ = 0.0;
};

/// Trains one tree in an `ml.cart_tree` span (split time = tree wall time
/// minus provider time). Returns the tree's wall seconds through `seconds`.
lmfao::StatusOr<lmfao::DecisionTree> TimedTrainTree(
    lmfao::CartTrainer* trainer, TimedCartProvider* provider,
    double* seconds);

/// True when two trees have the same shape, splits and leaf payloads
/// (within `rel_tol`).
bool TreesEqual(const lmfao::DecisionTree& a, const lmfao::DecisionTree& b,
                double rel_tol);
/// A hash of the tree's shape, splits and payload bits, cut to 48 bits so
/// a double holds it exactly (run.py compares it across processes).
double TreeFingerprint(const lmfao::DecisionTree& tree);

/// What a probe runs on: the workload's data, batch and thread count.
struct ProbeTarget {
  const lmfao::Catalog* catalog = nullptr;
  const lmfao::JoinTree* tree = nullptr;
  const lmfao::QueryBatch* batch = nullptr;
  lmfao::ParamPack params;
  int threads = 1;
};

/// `query.parse` spans: ParseQueryBatch over `text`, `reps` times.
/// Returns false when the text does not parse to `expected_queries`.
bool ProbeParse(const std::string& text, const lmfao::Catalog& catalog,
                int expected_queries, int reps);
/// Renders `batch` (bound to `params`) as query text the parser accepts.
std::string BatchText(const lmfao::QueryBatch& batch,
                      const lmfao::ParamPack& params,
                      const lmfao::Catalog& catalog);

/// `compile.viewgen` / `compile.grouping` / `compile.plan` spans: the three
/// compile layers called directly, as Engine::Prepare sequences them.
void ProbeCompilePhases(const ProbeTarget& target, int reps);

/// An `exec.context` span: the target batch executed by a directly built
/// ExecutionContext whose relation provider sorts every relation it is
/// asked for (a sorted-cache miss), each sort in a `storage.sort` span.
/// Returns false when the results disagree with `reference`.
bool ProbeSortedFetches(const ProbeTarget& target,
                        const std::vector<lmfao::QueryResult>& reference,
                        int reps);

/// The refresh loop: `reps` times, append `rows` copied rows to `relation`
/// (`storage.append`), refresh a result taken just before the append with
/// ExecuteDelta (`exec.delta`), and check it against a full Execute at the
/// new epoch. Refresh latencies (ms) go to `raw` series `series`; failures
/// and mismatches to the "failed" / "mismatches" scalars.
void RunRefreshLoop(lmfao::Catalog* catalog,
                    const lmfao::PreparedBatch& prepared,
                    const lmfao::ParamPack& params, lmfao::RelationId relation,
                    size_t rows, int reps, const std::string& series,
                    lmfao::Rng* rng, RawRecord* raw);

/// Execute probe: prepares the target batch on a fresh engine and executes
/// it `reps` times (`exec.execute` spans).
void ProbeExecute(const ProbeTarget& target, int reps);

/// Ridge probe: builds the covariance batch of `features`, prepares and
/// executes it on a fresh engine (untraced: the workload's own batch owns
/// the compile and exec figures), then assembles sigma and trains.
void ProbeRidge(const ProbeTarget& target, const lmfao::FeatureSet& features,
                int reps);

/// CART probe: trains a depth-1 tree through TimedCartProvider.
void ProbeCart(const ProbeTarget& target, const lmfao::FeatureSet& features);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_

#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>

#include "engine/attribute_order.h"
#include "engine/execution_context.h"
#include "engine/grouping.h"
#include "engine/plan.h"
#include "engine/view_generation.h"
#include "query/parser.h"
#include "storage/sort.h"
#include "trace.h"

namespace perfbench {

using namespace lmfao;

StatusOr<PreparedBatch> TimedPrepare(Engine* engine, const QueryBatch& b) {
  ScopedSpan span("compile.prepare");
  StatusOr<PreparedBatch> prepared = engine->Prepare(b);
  if (prepared.ok()) span.Arg("cache_hit", prepared->from_cache() ? 1 : 0);
  return prepared;
}

namespace {

/// Attaches the public execution counters of `result` to `span`.
void AddExecutionArgs(ScopedSpan* span, const BatchResult& result,
                      int threads) {
  if (!span->recording()) return;
  const ExecutionStats& st = result.stats;
  double cpu = 0.0, max_group = 0.0, entries = 0.0, shards = 0.0;
  for (const GroupStats& g : st.groups) {
    cpu += g.seconds;
    max_group = std::max(max_group, g.seconds);
    entries += static_cast<double>(g.output_entries);
    shards += g.shards;
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  span->Arg("views", st.num_views);
  span->Arg("groups", st.num_groups);
  span->Arg("aggregates", st.num_aggregates);
  span->Arg("group_cpu_ms", cpu * 1e3);
  span->Arg("group_ms_max", max_group * 1e3);
  span->Arg("top_group_share", cpu > 0.0 ? max_group / cpu : 0.0);
  span->Arg("parallel_efficiency",
            st.execute_seconds > 0.0 ? cpu / (threads * st.execute_seconds)
                                     : 0.0);
  span->Arg("shards", shards);
  span->Arg("output_entries", entries);
  span->Arg("groups_interp", st.groups_interp);
  span->Arg("groups_simd", st.groups_simd);
  span->Arg("groups_jit", st.groups_jit);
  span->Arg("limit_trips", st.limit_trips);
  span->Arg("degraded_groups", st.degraded_groups);
  span->Arg("peak_view_mib", static_cast<double>(st.peak_view_bytes) / kMiB);
  span->Arg("peak_live_views", static_cast<double>(st.peak_live_views));
  span->Arg("frozen_views", st.num_frozen_views);
}

}  // namespace

StatusOr<BatchResult> TimedExecute(const PreparedBatch& prepared,
                                   const ParamPack& params) {
  ScopedSpan span("exec.execute");
  StatusOr<BatchResult> result = prepared.Execute(params);
  if (result.ok()) {
    AddExecutionArgs(&span, *result, prepared.options().scheduler.num_threads);
  }
  return result;
}

StatusOr<BgdResult> TimedRidge(const CovarianceBatch& cov,
                               const FeatureSet& features,
                               const std::vector<QueryResult>& results) {
  StatusOr<SigmaMatrix> sigma = [&]() -> StatusOr<SigmaMatrix> {
    ScopedSpan span("ml.sigma");
    return AssembleSigma(cov, features, results);
  }();
  if (!sigma.ok()) return sigma.status();
  ScopedSpan span("ml.bgd");
  StatusOr<BgdResult> model = TrainRidgeBgd(*sigma);
  if (model.ok()) span.Arg("iterations", model->iterations);
  return model;
}

StatusOr<std::vector<QueryResult>> TimedCartProvider::EvaluateBatch(
    const QueryBatch& batch, const ParamPack& params) {
  const double start = NowSeconds();
  StatusOr<std::vector<QueryResult>> results =
      [&]() -> StatusOr<std::vector<QueryResult>> {
    ScopedSpan span("ml.cart_provider");
    span.Arg("aggregates", batch.TotalAggregates());
    if (!span.recording() || !split_calls_) {
      return inner_.EvaluateBatch(batch, params);
    }
    LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared,
                           TimedPrepare(engine_, batch));
    LMFAO_ASSIGN_OR_RETURN(BatchResult result,
                           TimedExecute(prepared, params));
    return std::move(result.results);
  }();
  const double seconds = NowSeconds() - start;
  node_seconds_.push_back(seconds);
  total_seconds_ += seconds;
  return results;
}

StatusOr<DecisionTree> TimedTrainTree(CartTrainer* trainer,
                                      TimedCartProvider* provider,
                                      double* seconds) {
  ScopedSpan span("ml.cart_tree");
  const double provider_before = provider->total_seconds();
  const size_t nodes_before = provider->node_seconds().size();
  const double start = NowSeconds();
  StatusOr<DecisionTree> tree = trainer->Train(provider);
  *seconds = NowSeconds() - start;
  const double provider_seconds = provider->total_seconds() - provider_before;
  span.Arg("split_ms", (*seconds - provider_seconds) * 1e3);
  span.Arg("nodes", static_cast<double>(provider->node_seconds().size() -
                                        nodes_before));
  return tree;
}

namespace {

bool Close(double a, double b, double rel_tol) {
  return std::fabs(a - b) <=
         rel_tol * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

bool NodesEqual(const CartNode* a, const CartNode* b, double rel_tol) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->is_leaf != b->is_leaf ||
      !Close(a->prediction, b->prediction, rel_tol) ||
      !Close(a->count, b->count, rel_tol)) {
    return false;
  }
  if (a->is_leaf) return true;
  return a->split.attr == b->split.attr && a->split.op == b->split.op &&
         a->split.threshold == b->split.threshold &&
         NodesEqual(a->left.get(), b->left.get(), rel_tol) &&
         NodesEqual(a->right.get(), b->right.get(), rel_tol);
}

}  // namespace

bool TreesEqual(const DecisionTree& a, const DecisionTree& b, double rel_tol) {
  return a.num_nodes == b.num_nodes && a.depth == b.depth &&
         NodesEqual(a.root.get(), b.root.get(), rel_tol);
}

namespace {

void HashNode(const CartNode* node, uint64_t* h) {
  auto mix = [h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      *h = (*h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;  // FNV-1a
    }
  };
  auto bits = [](double d) {
    uint64_t v = 0;
    std::memcpy(&v, &d, sizeof(v));
    return v;
  };
  if (node == nullptr) {
    mix(0);
    return;
  }
  mix(node->is_leaf ? 1 : 2);
  mix(bits(node->prediction));
  mix(bits(node->count));
  if (node->is_leaf) return;
  mix(static_cast<uint64_t>(node->split.attr));
  mix(static_cast<uint64_t>(node->split.op));
  mix(bits(node->split.threshold));
  HashNode(node->left.get(), h);
  HashNode(node->right.get(), h);
}

}  // namespace

double TreeFingerprint(const DecisionTree& tree) {
  uint64_t h = 14695981039346656037ull;
  HashNode(tree.root.get(), &h);
  return static_cast<double>(h >> 16);
}

std::string BatchText(const QueryBatch& batch, const ParamPack& params,
                      const Catalog& catalog) {
  const QueryBatch bound = ValueOrDie(batch.Bind(params), "bind batch");
  std::string text;
  for (QueryId q = 0; q < bound.size(); ++q) {
    text += bound.query(q).ToString(&catalog);
    text += ";\n";
  }
  return text;
}

bool ProbeParse(const std::string& text, const Catalog& catalog,
                int expected_queries, int reps) {
  bool ok = true;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("query.parse");
    StatusOr<QueryBatch> parsed = ParseQueryBatch(text, catalog);
    span.Arg("queries", parsed.ok() ? parsed->size() : 0);
    ok = ok && parsed.ok() && parsed->size() == expected_queries;
  }
  return ok;
}

void ProbeCompilePhases(const ProbeTarget& target, int reps) {
  const EngineOptions options = BaseOptions(target.threads);
  for (int r = 0; r < reps; ++r) {
    Workload workload;
    {
      ScopedSpan span("compile.viewgen");
      workload = ValueOrDie(GenerateViews(*target.batch, *target.catalog,
                                          *target.tree,
                                          options.view_generation),
                            "GenerateViews");
    }
    GroupedWorkload grouped;
    {
      ScopedSpan span("compile.grouping");
      grouped = ValueOrDie(
          GroupViews(workload, *target.catalog, options.grouping),
          "GroupViews");
    }
    ScopedSpan span("compile.plan");
    std::vector<GroupPlan> plans;
    for (const ViewGroup& group : grouped.groups) {
      const std::vector<AttrId> order = ValueOrDie(
          ComputeAttributeOrder(workload, group, *target.catalog),
          "ComputeAttributeOrder");
      plans.push_back(ValueOrDie(BuildGroupPlan(workload, group,
                                                *target.catalog, order,
                                                options.plan),
                                 "BuildGroupPlan"));
    }
    AssignViewForms(workload, grouped, options.plan, &plans);
    span.Arg("groups", static_cast<double>(plans.size()));
  }
}

bool ProbeSortedFetches(const ProbeTarget& target,
                        const std::vector<QueryResult>& reference, int reps) {
  Engine engine(target.catalog, target.tree, BaseOptions(target.threads));
  const PreparedBatch prepared =
      ValueOrDie(engine.Prepare(*target.batch), "prepare probe batch");
  const CompiledBatch& compiled = prepared.compiled();
  const EpochSnapshot epoch = target.catalog->SnapshotEpoch();
  bool ok = true;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("exec.context");
    std::mutex mu;
    std::deque<Relation> sorted;  // Stable addresses for the context.
    double sort_seconds = 0.0, sort_rows = 0.0;
    const bool tracing = span.recording();
    const int64_t context_id = span.id();
    const int64_t op = Tracer::Get().current_op();
    ExecutionContext context(
        compiled.workload, compiled.grouped, compiled.plans,
        prepared.options().scheduler,
        [&](RelationId node,
            const std::vector<AttrId>& order) -> StatusOr<const Relation*> {
          Span sort_span;
          sort_span.name = "storage.sort";
          sort_span.start = NowSeconds();
          const Relation& base = target.catalog->relation(node);
          Relation copy = base.SliceRows(0, epoch.at(node));
          std::vector<AttrId> sub;
          for (AttrId a : order) {
            if (base.schema().Contains(a)) sub.push_back(a);
          }
          if (!sub.empty()) LMFAO_RETURN_NOT_OK(SortRelation(&copy, sub));
          sort_span.end = NowSeconds();
          std::lock_guard<std::mutex> lock(mu);
          sort_seconds += sort_span.end - sort_span.start;
          sort_rows += static_cast<double>(copy.num_rows());
          if (tracing) {
            sort_span.id = Tracer::Get().NextId();
            sort_span.parent = context_id;
            sort_span.op = op;
            sort_span.args.emplace_back("rows",
                                        static_cast<double>(copy.num_rows()));
            Tracer::Get().Record(sort_span);
          }
          sorted.push_back(std::move(copy));
          return &sorted.back();
        },
        &target.params);
    ExecutionStats stats;
    Status run = context.Run(&stats);
    std::vector<QueryResult> results(
        static_cast<size_t>(target.batch->size()));
    for (QueryId q = 0; run.ok() && q < target.batch->size(); ++q) {
      const ViewId out =
          compiled.workload.query_outputs[static_cast<size_t>(q)];
      QueryResult& qr = results[static_cast<size_t>(q)];
      qr.query_id = q;
      qr.group_by = compiled.workload.view(out).key;
      StatusOr<ViewMap> data = context.TakeQueryResult(out);
      run = data.status();
      if (run.ok()) qr.data = std::move(data).value();
    }
    span.Arg("sort_ms", sort_seconds * 1e3);
    span.Arg("sort_rows", sort_rows);
    ok = ok && run.ok() &&
         CompareResults(results, reference, kRelTol).mismatched == 0;
  }
  return ok;
}

void RunRefreshLoop(Catalog* catalog, const PreparedBatch& prepared,
                    const ParamPack& params, RelationId relation, size_t rows,
                    int reps, const std::string& series, Rng* rng,
                    RawRecord* raw) {
  BatchResult base = ValueOrDie(prepared.Execute(params), "execute base");
  for (int r = 0; r < reps; ++r) {
    {
      ScopedSpan span("storage.append");
      span.Arg("rows", static_cast<double>(rows));
      const double start = NowSeconds();
      CheckOk(AppendCopiedRows(catalog, relation, rows, rng), "append rows");
      raw->Add("append_ms", (NowSeconds() - start) * 1e3);
    }
    raw->Increment("storage.appended_rows", static_cast<double>(rows));
    const double start = NowSeconds();
    StatusOr<BatchResult> refreshed = [&]() -> StatusOr<BatchResult> {
      ScopedSpan span("exec.delta");
      StatusOr<BatchResult> result = prepared.ExecuteDelta(base, params);
      if (result.ok()) {
        span.Arg("passes", result->stats.delta_passes);
        span.Arg("rows", static_cast<double>(result->stats.delta_rows));
        span.Arg("dirty_groups", result->stats.delta_dirty_groups);
      }
      return result;
    }();
    const double ms = (NowSeconds() - start) * 1e3;
    raw->Increment("attempted");
    if (!refreshed.ok()) {
      raw->Increment("failed");
      continue;
    }
    raw->Add(series, ms);
    // The full execute that checks this refresh is the next one's base.
    base = ValueOrDie(prepared.ExecuteAt(refreshed->epoch, params),
                      "execute at refresh epoch");
    if (CompareResults(refreshed->results, base.results, kRelTol).mismatched >
        0) {
      raw->Increment("failed");
      raw->Increment("mismatches");
    }
  }
}

void ProbeExecute(const ProbeTarget& target, int reps) {
  Engine engine(target.catalog, target.tree, BaseOptions(target.threads));
  const PreparedBatch prepared =
      ValueOrDie(TimedPrepare(&engine, *target.batch), "prepare probe batch");
  for (int r = 0; r < reps; ++r) {
    CheckOk(TimedExecute(prepared, target.params).status(), "execute probe");
  }
}

void ProbeRidge(const ProbeTarget& target, const FeatureSet& features,
                int reps) {
  const CovarianceBatch cov = ValueOrDie(
      BuildCovarianceBatch(features, *target.catalog), "covariance batch");
  Engine engine(target.catalog, target.tree, BaseOptions(target.threads));
  const PreparedBatch prepared =
      ValueOrDie(engine.Prepare(cov.batch), "prepare covariance");
  const BatchResult result =
      ValueOrDie(prepared.Execute(), "execute covariance");
  for (int r = 0; r < reps; ++r) {
    CheckOk(TimedRidge(cov, features, result.results).status(), "ridge");
  }
}

void ProbeCart(const ProbeTarget& target, const FeatureSet& features) {
  Engine engine(target.catalog, target.tree, BaseOptions(target.threads));
  CartOptions options;
  options.max_depth = 1;
  CartTrainer trainer(features, target.catalog, options);
  TimedCartProvider provider(&engine, /*split_calls=*/false);
  double seconds = 0.0;
  CheckOk(TimedTrainTree(&trainer, &provider, &seconds).status(),
          "train probe tree");
}

}  // namespace perfbench

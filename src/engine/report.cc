#include "engine/report.h"

#include <sstream>

#include "util/string_util.h"

namespace lmfao {

std::string ReportViewGeneration(const CompiledBatch& compiled,
                                 const Catalog& catalog) {
  std::ostringstream out;
  out << "View Generation\n";
  out << "  queries: " << compiled.workload.query_outputs.size()
      << ", merged views: " << compiled.workload.NumInnerViews() << "\n";
  out << "  roots:\n";
  for (size_t q = 0; q < compiled.workload.roots.size(); ++q) {
    out << "    Q" << q << " -> "
        << catalog.relation(compiled.workload.roots[q]).name() << "\n";
  }
  out << "  views per direction (arrow widths):\n";
  for (const auto& [key, count] : compiled.workload.ViewsPerDirection()) {
    const RelationId origin = static_cast<RelationId>(key >> 32);
    const RelationId target = static_cast<RelationId>(key & 0xffffffff);
    out << "    " << catalog.relation(origin).name() << " -> "
        << catalog.relation(target).name() << ": " << count << "\n";
  }
  out << "  views:\n";
  for (const ViewInfo& v : compiled.workload.views) {
    out << "    " << v.ToString(catalog) << "\n";
  }
  return out.str();
}

std::string ReportViewGroups(const CompiledBatch& compiled,
                             const Catalog& catalog) {
  std::ostringstream out;
  out << "View Groups (" << compiled.grouped.groups.size() << ")\n";
  for (const ViewGroup& g : compiled.grouped.groups) {
    out << "  " << g.ToString(compiled.workload, catalog) << "\n";
    out << "    attribute order:";
    for (AttrId a : compiled.attr_orders[static_cast<size_t>(g.id)]) {
      out << " " << catalog.attr(a).name;
    }
    const GroupPlan& plan = compiled.plans[static_cast<size_t>(g.id)];
    out << "  (" << plan.alphas.size() << " alphas, " << plan.betas.size()
        << " betas, " << plan.leaf_sums.size() << " leaf sums)\n";
    const OrderEstimate& est =
        compiled.order_estimates[static_cast<size_t>(g.id)];
    out << StringPrintf("    order cost estimate: %.3g (%d candidate order%s",
                        est.cost, est.candidates,
                        est.candidates == 1 ? "" : "s");
    if (est.cost < est.rule1_cost) {
      out << StringPrintf("; rule-1 order %.3g", est.rule1_cost);
    }
    out << ")\n";
  }
  return out.str();
}

std::string ReportExecution(const ExecutionStats& stats,
                            const Catalog& catalog) {
  std::ostringstream out;
  out << "Execution\n";
  out << StringPrintf(
      "  %d queries -> %d views (%d aggregate slots) in %d groups\n",
      stats.num_queries, stats.num_views, stats.num_aggregates,
      stats.num_groups);
  out << StringPrintf(
      "  compile %.2f ms%s (view generation %.2f + grouping %.2f + "
      "planning %.2f), execute %.2f ms, total %.2f ms\n",
      stats.compile_seconds * 1e3, stats.plan_cache_hit ? " [cached]" : "",
      stats.viewgen_seconds * 1e3, stats.grouping_seconds * 1e3,
      stats.plan_seconds * 1e3, stats.execute_seconds * 1e3,
      stats.total_seconds * 1e3);
  out << StringPrintf(
      "  backend: %s (%d jit / %d simd / %d interp group executions)\n",
      stats.backend.c_str(), stats.groups_jit, stats.groups_simd,
      stats.groups_interp);
  if (stats.delta_execution) {
    out << StringPrintf(
        "  delta refresh: %d pass%s over %zu appended rows, %d dirty group "
        "executions\n",
        stats.delta_passes, stats.delta_passes == 1 ? "" : "es",
        stats.delta_rows, stats.delta_dirty_groups);
  }
  if (stats.dist_execution) {
    const double skew =
        stats.shard_mean_seconds > 0.0
            ? stats.shard_max_seconds / stats.shard_mean_seconds
            : 1.0;
    out << StringPrintf(
        "  sharded: %d shards of %s, exchange %zu bytes, merge %.2f ms, "
        "shard max/mean %.2f/%.2f ms (skew %.2f)\n",
        stats.dist_shards,
        stats.dist_relation == kInvalidRelation
            ? "?"
            : catalog.relation(stats.dist_relation).name().c_str(),
        stats.exchange_bytes, stats.merge_seconds * 1e3,
        stats.shard_max_seconds * 1e3, stats.shard_mean_seconds * 1e3, skew);
    for (const DistShardStats& s : stats.dist_shard_stats) {
      out << StringPrintf("    shard %d: %zu rows, %.2f ms, %zu bytes\n",
                          s.shard, s.rows, s.seconds * 1e3, s.exchange_bytes);
    }
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  out << StringPrintf(
      "  view store: peak %zu live views (%.2f MiB peak: %.2f key + %.2f "
      "payload), %d frozen\n",
      stats.peak_live_views,
      static_cast<double>(stats.peak_view_bytes) / kMiB,
      static_cast<double>(stats.peak_view_key_bytes) / kMiB,
      static_cast<double>(stats.peak_view_payload_bytes) / kMiB,
      stats.num_frozen_views);
  for (const GroupStats& g : stats.groups) {
    out << StringPrintf(
        "    group %d @ %-14s %8.2f ms [%s], %d outputs, %zu entries, "
        "%d shard%s, waited %.2f ms, store %.2f MiB (%.2f key + %.2f "
        "payload)\n",
        g.group_id, catalog.relation(g.node).name().c_str(), g.seconds * 1e3,
        g.backend, g.num_outputs, g.output_entries, g.shards,
        g.shards == 1 ? "" : "s", g.wait_seconds * 1e3,
        static_cast<double>(g.store_bytes()) / kMiB,
        static_cast<double>(g.store_key_bytes) / kMiB,
        static_cast<double>(g.store_payload_bytes) / kMiB);
  }
  return out.str();
}

std::string ReportServing(const ServerStats& stats) {
  std::ostringstream out;
  out << "Serving\n";
  out << StringPrintf(
      "  %-17s %9s %9s %6s %6s %6s %8s %7s %6s %9s %9s %9s\n", "class",
      "submitted", "admitted", "shed", "ok", "fail", "retries", "ddl", "degr",
      "p50 ms", "p95 ms", "p99 ms");
  auto row = [&out](const char* name, const ClassStats& c) {
    out << StringPrintf(
        "  %-17s %9llu %9llu %6llu %6llu %6llu %8llu %7llu %6llu %9.2f "
        "%9.2f %9.2f\n",
        name, static_cast<unsigned long long>(c.submitted),
        static_cast<unsigned long long>(c.admitted),
        static_cast<unsigned long long>(c.shed_queue_full + c.shed_watermark),
        static_cast<unsigned long long>(c.completed_ok),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(c.retries),
        static_cast<unsigned long long>(c.deadline_trips),
        static_cast<unsigned long long>(c.degraded),
        c.latency.Percentile(50) * 1e3, c.latency.Percentile(95) * 1e3,
        c.latency.Percentile(99) * 1e3);
  };
  for (size_t i = 0; i < kNumRequestClasses; ++i) {
    row(RequestClassName(static_cast<RequestClass>(i)), stats.classes[i]);
  }
  row("total", stats.Totals());
  const ClassStats total = stats.Totals();
  out << StringPrintf(
      "  queue depth high-water: %zu (per class:",
      stats.total_queue_depth_highwater);
  for (size_t i = 0; i < kNumRequestClasses; ++i) {
    out << StringPrintf(" %zu", stats.classes[i].queue_depth_highwater);
  }
  out << ")\n";
  if (total.expired_in_queue > 0 || total.rejected_draining > 0) {
    out << StringPrintf(
        "  expired in queue: %llu, rejected while draining: %llu\n",
        static_cast<unsigned long long>(total.expired_in_queue),
        static_cast<unsigned long long>(total.rejected_draining));
  }
  return out.str();
}

}  // namespace lmfao

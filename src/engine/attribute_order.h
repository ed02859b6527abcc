/// \file attribute_order.h
/// \brief Per-group total orders on join attributes.
///
/// The Multi-Output Optimization layer constructs, for each view group, a
/// total order on the attributes over which the group's relation and
/// incoming views are organized as tries (Section 2). The order determines
/// where view lookups complete, where outputs are written, and how much
/// computation can be hoisted out of inner loops, so the heuristic aims to:
///   1. put key attributes of *outgoing views* first — their writes then
///      happen at the shallowest levels and the views are produced in key
///      order. When the group's outgoing views have two or more distinct
///      relation-key *blocks* (e.g. `{ksn}` and `{locn, dateid}` for a
///      Retailer Inventory group), which block leads is a cost decision:
///      ComputeCandidateOrders yields one order per block (that block
///      first, the other blocks in output order), the compiler builds each
///      candidate's plan, and keeps the one with the lowest
///      EstimateOrderCost (ties keep the output-order candidate);
///   2. among the rest, greedily pick attributes that complete the keys of
///      as many incoming views as possible (lookups become loop-invariant
///      early, Fig. 3's alpha registers);
///   3. break ties towards attributes referenced by more incoming views,
///      then smaller estimated domains.
///
/// The cost rule reads only catalog statistics (row counts, domain sizes)
/// and plan op counts, so the choice is a pure function of the batch shape
/// and the catalog state it is compiled against.

#ifndef LMFAO_ENGINE_ATTRIBUTE_ORDER_H_
#define LMFAO_ENGINE_ATTRIBUTE_ORDER_H_

#include <vector>

#include "engine/ir.h"
#include "engine/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lmfao {

/// \brief Computes the Rule-1 trie attribute order for one group: outgoing
/// view key blocks in output order, then rules 2 and 3.
///
/// The order contains exactly the union of incoming-view key attributes and
/// output key attributes; attributes used only inside local factors are
/// handled at the leaf (per-tuple) level by the executor. It is always the
/// first of ComputeCandidateOrders.
StatusOr<std::vector<AttrId>> ComputeAttributeOrder(
    const Workload& workload, const ViewGroup& group, const Catalog& catalog);

/// \brief The distinct candidate orders of one group: the Rule-1 order
/// first, then one order per further outgoing-view key block with that
/// block leading. A group with fewer than two distinct blocks has exactly
/// one candidate.
StatusOr<std::vector<std::vector<AttrId>>> ComputeCandidateOrders(
    const Workload& workload, const ViewGroup& group, const Catalog& catalog);

/// \brief Estimated register work of one execution of `plan`:
/// `Σ_l m_l · (|alphas_at_level[l]| + |betas_at_level[l]| +
/// |writes_at_level[l]|)` over trie levels 1..L, where
/// `m_l = min(rows(node), Π_{i≤l} domain_size(a_i))` estimates how many
/// distinct level-l prefixes the scan binds. An unknown domain (0) counts
/// as rows(node). Level 0 and the leaf do the same work under every
/// candidate order and are left out.
double EstimateOrderCost(const GroupPlan& plan, const Catalog& catalog);

/// \brief How a group's attribute order was chosen.
struct OrderEstimate {
  /// EstimateOrderCost of the chosen order.
  double cost = 0.0;
  /// EstimateOrderCost of the Rule-1 order (== cost when it was kept).
  double rule1_cost = 0.0;
  /// Number of distinct candidate orders considered.
  int candidates = 1;
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_ATTRIBUTE_ORDER_H_

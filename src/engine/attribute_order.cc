#include "engine/attribute_order.h"

#include <algorithm>

namespace lmfao {

namespace {

/// The trie universe of a group and its outgoing-view key blocks.
struct OrderInputs {
  /// Sorted relation attributes keying incoming or outgoing views.
  std::vector<AttrId> universe;
  /// Distinct relation-key blocks of the outgoing inner views, in output
  /// order (each block in view-key order).
  std::vector<std::vector<AttrId>> blocks;
};

StatusOr<OrderInputs> CollectOrderInputs(const Workload& workload,
                                         const ViewGroup& group,
                                         const Catalog& catalog) {
  // The trie is built over the *node relation's* join attributes only
  // (Section 2: "a total order on the join attributes of the node
  // relation"). Attributes carried by incoming views but absent from the
  // relation (group-by attributes travelling towards their root) are not
  // levels: the executor iterates the views' matching entry ranges instead.
  const std::vector<AttrId>& rel_attrs =
      SortedUnique(catalog.relation(group.node).schema().attrs());
  OrderInputs in;
  for (ViewId v : group.incoming) {
    for (AttrId a : workload.view(v).key) {
      if (SetContains(rel_attrs, a)) in.universe.push_back(a);
    }
  }
  for (ViewId v : group.outputs) {
    for (AttrId a : workload.view(v).key) {
      if (SetContains(rel_attrs, a)) in.universe.push_back(a);
    }
  }
  in.universe = SortedUnique(std::move(in.universe));
  for (AttrId a : in.universe) {
    if (catalog.attr(a).type != AttrType::kInt) {
      return Status::InvalidArgument("trie attribute " + catalog.attr(a).name +
                                     " must be int-typed");
    }
  }

  // Rule 1 blocks: outgoing *view* key attributes (query outputs excluded:
  // they accumulate into hash maps anyway).
  std::vector<std::vector<AttrId>> block_sets;
  for (ViewId v : group.outputs) {
    const ViewInfo& info = workload.view(v);
    if (info.IsQueryOutput()) continue;
    std::vector<AttrId> block;
    for (AttrId a : info.key) {
      if (SetContains(in.universe, a)) block.push_back(a);
    }
    if (block.empty()) continue;
    std::vector<AttrId> set = SortedUnique(block);
    if (std::find(block_sets.begin(), block_sets.end(), set) !=
        block_sets.end()) {
      continue;
    }
    block_sets.push_back(std::move(set));
    in.blocks.push_back(std::move(block));
  }
  return in;
}

/// The order with block `lead` first, the other blocks in output order
/// (Rule 1), then the remaining universe by rules 2 and 3.
std::vector<AttrId> CompleteOrder(const Workload& workload,
                                  const ViewGroup& group,
                                  const Catalog& catalog,
                                  const OrderInputs& in, size_t lead) {
  std::vector<AttrId> order;
  auto take = [&](AttrId a) {
    if (std::find(order.begin(), order.end(), a) == order.end()) {
      order.push_back(a);
    }
  };
  if (lead < in.blocks.size()) {
    for (AttrId a : in.blocks[lead]) take(a);
  }
  for (const std::vector<AttrId>& block : in.blocks) {
    for (AttrId a : block) take(a);
  }

  // Rule 2/3: greedily complete incoming-view keys; prefer attributes
  // referenced by more views, then smaller domains.
  std::vector<AttrId> remaining;
  for (AttrId a : in.universe) {
    if (std::find(order.begin(), order.end(), a) == order.end()) {
      remaining.push_back(a);
    }
  }
  auto count_in_keys = [&](AttrId a) {
    int n = 0;
    for (ViewId v : group.incoming) {
      if (SetContains(workload.view(v).key, a)) ++n;
    }
    return n;
  };
  while (!remaining.empty()) {
    AttrId best = remaining.front();
    int best_completions = -1;
    int best_refs = -1;
    int64_t best_domain = 0;
    for (AttrId a : remaining) {
      // How many incoming views have all their *relation* key attributes
      // bound once `a` is next?
      int completions = 0;
      for (ViewId v : group.incoming) {
        const auto& key = workload.view(v).key;
        if (!SetContains(key, a)) continue;
        bool complete = true;
        for (AttrId k : key) {
          if (k == a || !SetContains(in.universe, k)) continue;
          if (std::find(order.begin(), order.end(), k) == order.end()) {
            complete = false;
            break;
          }
        }
        if (complete) ++completions;
      }
      const int refs = count_in_keys(a);
      const int64_t domain = catalog.attr(a).domain_size;
      const bool better =
          completions > best_completions ||
          (completions == best_completions && refs > best_refs) ||
          (completions == best_completions && refs == best_refs &&
           (best_domain <= 0 || (domain > 0 && domain < best_domain)));
      if (better) {
        best = a;
        best_completions = completions;
        best_refs = refs;
        best_domain = domain;
      }
    }
    order.push_back(best);
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
  }
  return order;
}

}  // namespace

StatusOr<std::vector<AttrId>> ComputeAttributeOrder(
    const Workload& workload, const ViewGroup& group,
    const Catalog& catalog) {
  LMFAO_ASSIGN_OR_RETURN(OrderInputs in,
                         CollectOrderInputs(workload, group, catalog));
  return CompleteOrder(workload, group, catalog, in, 0);
}

StatusOr<std::vector<std::vector<AttrId>>> ComputeCandidateOrders(
    const Workload& workload, const ViewGroup& group,
    const Catalog& catalog) {
  LMFAO_ASSIGN_OR_RETURN(OrderInputs in,
                         CollectOrderInputs(workload, group, catalog));
  std::vector<std::vector<AttrId>> candidates;
  const size_t leads = std::max<size_t>(in.blocks.size(), 1);
  for (size_t lead = 0; lead < leads; ++lead) {
    std::vector<AttrId> order =
        CompleteOrder(workload, group, catalog, in, lead);
    // Overlapping blocks (e.g. {a} and {a, b}) can yield the same order.
    if (std::find(candidates.begin(), candidates.end(), order) ==
        candidates.end()) {
      candidates.push_back(std::move(order));
    }
  }
  return candidates;
}

double EstimateOrderCost(const GroupPlan& plan, const Catalog& catalog) {
  const double rows =
      static_cast<double>(catalog.relation(plan.node).num_rows());
  double prefixes = 1.0;
  double cost = 0.0;
  for (int l = 1; l <= plan.num_levels(); ++l) {
    const int64_t domain =
        catalog.attr(plan.attr_order[static_cast<size_t>(l - 1)])
            .domain_size;
    prefixes = domain > 0
                   ? std::min(rows, prefixes * static_cast<double>(domain))
                   : rows;
    const size_t ops = plan.alphas_at_level[static_cast<size_t>(l)].size() +
                       plan.betas_at_level[static_cast<size_t>(l)].size() +
                       plan.writes_at_level[static_cast<size_t>(l)].size();
    cost += prefixes * static_cast<double>(ops);
  }
  return cost;
}

}  // namespace lmfao

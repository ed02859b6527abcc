/// \file attribute_order_test.cc
/// \brief Tests of the per-group attribute-order heuristic, including the
/// item-date-store order of Fig. 3, and of the cost-based choice of the
/// leading outgoing-view key block.

#include "engine/attribute_order.h"

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "data/retailer.h"
#include "engine/engine.h"
#include "engine/grouping.h"
#include "engine/view_generation.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

class AttributeOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    auto workload =
        GenerateViews(MakeExampleBatch(*data_), data_->catalog, data_->tree);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(workload).value();
    auto grouped = GroupViews(workload_, data_->catalog);
    ASSERT_TRUE(grouped.ok());
    grouped_ = std::move(grouped).value();
  }

  const ViewGroup* FindGroupWithQuery(QueryId q) {
    const ViewId out = workload_.query_outputs[static_cast<size_t>(q)];
    return &grouped_.groups[static_cast<size_t>(
        grouped_.producer_group[static_cast<size_t>(out)])];
  }

  std::unique_ptr<FavoritaData> data_;
  Workload workload_;
  GroupedWorkload grouped_;
};

TEST_F(AttributeOrderTest, Group6OrderMatchesFig3) {
  // The group computing Q1, Q2 and V_{S->I} over Sales uses the order
  // (item, date, store) in the paper's Fig. 3.
  const ViewGroup* group = FindGroupWithQuery(0);
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->node, data_->sales);
  auto order = ComputeAttributeOrder(workload_, *group, data_->catalog);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_EQ(*order, (std::vector<AttrId>{data_->item, data_->date,
                                         data_->store}));
}

TEST_F(AttributeOrderTest, OrdersContainOnlyRelationAttrs) {
  for (const ViewGroup& g : grouped_.groups) {
    auto order = ComputeAttributeOrder(workload_, g, data_->catalog);
    ASSERT_TRUE(order.ok());
    const auto& rel_attrs = data_->catalog.relation(g.node).schema();
    for (AttrId a : *order) {
      EXPECT_TRUE(rel_attrs.Contains(a))
          << data_->catalog.attr(a).name << " not in "
          << data_->catalog.relation(g.node).name();
    }
  }
}

TEST_F(AttributeOrderTest, OutgoingViewKeyFormsPrefix) {
  // For every group producing exactly one inner view, the view's relation
  // key attributes must be a prefix of the order (sorted-output writes).
  for (const ViewGroup& g : grouped_.groups) {
    std::vector<ViewId> inner;
    for (ViewId v : g.outputs) {
      if (!workload_.view(v).IsQueryOutput()) inner.push_back(v);
    }
    if (inner.size() != 1) continue;
    auto order = ComputeAttributeOrder(workload_, g, data_->catalog);
    ASSERT_TRUE(order.ok());
    const auto& rel = data_->catalog.relation(g.node);
    std::vector<AttrId> rel_key;
    for (AttrId a : workload_.view(inner[0]).key) {
      if (rel.schema().Contains(a)) rel_key.push_back(a);
    }
    for (size_t i = 0; i < rel_key.size(); ++i) {
      EXPECT_TRUE(std::find(order->begin(), order->begin() +
                                static_cast<long>(rel_key.size()),
                            rel_key[i]) !=
                  order->begin() + static_cast<long>(rel_key.size()))
          << "key attr not within the order prefix";
    }
  }
}

TEST_F(AttributeOrderTest, CoversAllRelationKeyAttrs) {
  for (const ViewGroup& g : grouped_.groups) {
    auto order = ComputeAttributeOrder(workload_, g, data_->catalog);
    ASSERT_TRUE(order.ok());
    const auto& rel = data_->catalog.relation(g.node);
    for (ViewId v : g.incoming) {
      for (AttrId a : workload_.view(v).key) {
        if (rel.schema().Contains(a)) {
          EXPECT_TRUE(std::find(order->begin(), order->end(), a) !=
                      order->end());
        }
      }
    }
    for (ViewId v : g.outputs) {
      for (AttrId a : workload_.view(v).key) {
        if (rel.schema().Contains(a)) {
          EXPECT_TRUE(std::find(order->begin(), order->end(), a) !=
                      order->end());
        }
      }
    }
  }
}

TEST_F(AttributeOrderTest, DeterministicAcrossCalls) {
  for (const ViewGroup& g : grouped_.groups) {
    auto a = ComputeAttributeOrder(workload_, g, data_->catalog);
    auto b = ComputeAttributeOrder(workload_, g, data_->catalog);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

/// Number of distinct relation-key blocks among a group's outgoing inner
/// views (the candidates Rule 1's cost choice ranges over).
int CountKeyBlocks(const Workload& workload, const ViewGroup& group,
                   const Catalog& catalog) {
  const RelationSchema& schema = catalog.relation(group.node).schema();
  std::vector<std::vector<AttrId>> blocks;
  for (ViewId v : group.outputs) {
    const ViewInfo& info = workload.view(v);
    if (info.IsQueryOutput()) continue;
    std::vector<AttrId> block;
    for (AttrId a : info.key) {
      if (schema.Contains(a)) block.push_back(a);
    }
    block = SortedUnique(std::move(block));
    if (!block.empty() &&
        std::find(blocks.begin(), blocks.end(), block) == blocks.end()) {
      blocks.push_back(std::move(block));
    }
  }
  return static_cast<int>(blocks.size());
}

/// The cost-based Rule 1 on the covariance batches of both datasets.
class CostBasedOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RetailerOptions retailer_options;
    retailer_options.num_inventory = 4000;
    auto retailer = MakeRetailer(retailer_options);
    ASSERT_TRUE(retailer.ok()) << retailer.status().ToString();
    retailer_ = std::move(retailer).value();
    FeatureSet retailer_features;
    retailer_features.label = retailer_->inventoryunits;
    for (AttrId a : retailer_->continuous) {
      if (a != retailer_->inventoryunits) {
        retailer_features.continuous.push_back(a);
      }
    }
    retailer_features.categorical = retailer_->categorical;
    auto retailer_cov =
        BuildCovarianceBatch(retailer_features, retailer_->catalog);
    ASSERT_TRUE(retailer_cov.ok()) << retailer_cov.status().ToString();
    retailer_batch_ = std::move(retailer_cov->batch);

    auto favorita = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(favorita.ok()) << favorita.status().ToString();
    favorita_ = std::move(favorita).value();
    FeatureSet favorita_features;
    favorita_features.label = favorita_->units;
    favorita_features.continuous = {favorita_->txns, favorita_->price};
    favorita_features.categorical = {favorita_->stype, favorita_->family,
                                     favorita_->promo, favorita_->cluster};
    auto favorita_cov =
        BuildCovarianceBatch(favorita_features, favorita_->catalog);
    ASSERT_TRUE(favorita_cov.ok()) << favorita_cov.status().ToString();
    favorita_batch_ = std::move(favorita_cov->batch);
  }

  static CompiledBatch CompileOrDie(const Catalog& catalog,
                                    const JoinTree& tree,
                                    const QueryBatch& batch) {
    Engine engine(&catalog, &tree, EngineOptions{});
    auto compiled = engine.Compile(batch);
    LMFAO_CHECK(compiled.ok()) << compiled.status().ToString();
    return std::move(compiled).value();
  }

  /// The one group over `node` with two or more candidate orders.
  static int MultiBlockGroup(const CompiledBatch& compiled,
                             const Catalog& catalog, RelationId node) {
    int found = -1;
    for (const ViewGroup& g : compiled.grouped.groups) {
      if (g.node != node ||
          CountKeyBlocks(compiled.workload, g, catalog) < 2) {
        continue;
      }
      EXPECT_EQ(found, -1) << "several multi-block groups over the node";
      found = g.id;
    }
    return found;
  }

  std::unique_ptr<RetailerData> retailer_;
  QueryBatch retailer_batch_;
  std::unique_ptr<FavoritaData> favorita_;
  QueryBatch favorita_batch_;
};

TEST_F(CostBasedOrderTest, RetailerInventoryLeadsWithLocationDateBlock) {
  const CompiledBatch compiled = CompileOrDie(
      retailer_->catalog, retailer_->tree, retailer_batch_);
  const int g = MultiBlockGroup(compiled, retailer_->catalog,
                                retailer_->inventory);
  ASSERT_GE(g, 0);
  const ViewGroup& group = compiled.grouped.groups[static_cast<size_t>(g)];
  const std::vector<AttrId>& order =
      compiled.attr_orders[static_cast<size_t>(g)];
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(SortedUnique(std::vector<AttrId>(order.begin(), order.begin() + 2)),
            SortedUnique(std::vector<AttrId>{retailer_->locn,
                                             retailer_->dateid}));
  EXPECT_EQ(order[2], retailer_->ksn);

  // Rule 1 alone leads with the item block; the chosen order is cheaper.
  auto rule1 = ComputeAttributeOrder(compiled.workload, group,
                                     retailer_->catalog);
  ASSERT_TRUE(rule1.ok()) << rule1.status().ToString();
  EXPECT_EQ(rule1->front(), retailer_->ksn);
  const OrderEstimate& est = compiled.order_estimates[static_cast<size_t>(g)];
  EXPECT_EQ(est.candidates, 2);
  EXPECT_LT(est.cost, est.rule1_cost);
  auto rule1_plan = BuildGroupPlan(compiled.workload, group,
                                   retailer_->catalog, *rule1);
  ASSERT_TRUE(rule1_plan.ok()) << rule1_plan.status().ToString();
  EXPECT_EQ(EstimateOrderCost(*rule1_plan, retailer_->catalog),
            est.rule1_cost);
  EXPECT_EQ(EstimateOrderCost(compiled.plans[static_cast<size_t>(g)],
                              retailer_->catalog),
            est.cost);
}

TEST_F(CostBasedOrderTest, FavoritaSalesKeepsRule1Order) {
  const CompiledBatch compiled = CompileOrDie(
      favorita_->catalog, favorita_->tree, favorita_batch_);
  const int g =
      MultiBlockGroup(compiled, favorita_->catalog, favorita_->sales);
  ASSERT_GE(g, 0);
  const ViewGroup& group = compiled.grouped.groups[static_cast<size_t>(g)];
  auto rule1 = ComputeAttributeOrder(compiled.workload, group,
                                     favorita_->catalog);
  ASSERT_TRUE(rule1.ok()) << rule1.status().ToString();
  EXPECT_EQ(compiled.attr_orders[static_cast<size_t>(g)], *rule1);
  const OrderEstimate& est = compiled.order_estimates[static_cast<size_t>(g)];
  EXPECT_GE(est.candidates, 2);
  EXPECT_EQ(est.cost, est.rule1_cost);
}

TEST_F(CostBasedOrderTest, SingleBlockGroupsKeepRule1Order) {
  struct Case {
    const Catalog* catalog;
    const JoinTree* tree;
    const QueryBatch* batch;
  };
  const QueryBatch example = MakeExampleBatch(*favorita_);
  int checked = 0;
  for (const Case& c :
       {Case{&retailer_->catalog, &retailer_->tree, &retailer_batch_},
        Case{&favorita_->catalog, &favorita_->tree, &favorita_batch_},
        Case{&favorita_->catalog, &favorita_->tree, &example}}) {
    const CompiledBatch compiled = CompileOrDie(*c.catalog, *c.tree, *c.batch);
    for (const ViewGroup& g : compiled.grouped.groups) {
      if (CountKeyBlocks(compiled.workload, g, *c.catalog) >= 2) continue;
      auto rule1 = ComputeAttributeOrder(compiled.workload, g, *c.catalog);
      auto candidates =
          ComputeCandidateOrders(compiled.workload, g, *c.catalog);
      ASSERT_TRUE(rule1.ok() && candidates.ok());
      ASSERT_EQ(candidates->size(), 1u);
      EXPECT_EQ(candidates->front(), *rule1);
      EXPECT_EQ(compiled.attr_orders[static_cast<size_t>(g.id)], *rule1);
      EXPECT_EQ(compiled.order_estimates[static_cast<size_t>(g.id)].candidates,
                1);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST_F(CostBasedOrderTest, TiedCandidatesKeepRule1Order) {
  // The Retailer Weather group's candidates differ only in which
  // indicator attribute follows (locn, dateid); their estimates tie.
  const CompiledBatch compiled = CompileOrDie(
      retailer_->catalog, retailer_->tree, retailer_batch_);
  int tied = 0;
  for (const ViewGroup& g : compiled.grouped.groups) {
    const OrderEstimate& est =
        compiled.order_estimates[static_cast<size_t>(g.id)];
    if (est.candidates < 2 || est.cost != est.rule1_cost) continue;
    auto candidates =
        ComputeCandidateOrders(compiled.workload, g, retailer_->catalog);
    ASSERT_TRUE(candidates.ok());
    bool all_tie = true;
    for (const std::vector<AttrId>& order : *candidates) {
      auto plan =
          BuildGroupPlan(compiled.workload, g, retailer_->catalog, order);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      all_tie = all_tie &&
                EstimateOrderCost(*plan, retailer_->catalog) == est.cost;
    }
    if (!all_tie) continue;
    EXPECT_EQ(compiled.attr_orders[static_cast<size_t>(g.id)],
              candidates->front());
    ++tied;
  }
  EXPECT_GE(tied, 1) << "no group with tied candidate orders";
}

TEST_F(CostBasedOrderTest, RepeatedCompilesChooseIdenticalOrders) {
  const CompiledBatch a = CompileOrDie(retailer_->catalog, retailer_->tree,
                                       retailer_batch_);
  const CompiledBatch b = CompileOrDie(retailer_->catalog, retailer_->tree,
                                       retailer_batch_);
  EXPECT_EQ(a.attr_orders, b.attr_orders);
  ASSERT_EQ(a.order_estimates.size(), b.order_estimates.size());
  for (size_t g = 0; g < a.order_estimates.size(); ++g) {
    EXPECT_EQ(a.order_estimates[g].cost, b.order_estimates[g].cost);
    EXPECT_EQ(a.order_estimates[g].rule1_cost,
              b.order_estimates[g].rule1_cost);
    EXPECT_EQ(a.order_estimates[g].candidates,
              b.order_estimates[g].candidates);
  }
}

TEST_F(CostBasedOrderTest, UnknownDomainDoesNotLowerCost) {
  const CompiledBatch compiled = CompileOrDie(
      retailer_->catalog, retailer_->tree, retailer_batch_);
  const int g = MultiBlockGroup(compiled, retailer_->catalog,
                                retailer_->inventory);
  ASSERT_GE(g, 0);
  const ViewGroup& group = compiled.grouped.groups[static_cast<size_t>(g)];
  auto candidates =
      ComputeCandidateOrders(compiled.workload, group, retailer_->catalog);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  Catalog& catalog = retailer_->catalog;
  for (const std::vector<AttrId>& order : *candidates) {
    auto plan = BuildGroupPlan(compiled.workload, group, catalog, order);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const double known = EstimateOrderCost(*plan, catalog);
    EXPECT_GT(known, 0.0);
    for (AttrId a : order) {
      const int64_t domain = catalog.attr(a).domain_size;
      ASSERT_GT(domain, 0);
      catalog.mutable_attr(a).domain_size = 0;
      EXPECT_GE(EstimateOrderCost(*plan, catalog), known)
          << "unknown domain of " << catalog.attr(a).name;
      catalog.mutable_attr(a).domain_size = domain;
    }
  }
}

}  // namespace
}  // namespace lmfao

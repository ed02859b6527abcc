/// \file engine_e2e_test.cc
/// \brief End-to-end correctness: LMFAO results must match the materialized
/// join + scan baseline on every query of realistic batches, across all
/// ablation and parallelism configurations.

#include <algorithm>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "data/retailer.h"
#include "engine/engine.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

class EngineE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FavoritaOptions options;
    options.num_sales = 3000;
    options.num_dates = 40;
    options.num_stores = 8;
    options.num_items = 120;
    auto data = MakeFavorita(options);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = std::move(data).value();
    auto joined = MaterializeJoin(data_->catalog, data_->tree, data_->sales);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    joined_ = std::make_unique<Relation>(std::move(joined).value());
    ASSERT_EQ(joined_->num_rows(), 3000u);
  }

  void ExpectMatchesBaseline(const QueryBatch& batch,
                             const EngineOptions& options) {
    Engine engine(&data_->catalog, &data_->tree, options);
    auto result = engine.Evaluate(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto baseline = EvaluateBatchSharedScan(*joined_, batch);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_EQ(result->results.size(), baseline->size());
    for (size_t q = 0; q < baseline->size(); ++q) {
      EXPECT_TRUE(
          ResultsEquivalent(result->results[q], (*baseline)[q], 1e-8))
          << "query " << q << " (" << batch.query(static_cast<QueryId>(q)).name
          << ") disagrees with the baseline";
    }
  }

  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<Relation> joined_;
};

TEST_F(EngineE2eTest, ExampleBatchMatchesBaseline) {
  ExpectMatchesBaseline(MakeExampleBatch(*data_), EngineOptions{});
}

TEST_F(EngineE2eTest, ExampleBatchNoMerging) {
  EngineOptions options;
  options.view_generation.merge_views = false;
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

TEST_F(EngineE2eTest, ExampleBatchNoMultiOutput) {
  EngineOptions options;
  options.grouping.multi_output = false;
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

TEST_F(EngineE2eTest, ExampleBatchNoFactorization) {
  EngineOptions options;
  options.plan.factorize = false;
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

TEST_F(EngineE2eTest, ExampleBatchHybridParallel) {
  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.min_shard_rows = 1;  // Force sharding on small data.
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

TEST_F(EngineE2eTest, ExampleBatchTaskParallel) {
  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.domain_parallel = false;
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

TEST_F(EngineE2eTest, ExampleBatchDomainParallel) {
  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.task_parallel = false;
  options.scheduler.min_shard_rows = 1;
  ExpectMatchesBaseline(MakeExampleBatch(*data_), options);
}

/// Group-by attributes from every relation, roots auto-assigned.
TEST_F(EngineE2eTest, GroupBysAcrossAllRelations) {
  QueryBatch batch;
  const std::vector<AttrId> group_attrs = {
      data_->store, data_->item,   data_->item_class, data_->family,
      data_->city,  data_->stype,  data_->htype,      data_->locale,
      data_->date,  data_->cluster};
  for (AttrId g : group_attrs) {
    Query q;
    q.name = "g_" + data_->catalog.attr(g).name;
    q.group_by = {g};
    q.aggregates.push_back(Aggregate::Count());
    q.aggregates.push_back(Aggregate::Sum(data_->units));
    batch.Add(std::move(q));
  }
  ExpectMatchesBaseline(batch, EngineOptions{});
}

/// Two-attribute group-bys spanning different relations: group-by values
/// must travel through intermediate views.
TEST_F(EngineE2eTest, CrossRelationGroupByPairs) {
  QueryBatch batch;
  const std::vector<std::pair<AttrId, AttrId>> pairs = {
      {data_->item_class, data_->stype}, {data_->family, data_->city},
      {data_->htype, data_->stype},      {data_->store, data_->item_class},
      {data_->locale, data_->cluster},
  };
  for (const auto& [a, b] : pairs) {
    Query q;
    q.name = "pair";
    q.group_by = {a, b};
    q.aggregates.push_back(Aggregate::Count());
    q.aggregates.push_back(Aggregate::SumProduct(data_->units, data_->txns));
    batch.Add(std::move(q));
  }
  ExpectMatchesBaseline(batch, EngineOptions{});
}

/// Aggregates whose factors span several relations.
TEST_F(EngineE2eTest, MultiRelationFactorProducts) {
  QueryBatch batch;
  Query q1;
  q1.name = "prod3";
  q1.aggregates.push_back(Aggregate(
      {Factor{data_->units, Function::Identity()},
       Factor{data_->price, Function::Identity()},
       Factor{data_->txns, Function::Identity()}}));
  batch.Add(std::move(q1));
  Query q2;
  q2.name = "squares";
  q2.group_by = {data_->state};
  q2.aggregates.push_back(Aggregate::SumSquare(data_->price));
  q2.aggregates.push_back(Aggregate::SumSquare(data_->units));
  q2.aggregates.push_back(Aggregate::SumProduct(data_->units, data_->price));
  batch.Add(std::move(q2));
  ExpectMatchesBaseline(batch, EngineOptions{});
}

/// Indicator factors (decision-tree style conditions).
TEST_F(EngineE2eTest, IndicatorConditions) {
  QueryBatch batch;
  Query q;
  q.name = "conditioned";
  q.aggregates.push_back(Aggregate(
      {Factor{data_->units, Function::Identity()},
       Factor{data_->price,
              Function::Indicator(FunctionKind::kIndicatorLe, 60.0)},
       Factor{data_->promo,
              Function::Indicator(FunctionKind::kIndicatorEq, 1.0)}}));
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  ExpectMatchesBaseline(batch, EngineOptions{});
}

/// The covariance batch for a small Favorita feature set exercises
/// hundreds of queries at once.
TEST_F(EngineE2eTest, CovarianceBatchMatchesBaseline) {
  FeatureSet features;
  features.label = data_->units;
  features.continuous = {data_->txns, data_->price};
  features.categorical = {data_->stype, data_->family, data_->promo};
  auto cov = BuildCovarianceBatch(features, data_->catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  ExpectMatchesBaseline(cov->batch, EngineOptions{});
}

/// Same batch under every ablation (results must be identical regardless of
/// the optimizations applied).
TEST_F(EngineE2eTest, CovarianceBatchUnderAblations) {
  FeatureSet features;
  features.label = data_->units;
  features.continuous = {data_->price};
  features.categorical = {data_->stype, data_->promo};
  auto cov = BuildCovarianceBatch(features, data_->catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  for (const bool merge : {true, false}) {
    for (const bool multi : {true, false}) {
      for (const bool factorize : {true, false}) {
        EngineOptions options;
        options.view_generation.merge_views = merge;
        options.grouping.multi_output = multi;
        options.plan.factorize = factorize;
        SCOPED_TRACE(testing::Message() << "merge=" << merge
                                        << " multi=" << multi
                                        << " factorize=" << factorize);
        ExpectMatchesBaseline(cov->batch, options);
      }
    }
  }
}

/// Retailer: the other dataset/schema.
TEST(EngineE2eRetailerTest, MixedBatchMatchesBaseline) {
  RetailerOptions options;
  options.num_inventory = 2500;
  auto data = MakeRetailer(options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto joined =
      MaterializeJoin((*data)->catalog, (*data)->tree, (*data)->inventory);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();

  QueryBatch batch;
  Query q1;
  q1.name = "total_units";
  q1.aggregates.push_back(Aggregate::Sum((*data)->inventoryunits));
  batch.Add(std::move(q1));
  Query q2;
  q2.name = "by_category";
  q2.group_by = {(*data)->category};
  q2.aggregates.push_back(Aggregate::Count());
  q2.aggregates.push_back(Aggregate::Sum((*data)->prize));
  batch.Add(std::move(q2));
  Query q3;
  q3.name = "cross";
  q3.group_by = {(*data)->rain, (*data)->category_cluster};
  q3.aggregates.push_back(
      Aggregate::SumProduct((*data)->inventoryunits, (*data)->maxtemp));
  batch.Add(std::move(q3));

  Engine engine(&(*data)->catalog, &(*data)->tree, EngineOptions{});
  auto result = engine.Evaluate(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t q = 0; q < baseline->size(); ++q) {
    EXPECT_TRUE(ResultsEquivalent(result->results[q], (*baseline)[q], 1e-8))
        << "query " << q;
  }
}

/// Retailer covariance: the Inventory group's outgoing views have two key
/// blocks ({ksn} and {locn, dateid}) and the cost rule leads with the
/// second, so this covers execution over a switched attribute order,
/// sequentially and with sharded 4-thread groups.
TEST(EngineE2eRetailerTest, CovarianceBatchOverSwitchedOrderMatchesBaseline) {
  RetailerOptions options;
  options.num_inventory = 2500;
  auto data = MakeRetailer(options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const RetailerData& db = **data;
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  auto cov = BuildCovarianceBatch(features, db.catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  auto joined = MaterializeJoin(db.catalog, db.tree, db.inventory);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, cov->batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EngineOptions engine_options;
    engine_options.scheduler.num_threads = threads;
    engine_options.scheduler.min_shard_rows = 1;  // Shard the small groups.
    Engine engine(&db.catalog, &db.tree, engine_options);
    auto compiled = engine.Compile(cov->batch);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    bool switched = false;
    for (size_t g = 0; g < compiled->plans.size(); ++g) {
      const OrderEstimate& est = compiled->order_estimates[g];
      if (compiled->plans[g].node == db.inventory &&
          est.cost < est.rule1_cost) {
        switched = true;
        EXPECT_EQ(compiled->attr_orders[g].back(), db.ksn);
      }
    }
    ASSERT_TRUE(switched) << "no Inventory group left its Rule-1 order";

    auto result = engine.Evaluate(cov->batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    int max_shards = 1;
    for (const GroupStats& g : result->stats.groups) {
      if (g.node == db.inventory) max_shards = std::max(max_shards, g.shards);
    }
    EXPECT_EQ(max_shards > 1, threads > 1);
    ASSERT_EQ(result->results.size(), baseline->size());
    for (size_t q = 0; q < baseline->size(); ++q) {
      EXPECT_TRUE(
          ResultsEquivalent(result->results[q], (*baseline)[q], 1e-8))
          << "query " << q << " ("
          << cov->batch.query(static_cast<QueryId>(q)).name
          << ") disagrees with the baseline";
    }
  }
}

}  // namespace
}  // namespace lmfao

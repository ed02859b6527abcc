/// \file report_test.cc
/// \brief Smoke tests of the report printers (the demo-UI panels).

#include "engine/report.h"

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "data/retailer.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    engine_ = std::make_unique<Engine>(&data_->catalog, &data_->tree,
                                       EngineOptions{});
  }
  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ReportTest, ViewGenerationPanel) {
  auto compiled = engine_->Compile(MakeExampleBatch(*data_));
  ASSERT_TRUE(compiled.ok());
  const std::string report =
      ReportViewGeneration(*compiled, data_->catalog);
  EXPECT_NE(report.find("merged views: 6"), std::string::npos);
  EXPECT_NE(report.find("Q0 -> Sales"), std::string::npos);
  EXPECT_NE(report.find("Q2 -> Items"), std::string::npos);
  EXPECT_NE(report.find("arrow widths"), std::string::npos);
  EXPECT_NE(report.find("Transactions -> Sales: 1"), std::string::npos);
}

TEST_F(ReportTest, ViewGroupsPanel) {
  auto compiled = engine_->Compile(MakeExampleBatch(*data_));
  ASSERT_TRUE(compiled.ok());
  const std::string report = ReportViewGroups(*compiled, data_->catalog);
  EXPECT_NE(report.find("View Groups (7)"), std::string::npos);
  EXPECT_NE(report.find("attribute order: item date store"),
            std::string::npos);
  EXPECT_NE(report.find("alphas"), std::string::npos);
  // Every group reports its order's cost estimate; the example batch's
  // groups each have a single outgoing-view key block.
  EXPECT_NE(report.find("order cost estimate: "), std::string::npos);
  EXPECT_NE(report.find("(1 candidate order)"), std::string::npos);
  EXPECT_EQ(report.find("rule-1 order"), std::string::npos);
}

TEST(ReportRetailerTest, ViewGroupsPanelShowsRule1EstimateWhenBeaten) {
  auto data = MakeRetailer(RetailerOptions{.num_inventory = 2500});
  ASSERT_TRUE(data.ok());
  const RetailerData& db = **data;
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  auto cov = BuildCovarianceBatch(features, db.catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto compiled = engine.Compile(cov->batch);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string report = ReportViewGroups(*compiled, db.catalog);
  EXPECT_NE(report.find("attribute order: locn dateid ksn"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("(2 candidate orders; rule-1 order "),
            std::string::npos)
      << report;
}

TEST_F(ReportTest, ExecutionPanel) {
  auto result = engine_->Evaluate(MakeExampleBatch(*data_));
  ASSERT_TRUE(result.ok());
  const std::string report =
      ReportExecution(result->stats, data_->catalog);
  EXPECT_NE(report.find("3 queries -> 6 views"), std::string::npos);
  EXPECT_NE(report.find("in 7 groups"), std::string::npos);
  EXPECT_NE(report.find("group 0"), std::string::npos);
}

}  // namespace
}  // namespace lmfao

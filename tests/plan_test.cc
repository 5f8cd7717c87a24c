// Coverage for the physical plan IR: builder construction + validation
// errors, the corpus N-line record round-trip, and pipeline-decomposition
// golden cases (breaker placement, stage tags, driving cardinalities).

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/pipeline.h"
#include "plan/plan.h"
#include "storage/catalog.h"

namespace t3 {
namespace {

/// orders(o_id int64, o_cust int64, o_total float64) x 20 rows,
/// customers(c_id int64, c_name string) x 5 rows.
Catalog MakeCatalog() {
  // Each column is filled before the next AddColumn call: AddColumn returns
  // a reference that a later AddColumn may invalidate.
  Catalog catalog;
  Table& orders = catalog.AddTable("orders");
  Column& o_id = orders.AddColumn("o_id", ColumnType::kInt64);
  for (int64_t i = 0; i < 20; ++i) o_id.AppendInt64(i);
  Column& o_cust = orders.AddColumn("o_cust", ColumnType::kInt64);
  for (int64_t i = 0; i < 20; ++i) o_cust.AppendInt64(i % 5);
  Column& o_total = orders.AddColumn("o_total", ColumnType::kFloat64);
  for (int64_t i = 0; i < 20; ++i) {
    o_total.AppendFloat64(static_cast<double>(i) * 1.5);
  }
  Table& customers = catalog.AddTable("customers");
  Column& c_id = customers.AddColumn("c_id", ColumnType::kInt64);
  for (int64_t i = 0; i < 5; ++i) c_id.AppendInt64(i);
  Column& c_name = customers.AddColumn("c_name", ColumnType::kString);
  for (int64_t i = 0; i < 5; ++i) {
    c_name.AppendString("customer" + std::to_string(i));
  }
  return catalog;
}

TEST(PlanBuilderTest, BuildsAnnotatedValidatedPlan) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("orders");
  const int filter =
      *builder.Filter(scan, {{2, CompareOp::kLt, 10.0}});
  const int agg = *builder.HashAggregate(
      filter, {1}, {{AggFunc::kCountStar, -1}, {AggFunc::kSum, 2}});
  Result<PhysicalPlan> plan = builder.Output(agg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->num_nodes(), 4u);
  EXPECT_TRUE(ValidatePlan(*plan).ok());

  // Annotation defaults: scan = table rows, filter = input / 3 per
  // conjunct, widths from the output schema (8 bytes per numeric column).
  EXPECT_DOUBLE_EQ(plan->nodes[0].cardinality, 20.0);
  EXPECT_DOUBLE_EQ(plan->nodes[0].width, 24.0);
  EXPECT_NEAR(plan->nodes[1].cardinality, 20.0 / 3.0, 1e-12);
  // Aggregate schema: group int64 + count int64 + sum float64.
  EXPECT_DOUBLE_EQ(plan->nodes[2].width, 24.0);

  const std::string rendered = PlanToString(*plan);
  EXPECT_NE(rendered.find("hash_aggregate"), std::string::npos);
  EXPECT_NE(rendered.find("scan orders"), std::string::npos);
}

TEST(PlanBuilderTest, RejectsTypeAndRangeErrors) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  EXPECT_FALSE(builder.Scan("nonexistent").ok());
  EXPECT_FALSE(builder.Scan("orders", {0, 7}).ok());  // Column out of range.

  const int orders = *builder.Scan("orders");
  const int customers = *builder.Scan("customers");
  // Predicate on a string column.
  EXPECT_FALSE(builder.Filter(customers, {{1, CompareOp::kEq, 1.0}}).ok());
  // Join keyed on a string column (must be integer-backed).
  EXPECT_FALSE(builder.HashJoin(orders, customers, {1}, {1}).ok());
  // Join keyed on a float64 column.
  EXPECT_FALSE(builder.HashJoin(orders, customers, {2}, {0}).ok());
  // Sum over a string column.
  EXPECT_FALSE(
      builder.HashAggregate(customers, {}, {{AggFunc::kSum, 1}}).ok());
  // Group by a float64 column.
  EXPECT_FALSE(
      builder.HashAggregate(orders, {2}, {{AggFunc::kCountStar, -1}}).ok());
  // Negative limit.
  EXPECT_FALSE(builder.Limit(orders, -1).ok());
}

TEST(ValidatePlanTest, RejectsStructuralErrors) {
  EXPECT_FALSE(ValidatePlan(PhysicalPlan{}).ok());

  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("orders");
  const int limit = *builder.Limit(scan, 5);
  PhysicalPlan plan = *builder.Output(limit);

  // Root must be the output node.
  PhysicalPlan no_output = plan;
  no_output.nodes.pop_back();
  EXPECT_FALSE(ValidatePlan(no_output).ok());

  // Non-finite annotation.
  PhysicalPlan bad_card = plan;
  bad_card.nodes[1].cardinality = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidatePlan(bad_card).ok());

  // A node consumed twice (plans are trees).
  PhysicalPlan diamond = plan;
  diamond.nodes[2].left = 0;
  EXPECT_FALSE(ValidatePlan(diamond).ok());

  // Filter with no predicates.
  PhysicalPlan empty_filter = plan;
  empty_filter.nodes[1].op = PlanOp::kFilter;
  empty_filter.nodes[1].predicates.clear();
  EXPECT_FALSE(ValidatePlan(empty_filter).ok());

  // Child after parent.
  PhysicalPlan forward_ref = plan;
  forward_ref.nodes[1].left = 2;
  EXPECT_FALSE(ValidatePlan(forward_ref).ok());
}

TEST(PlanRecordsTest, RoundTripsThroughNLineRecords) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int orders = *builder.Scan("orders");
  const int filter = *builder.Filter(orders, {{2, CompareOp::kGe, 3.0}});
  const int customers = *builder.Scan("customers", {0});
  const int join = *builder.HashJoin(filter, customers, {1}, {0});
  const int agg = *builder.HashAggregate(
      join, {1}, {{AggFunc::kCountStar, -1}});
  const int sort = *builder.Sort(agg, {{0, true}});
  const int limit = *builder.Limit(sort, 3);
  PhysicalPlan plan = *builder.Output(limit);

  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  AnnotatePipelineStages(&plan, *decomposition);

  const std::vector<PlanNodeRecord> records = PlanToRecords(plan);
  ASSERT_EQ(records.size(), plan.num_nodes());
  // Op-specific extras: scan/project = column count, filter = predicate
  // count, join = key pairs, aggregate = group count, sort = key count,
  // limit = n.
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(orders)].extra, 3.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(filter)].extra, 1.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(customers)].extra, 1.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(join)].extra, 1.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(agg)].extra, 1.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(sort)].extra, 1.0);
  EXPECT_DOUBLE_EQ(records[static_cast<size_t>(limit)].extra, 3.0);

  // records -> skeleton plan -> records is the identity.
  Result<PhysicalPlan> skeleton = PlanFromRecords(records);
  ASSERT_TRUE(skeleton.ok()) << skeleton.status().ToString();
  const std::vector<PlanNodeRecord> again = PlanToRecords(*skeleton);
  ASSERT_EQ(again.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(again[i].op, records[i].op) << i;
    EXPECT_EQ(again[i].left, records[i].left) << i;
    EXPECT_EQ(again[i].right, records[i].right) << i;
    EXPECT_DOUBLE_EQ(again[i].cardinality, records[i].cardinality) << i;
    EXPECT_DOUBLE_EQ(again[i].extra, records[i].extra) << i;
    EXPECT_DOUBLE_EQ(again[i].width, records[i].width) << i;
    EXPECT_EQ(again[i].stage, records[i].stage) << i;
  }
}

TEST(PlanRecordsTest, RejectsUnknownOpCode) {
  PlanNodeRecord record;
  record.op = 7;  // Reserved (window operator, pending reconstruction).
  Result<PhysicalPlan> plan = PlanFromRecords({record});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanRecordsTest, RejectsExtraThatCannotSizeASkeleton) {
  // scan -> filter -> output, with the filter's predicate count forged.
  // The skeleton sizes its placeholder predicates from `extra`, so a huge
  // or fractional count is a clean error, never an allocation.
  PlanNodeRecord scan;
  scan.op = static_cast<int>(PlanOp::kScan);
  scan.cardinality = 100;
  scan.extra = 1;
  scan.width = 8;
  PlanNodeRecord filter;
  filter.op = static_cast<int>(PlanOp::kFilter);
  filter.left = 0;
  filter.cardinality = 50;
  filter.width = 8;
  PlanNodeRecord output;
  output.op = static_cast<int>(PlanOp::kOutput);
  output.left = 1;
  output.cardinality = 50;
  output.width = 8;
  for (const double extra : {1e12, 1e18, 1e300, 2.5, -1.0}) {
    filter.extra = extra;
    Result<PhysicalPlan> plan = PlanFromRecords({scan, filter, output});
    ASSERT_FALSE(plan.ok()) << "extra " << extra;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("plan-annotation"),
              std::string::npos)
        << plan.status().ToString();
  }
  filter.extra = 3;
  EXPECT_TRUE(PlanFromRecords({scan, filter, output}).ok());

  // A limit converts to int64_t; one outside its range is rejected too.
  PlanNodeRecord limit = filter;
  limit.op = static_cast<int>(PlanOp::kLimit);
  for (const double extra : {1e19, -1e19, 1e300}) {
    limit.extra = extra;
    EXPECT_FALSE(PlanFromRecords({scan, limit, output}).ok())
        << "limit " << extra;
  }
  limit.extra = 1e18;
  EXPECT_TRUE(PlanFromRecords({scan, limit, output}).ok());
}

TEST(PipelineTest, StreamingChainIsOnePipeline) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("orders");
  const int filter = *builder.Filter(scan, {{2, CompareOp::kLt, 10.0}});
  const PhysicalPlan plan = *builder.Output(filter);

  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(decomposition->pipelines.size(), 1u);
  const Pipeline& pipeline = decomposition->pipelines[0];
  EXPECT_EQ(pipeline.nodes, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(pipeline.driving_cardinality, 20.0);
  EXPECT_FALSE(pipeline.builds_hash_table);
}

TEST(PipelineTest, AggregateBreaksIntoTwoPipelines) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int scan = *builder.Scan("orders");
  const int agg = *builder.HashAggregate(
      scan, {1}, {{AggFunc::kCountStar, -1}});
  const double agg_card = builder.node(agg).cardinality;
  const PhysicalPlan plan = *builder.Output(agg);

  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(decomposition->pipelines.size(), 2u);
  // Build stage: scan streams into the aggregate.
  EXPECT_EQ(decomposition->pipelines[0].nodes, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(decomposition->pipelines[0].driving_cardinality, 20.0);
  // Scan stage: the aggregate's materialized output feeds the root, driven
  // by the aggregate's own output cardinality.
  EXPECT_EQ(decomposition->pipelines[1].nodes, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(decomposition->pipelines[1].driving_cardinality, agg_card);
  // Stage tag of the breaker is the pipeline that streams through it.
  EXPECT_EQ(decomposition->node_pipeline, (std::vector<int>{0, 0, 1}));
}

TEST(PipelineTest, JoinBreaksBuildSideOnly) {
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int probe = *builder.Scan("orders");
  const int build = *builder.Scan("customers", {0});
  const int join = *builder.HashJoin(probe, build, {1}, {0});
  const PhysicalPlan plan = *builder.Output(join);

  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(decomposition->pipelines.size(), 2u);
  // The build side closes first (topological order) and is marked.
  EXPECT_EQ(decomposition->pipelines[0].nodes, (std::vector<int>{1, 2}));
  EXPECT_TRUE(decomposition->pipelines[0].builds_hash_table);
  EXPECT_DOUBLE_EQ(decomposition->pipelines[0].driving_cardinality, 5.0);
  // The probe side streams through the join to the root.
  EXPECT_EQ(decomposition->pipelines[1].nodes, (std::vector<int>{0, 2, 3}));
  EXPECT_FALSE(decomposition->pipelines[1].builds_hash_table);
  EXPECT_DOUBLE_EQ(decomposition->pipelines[1].driving_cardinality, 20.0);
  // The join's stage is the probe pipeline.
  EXPECT_EQ(decomposition->node_pipeline, (std::vector<int>{1, 0, 1, 1}));

  const std::string rendered = DecompositionToString(plan, *decomposition);
  EXPECT_NE(rendered.find("builds hash table"), std::string::npos);
}

TEST(PipelineTest, FullQueryDecomposesInTopologicalOrder) {
  // orders -> filter -> join(customers) -> aggregate -> sort -> output:
  // four pipelines, every breaker in two of them.
  const Catalog catalog = MakeCatalog();
  PlanBuilder builder(&catalog);
  const int probe_scan = *builder.Scan("orders");
  const int filter = *builder.Filter(probe_scan, {{2, CompareOp::kGe, 3.0}});
  const int build_scan = *builder.Scan("customers", {0});
  const int join = *builder.HashJoin(filter, build_scan, {1}, {0});
  const int agg = *builder.HashAggregate(
      join, {1}, {{AggFunc::kCountStar, -1}});
  const int sort = *builder.Sort(agg, {{1, false}});
  const PhysicalPlan plan = *builder.Output(sort);

  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(decomposition->pipelines.size(), 4u);
  EXPECT_EQ(decomposition->pipelines[0].nodes,
            (std::vector<int>{build_scan, join}));
  EXPECT_TRUE(decomposition->pipelines[0].builds_hash_table);
  EXPECT_EQ(decomposition->pipelines[1].nodes,
            (std::vector<int>{probe_scan, filter, join, agg}));
  EXPECT_EQ(decomposition->pipelines[2].nodes,
            (std::vector<int>{agg, sort}));
  EXPECT_EQ(decomposition->pipelines[3].nodes,
            (std::vector<int>{sort, plan.root()}));
  // Streaming-stage tags: probe chain owns the join, the aggregate belongs
  // to its input pipeline, the sort to its own input pipeline.
  EXPECT_EQ(decomposition->node_pipeline[static_cast<size_t>(build_scan)], 0);
  EXPECT_EQ(decomposition->node_pipeline[static_cast<size_t>(join)], 1);
  EXPECT_EQ(decomposition->node_pipeline[static_cast<size_t>(agg)], 1);
  EXPECT_EQ(decomposition->node_pipeline[static_cast<size_t>(sort)], 2);
  EXPECT_EQ(decomposition->node_pipeline[plan.nodes.size() - 1], 3);
}

}  // namespace
}  // namespace t3

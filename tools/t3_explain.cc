// t3_explain — build a canned plan over a generated instance, run it through
// the vectorized executor, and print the ExplainAnalyze report (per-pipeline
// wall times + per-operator tuple counts). CI's smoke step runs this to
// prove plan building, pipeline decomposition, and execution work end to end.
//
//   t3_explain <instance> [--seed N] [--scale X] [--query QUERY]
//              [--emit-plan PATH]
//
// QUERY picks the canned plan shape:
//   agg   (default) — scan largest table -> filter -> group-by aggregate
//   join            — fact scan -> FK hash join -> global count
//   sort            — scan largest table -> sort -> limit 10
//
// --emit-plan also writes the stage-annotated plan to PATH as "t3plan v1"
// text; the golden fixtures data/plan_{agg,join}_golden.txt are
// regenerated with it (tpch_sf0, default and --query join).
//
// Exit status: 0 success, 1 execution error, 2 usage error.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/string_util.h"
#include "common/text_format.h"
#include "datagen/generator.h"
#include "datagen/spec.h"
#include "engine/executor.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "storage/catalog.h"

namespace t3 {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: t3_explain <instance> [--seed N] [--scale X] "
               "[--query agg|join|sort] [--emit-plan PATH]\n");
  return 2;
}

struct Args {
  std::string instance;
  std::string query = "agg";
  std::string emit_plan;  // Empty = do not write the plan.
  uint64_t seed = 42;
  double scale = 0.0;  // 0 = the instance's own scale.
};

constexpr const char* kTool = "t3_explain";

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->instance = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      if (!CliUint64(kTool, argc, argv, &i, "--seed", 0, UINT64_MAX,
                     "must be an unsigned integer", &args->seed)) {
        return false;
      }
    } else if (arg == "--scale") {
      if (!CliPositiveDouble(kTool, argc, argv, &i, "--scale",
                             &args->scale)) {
        return false;
      }
    } else if (arg == "--query") {
      if (!CliValue(kTool, argc, argv, &i, "--query", &args->query)) {
        return false;
      }
      if (args->query != "agg" && args->query != "join" &&
          args->query != "sort") {
        return CliError(kTool, "--query", "must be one of: agg, join, sort");
      }
    } else if (arg == "--emit-plan") {
      if (!CliValue(kTool, argc, argv, &i, "--emit-plan", &args->emit_plan)) {
        return false;
      }
      if (args->emit_plan.empty()) {
        return CliError(kTool, "--emit-plan", "requires a non-empty path");
      }
    } else {
      return CliError(kTool, arg.c_str(), "is not a recognized argument");
    }
  }
  return true;
}

const Table& LargestTable(const Catalog& catalog) {
  size_t best = 0;
  for (size_t t = 1; t < catalog.num_tables(); ++t) {
    if (catalog.table(t).num_rows() > catalog.table(best).num_rows()) {
      best = t;
    }
  }
  return catalog.table(best);
}

int FindColumnOfType(const Table& table, bool want_float) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnType type = table.column(c).type();
    if (want_float ? type == ColumnType::kFloat64 : IsIntegerBacked(type)) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

/// First FK relationship in the instance spec: (fact table, fk column index,
/// dim table, sequential key column index).
struct FkJoin {
  std::string fact;
  std::string dim;
  int fk_col = -1;
  int key_col = -1;
};

std::optional<FkJoin> FindFkJoin(const InstanceSpec& spec) {
  for (const TableSpec& table : spec.tables) {
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (table.columns[c].dist != DistKind::kForeignKey) continue;
      for (const TableSpec& target : spec.tables) {
        if (target.name != table.columns[c].fk_table) continue;
        for (size_t k = 0; k < target.columns.size(); ++k) {
          if (target.columns[k].dist == DistKind::kSequential) {
            return FkJoin{table.name, target.name, static_cast<int>(c),
                          static_cast<int>(k)};
          }
        }
      }
    }
  }
  return std::nullopt;
}

Result<PhysicalPlan> BuildQuery(const Catalog& catalog,
                                const InstanceSpec& spec,
                                const std::string& query) {
  // The canned shapes only reference columns whose types were just checked,
  // so builder steps cannot fail; Result::operator* asserts that.
  PlanBuilder builder(&catalog);
  if (query == "join") {
    const std::optional<FkJoin> fk = FindFkJoin(spec);
    if (!fk.has_value()) {
      return InvalidArgumentError(
          "instance has no foreign-key relationship; use --query agg");
    }
    const int probe = *builder.Scan(fk->fact);
    const int build = *builder.Scan(fk->dim, {fk->key_col});
    const int join = *builder.HashJoin(probe, build, {fk->fk_col}, {0});
    const int agg =
        *builder.HashAggregate(join, {}, {{AggFunc::kCountStar, -1}});
    return builder.Output(agg);
  }

  const Table& table = LargestTable(catalog);
  const int value_col = FindColumnOfType(table, /*want_float=*/true);
  if (value_col < 0) {
    return InvalidArgumentError(
        StrFormat("table %s has no float64 column", table.name().c_str()));
  }
  if (query == "sort") {
    const int scan = *builder.Scan(table.name());
    const int sort = *builder.Sort(scan, {{value_col, true}});
    return builder.Output(*builder.Limit(sort, 10));
  }
  const int group_col = FindColumnOfType(table, /*want_float=*/false);
  if (group_col < 0) {
    return InvalidArgumentError(
        StrFormat("table %s has no integer column", table.name().c_str()));
  }
  const int scan = *builder.Scan(table.name());
  const int filter =
      *builder.Filter(scan, {{value_col, CompareOp::kGt, 0.0}});
  const int agg = *builder.HashAggregate(
      filter, {group_col},
      {{AggFunc::kCountStar, -1}, {AggFunc::kSum, value_col}});
  return builder.Output(agg);
}

int Run(const Args& args) {
  Result<const InstanceSpec*> spec = FindInstance(args.instance);
  if (!spec.ok()) {
    std::fprintf(stderr, "t3_explain: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  DatagenOptions options;
  options.seed = args.seed;
  options.scale_override = args.scale;
  Result<Catalog> catalog = GenerateInstance(**spec, options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "t3_explain: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }

  Result<PhysicalPlan> plan = BuildQuery(*catalog, **spec, args.query);
  if (!plan.ok()) {
    std::fprintf(stderr, "t3_explain: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  Result<PipelineDecomposition> decomposition = DecomposePipelines(*plan);
  if (!decomposition.ok()) {
    std::fprintf(stderr, "t3_explain: %s\n",
                 decomposition.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", DecompositionToString(*plan, *decomposition).c_str());
  if (!args.emit_plan.empty()) {
    AnnotatePipelineStages(&*plan, *decomposition);
    const Status written = WriteStringToFile(
        args.emit_plan, PlanRecordsToText(PlanToRecords(*plan)));
    if (!written.ok()) {
      std::fprintf(stderr, "t3_explain: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  const Executor executor(*catalog);
  Result<ExplainAnalyze> run = executor.Execute(*plan);
  if (!run.ok()) {
    std::fprintf(stderr, "t3_explain: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", run->ToString(*plan).c_str());
  std::printf("result rows: %llu\n",
              static_cast<unsigned long long>(run->result_rows()));
  return 0;
}

}  // namespace
}  // namespace t3

int main(int argc, char** argv) {
  t3::Args args;
  if (!t3::ParseArgs(argc, argv, &args)) return t3::Usage();
  return t3::Run(args);
}

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "common/hash.h"
#include "datagen/spec.h"
#include "harness/runner.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "querygen/querygen.h"
#include "server/plan_features.h"

namespace t3::perfbench {

namespace {

/// Plans per (instance, structure group) in the pool.
constexpr int kPlansPerGroup = 4;
/// The pool is always generated with the Workbench's default seed, so
/// every run predicts the same 1344 plans: across seeds the pool's median
/// plan changes shape and moves plan_p50_us by ~15% on its own. --seed
/// drives the order plans are asked in and the served traffic instead.
constexpr uint64_t kPoolSeed = 42;

}  // namespace

void Fail(const char* format, ...) {
  std::fprintf(stderr, "perfbench: FAIL: ");
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  std::fflush(stdout);
  std::exit(1);
}

ScopedAffinity::ScopedAffinity(Pick pick, size_t index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (pick == kOne) {
    CPU_SET(cpus[index % cpus.size()], &mask);
  } else if (pick == kLast) {
    CPU_SET(cpus.back(), &mask);
  } else {
    for (size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &mask);
  }
  changed_ = sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

ScopedAffinity::~ScopedAffinity() {
  if (changed_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) Fail("metric %s reported twice", name.c_str());
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::ToJson() const {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  return json + "}}";
}

void SetUp(Context& ctx) {
  std::shared_ptr<const ServingModel> snapshot;
  {
    Result<T3Model> model = [&] {
      ScopedSpan span(ctx.tracer, "model.load", 0);
      return T3Model::LoadFromFile(ctx.options.model_path);
    }();
    if (!model.ok()) Fail("model: %s", model.status().ToString().c_str());
    const Forest& forest = model->forest();
    if (forest.trees.size() != 200 || forest.num_features != 48 ||
        model->target() != PredictionTarget::kPerTuple) {
      Fail("model %s is not the 200-tree, 48-feature per-tuple model "
           "(trees %zu, features %d, target %d)",
           ctx.options.model_path.c_str(), forest.trees.size(),
           forest.num_features, static_cast<int>(model->target()));
    }
    ScopedSpan span(ctx.tracer, "model.serve_prepare", 0);
    Result<std::shared_ptr<const ServingModel>> prepared =
        MakeServingModel(*std::move(model), 1, ctx.options.model_path);
    if (!prepared.ok()) {
      Fail("MakeServingModel: %s", prepared.status().ToString().c_str());
    }
    snapshot = *std::move(prepared);
  }
  const T3Model& model = snapshot->model;

  PlanPool pool;
  Fnv1a fingerprint;
  for (const InstanceSpec& spec : AllInstances()) {
    Result<Database> db = [&] {
      ScopedSpan span(ctx.tracer, "datagen.generate", 0);
      return GenerateDatabase(spec.name, kPoolSeed, 0.0, ctx.threads.get());
    }();
    if (!db.ok()) Fail("datagen %s: %s", spec.name.c_str(),
                       db.status().ToString().c_str());
    QueryGenerator generator(&db->catalog(), kPoolSeed);
    for (QueryGroup group : AllQueryGroups()) {
      for (int index = 0; index < kPlansPerGroup; ++index) {
        Result<GeneratedQuery> query = [&] {
          ScopedSpan span(ctx.tracer, "querygen.generate", 0);
          return generator.Generate(group, index);
        }();
        if (!query.ok()) continue;  // The catalog cannot express the group.
        PhysicalPlan plan = query->plan;
        Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
        if (!decomposition.ok()) Fail("decompose %s", query->name.c_str());
        AnnotatePipelineStages(&plan, *decomposition);
        std::string text = PlanRecordsToText(PlanToRecords(plan));
        Result<PlanPredictionInput> input = BuildPlanPredictionInput(text);
        if (!input.ok()) {
          Fail("plan %s on %s: %s", query->name.c_str(), spec.name.c_str(),
               input.status().ToString().c_str());
        }
        pool.num_features = input->num_features;
        pool.first_row.push_back(pool.cards.size());
        pool.num_rows.push_back(input->num_rows());
        double total = 0.0;
        for (size_t r = 0; r < input->num_rows(); ++r) {
          const double* row = input->rows.data() + r * input->num_features;
          const double card = input->input_cardinalities[r];
          const double seconds = model.PredictPipelineSeconds(row, card);
          pool.row_raw.push_back(model.forest().Predict(row));
          pool.row_seconds.push_back(seconds);
          pool.cards.push_back(card);
          total += seconds;
        }
        pool.rows.insert(pool.rows.end(), input->rows.begin(),
                         input->rows.end());
        pool.plan_seconds.push_back(total);
        fingerprint.LengthPrefixedString(text);
        pool.texts.push_back(std::move(text));
      }
    }
  }
  if (pool.num_plans() == 0) Fail("empty plan pool");
  pool.fingerprint = fingerprint.hash();
  ctx.model = std::move(snapshot);
  ctx.pool = std::move(pool);
}

}  // namespace t3::perfbench

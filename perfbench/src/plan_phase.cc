// plan_predict: a query optimizer asking for a cost in-process. One thread,
// closed loop over the plan pool: BuildPlanPredictionInput, then the
// serving evaluator's Predict + RowSeconds per pipeline row, summed.

#include <utility>

#include "bench.h"
#include "common/random.h"
#include "common/stats.h"
#include "features/featurizer.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "server/plan_features.h"
#include "storage/catalog.h"

namespace t3::perfbench {
namespace {

/// Span budget of the traced pass: enough plans for stable stage medians
/// while leaving room for the other phases' spans.
constexpr size_t kTracedPlanSpans = 100000;
/// Windows of each pass of the traced run.
constexpr int kTraceWindows = 4;

std::vector<size_t> Shuffled(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i - 1)))]);
  }
  return order;
}

/// The timed operation: plan text -> query seconds.
double PredictPlan(const ServingModel& model, const std::string& text) {
  Result<PlanPredictionInput> input = BuildPlanPredictionInput(text);
  if (!input.ok()) Fail("plan input: %s", input.status().ToString().c_str());
  const ForestEvaluator& evaluator = model.evaluator();
  double total = 0.0;
  for (size_t r = 0; r < input->num_rows(); ++r) {
    total += model.RowSeconds(
        evaluator.Predict(input->rows.data() + r * input->num_features),
        input->input_cardinalities[r]);
  }
  return total;
}

/// The same computation split into its public stages, one span each, so
/// the traced run can attribute the plan latency.
double PredictPlanTraced(Context& ctx, const std::string& text,
                         uint64_t request) {
  const ServingModel& model = *ctx.model;
  ScopedSpan root(ctx.tracer, "plan.request", request);
  Result<std::vector<PlanNodeRecord>> records = [&] {
    ScopedSpan span(ctx.tracer, "plan.parse", request);
    return ParsePlanText(text);
  }();
  if (!records.ok()) Fail("parse: %s", records.status().ToString().c_str());
  Result<PhysicalPlan> plan = [&] {
    ScopedSpan span(ctx.tracer, "plan.from_records", request);
    return PlanFromRecords(*records);
  }();
  if (!plan.ok()) Fail("plan: %s", plan.status().ToString().c_str());
  Result<PipelineDecomposition> decomposition = [&] {
    ScopedSpan span(ctx.tracer, "plan.decompose", request);
    return DecomposePipelines(*plan);
  }();
  if (!decomposition.ok()) Fail("decompose");
  const Catalog empty_catalog;
  Result<std::vector<PipelineFeatureVector>> features = [&] {
    ScopedSpan span(ctx.tracer, "features.featurize", request);
    return ComputePipelineFeatures(empty_catalog, *plan, *decomposition,
                                   NodeOutputRowsFromPlan(*plan));
  }();
  if (!features.ok()) Fail("featurize: %s", features.status().ToString().c_str());
  const ForestEvaluator& evaluator = model.evaluator();
  double total = 0.0;
  for (const PipelineFeatureVector& pipeline : *features) {
    double raw = 0.0;
    {
      ScopedSpan span(ctx.tracer, "treejit.jit_row", request);
      raw = evaluator.Predict(pipeline.values.data());
    }
    total += model.RowSeconds(raw, pipeline.input_cardinality);
  }
  return total;
}

}  // namespace

PlanPath::PlanPath(Context& ctx)
    : ctx_(ctx), rng_(ctx.options.seed ^ 0x706c616eULL) {
  // Warm caches and the JIT code with one untimed, checked pass.
  const PlanPool& pool = ctx_.pool;
  for (size_t p = 0; p < pool.num_plans(); ++p) {
    if (!SameBits(PredictPlan(*ctx_.model, pool.texts[p]), pool.plan_seconds[p])) {
      Fail("plan %zu: prediction differs from the Forest::Predict reference", p);
    }
  }
}

void PlanPath::Measure(double seconds, int windows) {
  const PlanPool& pool = ctx_.pool;
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9 / windows);
  for (int w = 0; w < windows; ++w) {
    // Shared-host vCPUs differ in speed from second to second (a tight
    // loop took 0.33-0.59 s on the four of one VM), so the windows rotate
    // over every allowed CPU and the quieter quartile is read from them.
    const ScopedAffinity pin(ScopedAffinity::kOne, p50_.size());
    std::vector<double> latency_us;
    const int64_t end = NowNs() + window_ns;
    for (bool done = false; !done;) {
      for (size_t p : Shuffled(pool.num_plans(), rng_)) {
        const int64_t t0 = NowNs();
        if (t0 >= end) {
          done = true;
          break;
        }
        const double predicted = PredictPlan(*ctx_.model, pool.texts[p]);
        const int64_t t1 = NowNs();
        if (!SameBits(predicted, pool.plan_seconds[p])) {
          Fail("plan %zu: prediction differs from the Forest::Predict reference", p);
        }
        latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
    plans_ += latency_us.size();
    p50_.push_back(Quantile(latency_us, 0.50));
    p99_.push_back(Quantile(latency_us, 0.99));
    rate_.push_back(static_cast<double>(latency_us.size()) /
                    (static_cast<double>(window_ns) / 1e9));
  }
}

void PlanPath::Report(bool own) {
  ctx_.report.Add("plan_p50_us", Quantile(p50_, 0.25), "us");
  ctx_.report.Add("plan_p99_us", Quantile(p99_, 0.25), "us");
  ctx_.report.Add("plans_per_s", Quantile(rate_, 0.75), "1/s");
  if (own) ctx_.report.attempted += plans_;
  std::fprintf(stderr,
               "plan_predict%s: %llu plans in %zu windows, p50 %.2f us\n",
               own ? "" : " probe", static_cast<unsigned long long>(plans_),
               p50_.size(), Quantile(p50_, 0.25));
}

void PlanPath::Trace(double seconds, bool own) {
  const ServingModel& model = *ctx_.model;
  const PlanPool& pool = ctx_.pool;
  // The untraced base of the overhead, then a traced pass as long, both
  // in kTraceWindows CPU-rotated windows read by their quieter quartile.
  const size_t first_window = p50_.size();
  Measure(seconds, kTraceWindows);
  const double plan_p50 = Quantile(
      std::vector<double>(p50_.begin() + static_cast<ptrdiff_t>(first_window),
                          p50_.end()),
      0.25);
  std::vector<double> traced_p50;
  uint64_t request = 0;
  for (int w = 0; w < kTraceWindows; ++w) {
    const ScopedAffinity pin(ScopedAffinity::kOne, static_cast<size_t>(w));
    std::vector<double> traced_us;
    const int64_t end =
        NowNs() + static_cast<int64_t>(seconds * 1e9 / kTraceWindows);
    for (bool done = false; !done;) {
      for (size_t p : Shuffled(pool.num_plans(), rng_)) {
        if (NowNs() >= end || ctx_.tracer.size() >= kTracedPlanSpans) {
          done = true;
          break;
        }
        const int64_t t0 = NowNs();
        const double traced = PredictPlanTraced(ctx_, pool.texts[p], ++request);
        traced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        if (!SameBits(traced, pool.plan_seconds[p])) {
          Fail("plan %zu: traced stage-by-stage prediction differs", p);
        }
        ScopedSpan span(ctx_.tracer, "server.plan_input", request);
        if (!BuildPlanPredictionInput(pool.texts[p]).ok()) Fail("plan input");
      }
    }
    if (!traced_us.empty()) traced_p50.push_back(Median(traced_us));
  }
  const double traced_plan_p50 = Quantile(traced_p50, 0.25);
  if (own) ctx_.report.attempted += plans_ + request;
  // Table 1 baselines on the same varied pool rows.
  const InterpretedEvaluator interpreted(model.model.forest());
  for (size_t r = 0; r < pool.total_rows(); ++r) {
    double flat = 0.0, interp = 0.0;
    {
      ScopedSpan span(ctx_.tracer, "treejit.flat_row", r);
      flat = model.flat->Predict(pool.row(r));
    }
    {
      ScopedSpan span(ctx_.tracer, "treejit.interp_row", r);
      interp = interpreted.Predict(pool.row(r));
    }
    if (!SameBits(flat, pool.row_raw[r]) || !SameBits(interp, pool.row_raw[r])) {
      Fail("row %zu: flat/interpreted evaluator differs from Forest::Predict", r);
    }
  }
  ctx_.report.Add("model.pipelines_per_plan",
                  static_cast<double>(pool.total_rows()) /
                      static_cast<double>(pool.num_plans()),
                  "count");
  ctx_.report.Add("trace.plan_p50_us", plan_p50, "us");
  ctx_.report.Add("trace.plan_traced_p50_us", traced_plan_p50, "us");
  if (own) {
    ctx_.report.Add("trace.overhead_pct",
                    100.0 * (traced_plan_p50 - plan_p50) / plan_p50, "%");
  }
}

}  // namespace t3::perfbench

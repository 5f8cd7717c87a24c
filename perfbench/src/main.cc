// t3_perfbench — the T3 benchmark: one process per run, two workloads.
//
//   t3_perfbench --workload plan_predict|corpus_build
//                --seed N --seconds S --trace 0|1
//                --model FILE --model-fnv1a HEX --trace-out FILE
//                [--setup-only]
//
// Every run measures both paths, so it reports every end-to-end metric:
// the workload's own path gets `--seconds` of measurement, the other runs
// as a short probe (perfbench/README.md). `--trace 1` instead reports the
// per-layer metrics of all three paths, the served one included, from
// span-instrumented passes and writes the spans to --trace-out.
// `--setup-only` stops where the first timed operation would start and
// reports setup_s alone. The last stdout line is the result JSON; any
// wrong prediction, failed audit or failed guard exits 1 without one.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/hash.h"
#include "common/stats.h"

namespace t3::perfbench {
namespace {

const int64_t kProcessStartNs = NowNs();

/// An untraced run interleaves the paths in this many segments.
constexpr int kSegments = 3;
/// Plan windows per run, own or probe.
constexpr int kPlanWindows = 12;
/// A probe's share of the run: plan seconds, and corpus probe builds per
/// segment.
constexpr double kProbePlanSeconds = 3.0;
constexpr int kProbeBuildsPerSegment = 2;
/// The traced run's served 0.5 s windows per pass.
constexpr int kTraceServeWindows = 9;
constexpr size_t kMaxSpans = 400000;

/// Per-layer metrics that are the median self time of one span name.
struct SpanMetric {
  const char* span;
  const char* metric;
  double scale;  ///< ns -> unit.
  const char* unit;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"plan.parse", "plan.parse_us", 1e-3, "us"},
    {"plan.from_records", "plan.from_records_us", 1e-3, "us"},
    {"plan.decompose", "plan.decompose_us", 1e-3, "us"},
    {"features.featurize", "features.featurize_us", 1e-3, "us"},
    {"treejit.jit_row", "treejit.jit_row_ns", 1.0, "ns"},
    {"treejit.flat_row", "treejit.flat_row_ns", 1.0, "ns"},
    {"treejit.interp_row", "treejit.interp_row_ns", 1.0, "ns"},
    {"server.plan_input", "server.plan_input_us", 1e-3, "us"},
    {"server.decode_rows", "server.decode_rows_us", 1e-3, "us"},
    {"server.encode_response", "server.encode_response_us", 1e-3, "us"},
    {"model.load", "model.load_ms", 1e-6, "ms"},
    {"model.serve_prepare", "model.serve_prepare_ms", 1e-6, "ms"},
    {"datagen.generate", "datagen.generate_ms", 1e-6, "ms"},
    {"querygen.generate", "querygen.generate_us", 1e-3, "us"},
    {"harness.benchmark_query", "harness.benchmark_query_ms", 1e-6, "ms"},
    {"engine.execute", "engine.execute_ms", 1e-6, "ms"},
    {"features.featurize_true", "features.featurize_true_us", 1e-3, "us"},
    {"harness.train_matrix", "harness.train_matrix_ms", 1e-6, "ms"},
    {"gbt.train", "gbt.train_s", 1e-9, "s"},
    {"harness.evaluate", "harness.evaluate_ms", 1e-6, "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: t3_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --model FILE --model-fnv1a HEX --trace-out FILE "
               "[--setup-only]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_seed = false, have_seconds = false, have_trace = false,
       have_fnv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      options->setup_only = true;
      continue;
    }
    if (++i == argc) return false;
    const std::string value = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options->trace = value == "1";
    } else if (flag == "--model") {
      options->model_path = value;
    } else if (flag == "--model-fnv1a") {
      options->model_fnv1a = std::strtoull(value.c_str(), &end, 16);
      have_fnv = *end == '\0' && !value.empty();
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         have_fnv && !options->model_path.empty() &&
         !options->trace_out.empty() &&
         (options->workload == "plan_predict" ||
          options->workload == "corpus_build");
}

/// Refuses to measure a different model or a degraded environment.
void Guard(const Options& options) {
  for (const char* var : {"T3_FORCE_SCALAR", "T3_QUICK_TREES", "T3_CORPUS"}) {
    if (std::getenv(var) != nullptr) Fail("%s is set; unset it to measure", var);
  }
  std::ifstream in(options.model_path, std::ios::binary);
  if (!in) Fail("cannot read model %s", options.model_path.c_str());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Fnv1a hash;
  hash.Bytes(bytes.data(), bytes.size());
  if (hash.hash() != options.model_fnv1a) {
    Fail("model %s has fingerprint %016llx, expected %016llx",
         options.model_path.c_str(),
         static_cast<unsigned long long>(hash.hash()),
         static_cast<unsigned long long>(options.model_fnv1a));
  }
}

void AddTraceMetrics(Context& ctx) {
  const auto self = ctx.tracer.SelfTimesNs();
  std::map<std::string, double> medians;
  for (const SpanMetric& m : kSpanMetrics) {
    auto it = self.find(m.span);
    if (it == self.end()) Fail("traced run recorded no %s span", m.span);
    medians[m.span] = Median(it->second);
    ctx.report.Add(m.metric, medians[m.span] * m.scale, m.unit);
  }
  // The plan_predict stage medians, to set against trace.plan_p50_us.
  const double per_plan_rows = static_cast<double>(ctx.pool.total_rows()) /
                               static_cast<double>(ctx.pool.num_plans());
  ctx.report.Add("trace.plan_stage_sum_us",
                 (medians["plan.parse"] + medians["plan.from_records"] +
                  medians["plan.decompose"] + medians["features.featurize"] +
                  medians["treejit.jit_row"] * per_plan_rows) / 1e3,
                 "us");
  ctx.report.Add("trace.spans", static_cast<double>(ctx.tracer.size()), "count");
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.options)) return Usage();
  Guard(ctx.options);
  ctx.tracer = Tracer(ctx.options.trace, kMaxSpans);
  ctx.threads = std::make_unique<ThreadPool>(4);

  SetUp(ctx);
  const std::string& workload = ctx.options.workload;
  const double seconds = ctx.options.seconds;
  const bool plan_own = workload == "plan_predict";
  const bool corpus_own = workload == "corpus_build";
  PlanPath plan(ctx);
  CorpusPath corpus(ctx);

  // Set-up ends here: every path below starts with a timed operation.
  const double setup_s = static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
  std::fprintf(stderr, "setup: %.3f s, %zu plans, %zu rows\n", setup_s,
               ctx.pool.num_plans(), ctx.pool.total_rows());
  if (!ctx.options.trace || ctx.options.setup_only) {
    ctx.report.Add("setup_s", setup_s, "s");
  }
  if (ctx.options.setup_only) {
    ctx.report.attempted = 1;
    std::printf("%s\n", ctx.report.ToJson().c_str());
    return 0;
  }

  if (ctx.options.trace) {
    plan.Trace(plan_own ? seconds : kProbePlanSeconds, plan_own);
    {
      ServePath serve(ctx);
      serve.Trace(kTraceServeWindows);
      serve.Finish();
    }
    corpus.Trace(corpus_own);
  } else {
    // The paths' segments interleave over the whole run, so a stretch of
    // host interference hits a share of each path's samples, not all of one.
    for (int s = 0; s < kSegments; ++s) {
      plan.Measure((plan_own ? seconds : kProbePlanSeconds) / kSegments,
                   kPlanWindows / kSegments);
      for (int b = 0; !corpus_own && b < kProbeBuildsPerSegment; ++b) {
        corpus.Probe();
      }
    }
    if (corpus_own) corpus.Full(seconds);
    plan.Report(plan_own);
    corpus.Report(corpus_own);
  }

  if (ctx.options.trace) {
    AddTraceMetrics(ctx);
    if (!ctx.tracer.WriteJson(ctx.options.trace_out)) {
      Fail("cannot write %s", ctx.options.trace_out.c_str());
    }
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"build_type\": \"%s\", \"nproc\": %ld, "
      "\"batch_kernels\": %s, \"model_fnv1a\": \"%016llx\", "
      "\"plan_pool_fnv1a\": \"%016llx\", \"plans\": %zu, \"rows\": %zu}}\n",
      workload.c_str(), static_cast<unsigned long long>(ctx.options.seed),
      T3_PERFBENCH_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN), BatchKernelsEnabled() ? "true" : "false",
      static_cast<unsigned long long>(ctx.options.model_fnv1a),
      static_cast<unsigned long long>(ctx.pool.fingerprint),
      ctx.pool.num_plans(), ctx.pool.total_rows());
  std::printf("%s\n", ctx.report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace t3::perfbench

int main(int argc, char** argv) { return t3::perfbench::Main(argc, argv); }

#ifndef T3_PERFBENCH_BENCH_H_
#define T3_PERFBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "server/serving_model.h"
#include "trace.h"

namespace t3::perfbench {

/// Prints a diagnostic and exits with status 1 without printing a result:
/// every correctness gate and guard of the benchmark ends here.
[[noreturn]] void Fail(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string model_path;
  uint64_t model_fnv1a = 0;
  std::string trace_out;  ///< Span dump of the traced run.
  bool setup_only = false;  ///< Stop after set-up; report setup_s alone.
};

/// Bit equality: every check against the references is exact.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Restricts the calling thread to some of the CPUs it may run on, and
/// restores its mask when destroyed. Threads it starts meanwhile inherit
/// the restricted mask.
class ScopedAffinity {
 public:
  enum Pick {
    kOne,         ///< Only the `index`-th allowed CPU (modulo their count).
    kAllButLast,  ///< Every allowed CPU but the last (all, if only one).
    kLast,        ///< Only the last allowed CPU.
  };
  explicit ScopedAffinity(Pick pick, size_t index = 0);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_{};
  bool changed_ = false;
};

/// The result line: metric name -> (value, unit), plus the workload's own
/// operation counts.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The plan pool every prediction path draws from: querygen plans over all
/// datagen instances, stage-annotated and serialized as "t3plan v1"
/// skeletons, with reference answers computed through Forest::Predict.
struct PlanPool {
  std::vector<std::string> texts;
  std::vector<size_t> first_row;  ///< Per plan: its first pipeline row.
  std::vector<size_t> num_rows;   ///< Per plan: its pipeline count.
  size_t num_features = 0;
  std::vector<double> rows;       ///< Every pipeline row, row-major.
  std::vector<double> cards;      ///< Per row: input cardinality.
  std::vector<double> row_raw;      ///< Per row: Forest::Predict.
  std::vector<double> row_seconds;  ///< Per row: PredictPipelineSeconds.
  /// Per plan: row_seconds summed in pipeline order from 0.0.
  std::vector<double> plan_seconds;
  uint64_t fingerprint = 0;

  size_t num_plans() const { return texts.size(); }
  size_t total_rows() const { return cards.size(); }
  const double* row(size_t r) const { return rows.data() + r * num_features; }
};

struct Context {
  Options options;
  Tracer tracer{false, 0};
  Report report;
  std::shared_ptr<const ServingModel> model;  ///< Version 1.
  PlanPool pool;
  std::unique_ptr<ThreadPool> threads;  ///< The 4-thread datagen pool.
};

/// Loads and proves the model and builds the plan pool (spans
/// model.load, model.serve_prepare, datagen.generate, querygen.generate).
void SetUp(Context& ctx);

// The three measured paths. The plan and corpus paths report end-to-end
// metrics: on the workload named after it a path gets `--seconds` of
// measurement and its operation counts go into the report; on the other
// it runs as a short probe, so every run still reports every metric. An
// untraced run interleaves the two paths' segments over the whole run
// (main.cc), and each reports the quieter part of its samples:
// interference on a shared host only ever adds time, and comes in
// stretches of seconds. The served path runs in the traced run only: its
// latencies and capacity spread too much between runs on a shared host to
// carry a bound (perfbench/README.md).

/// plan_predict's path: the in-process plan -> query seconds loop.
class PlanPath {
 public:
  /// Runs one untimed, checked pass over the pool.
  explicit PlanPath(Context& ctx);
  /// Appends `windows` windows, `seconds` in all, each on the next CPU.
  void Measure(double seconds, int windows);
  /// plan_p50_us, plan_p99_us, plans_per_s.
  void Report(bool own);
  /// Traced run: an untraced and a traced pass of `seconds` each, plus
  /// the Table 1 evaluator baselines; adds the plan per-layer metrics.
  void Trace(double seconds, bool own);

 private:
  Context& ctx_;
  Rng rng_;
  std::vector<double> p50_, p99_, rate_;  ///< Per window.
  uint64_t plans_ = 0;
};

/// The served path: an in-process PredictionServer under open-loop load.
class ServePath {
 public:
  /// Starts the server, connects the generator and warms up.
  explicit ServePath(Context& ctx);
  ~ServePath();
  ServePath(const ServePath&) = delete;
  ServePath& operator=(const ServePath&) = delete;

  /// One climb of the rate ladder (max_rate_rps).
  void Climb();
  /// `windows` untraced then `windows` traced nominal windows, the
  /// server's codec and batch calls timed directly, then one climb.
  void Trace(int windows);
  /// Waits for every answer, stops the server, checks its counters, and
  /// adds them to the report.
  void Finish();

 private:
  struct State;
  Context& ctx_;
  std::unique_ptr<State> state_;
};

/// corpus_build's path: BuildLiveCorpus, then training and evaluation.
class CorpusPath {
 public:
  explicit CorpusPath(Context& ctx) : ctx_(ctx) {}
  /// One probe build (the other workloads).
  void Probe();
  /// Whole full-size builds until `seconds` pass, each trained and
  /// evaluated (corpus_build's own).
  void Full(double seconds);
  /// records_per_s, test_qerror_p50.
  void Report(bool own);
  /// Traced run: the BuildLiveCorpus loop repeated from outside with
  /// spans, after an untraced full build when `own`.
  void Trace(bool own);

 private:
  /// One untraced, audited BuildLiveCorpus; a full one is also trained
  /// and evaluated.
  void Build(bool own);

  Context& ctx_;
  std::vector<double> rates_, qerrors_;
  uint64_t records_ = 0, skipped_ = 0;
  double last_wall_ = 0.0;
};

}  // namespace t3::perfbench

#endif  // T3_PERFBENCH_BENCH_H_

// The served path, measured in traced runs: an in-process PredictionServer
// driven open-loop by one busy-polling generator thread. 90% of requests are
// kPredictPlan on pool plans, 10% kPredictRows with 256 real pool rows.
// Latency runs from each request's due time.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <utility>

#include "bench.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/stats.h"
#include "generator.h"
#include "server/protocol.h"
#include "server/server.h"

namespace t3::perfbench {
namespace {

// The generator uses one connection: with 4, the server's 4 worker loops
// race to accept them, each run gets a different connection-to-loop
// layout, and the layout moved plan_req_p99_us by 0.32 (IQR/median) over
// 10 runs, against 0.10 over 4 with one connection.
constexpr double kRowsShare = 0.10;
constexpr size_t kRowsPerRequest = 256;
/// The nominal rate of the latency metrics: about half the rate at which
/// the single batcher's backlog began to grow (~6-7k req/s) on a 4-vCPU
/// shared VM, where latency is set by hand-offs, not queueing.
constexpr double kNominalRps = 3000.0;
/// The nominal phase runs in windows of kWindowSeconds.
constexpr double kWindowSeconds = 0.5;
constexpr double kWarmupSeconds = 0.5;
/// The fixed rate ladder: kLadderBaseRps * kLadderGrowth^k, up to the
/// first rate >= kLadderTopRps (4x the ~12k req/s the single batcher
/// sustains, so a multi-core batcher can show its gain without a
/// benchmark change).
constexpr double kLadderBaseRps = kNominalRps;
constexpr double kLadderGrowth = 1.1;
constexpr double kLadderTopRps = 50000.0;
constexpr double kStepSeconds = 0.4;
constexpr int kStepAttempts = 2;
/// Both classes' p99 must stay under this limit for a step to pass. On a
/// shared VM the p99 at a steady 2-3k req/s swings between 2 and 20 ms;
/// with a 10 ms limit the climb stopped at random rates (2.7-6k req/s).
constexpr double kP99LimitUs = 50000.0;
/// A step whose generator ran later than this at p99 is invalid.
constexpr double kMaxLateUs = 500.0;
/// How long a step waits for answers after its last due time.
constexpr int64_t kDrainNs = 1000000000;

constexpr uint32_t kPlanClass = 0;
constexpr uint32_t kRowsClass = 1;

double CpuSeconds(const timeval& user, const timeval& sys) {
  return static_cast<double>(user.tv_sec + sys.tv_sec) +
         static_cast<double>(user.tv_usec + sys.tv_usec) * 1e-6;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return CpuSeconds(usage.ru_utime, usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Which pool plan / pool rows a request carries, derived from its id so
/// the encoder and the checker agree without storing anything.
class Traffic {
 public:
  explicit Traffic(const Context& ctx) : ctx_(ctx), seed_(ctx.options.seed) {}

  size_t PlanOf(uint64_t id) const {
    return static_cast<size_t>(SplitMix64(seed_ ^ (id * 2 + 1)) %
                               ctx_.pool.num_plans());
  }
  std::vector<size_t> RowsOf(uint64_t id) const {
    Rng rng(SplitMix64(seed_ ^ (id * 2)));
    std::vector<size_t> rows(kRowsPerRequest);
    for (size_t& row : rows) {
      row = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(ctx_.pool.total_rows() - 1)));
    }
    return rows;
  }

  void Encode(const ScheduledRequest& request, std::vector<uint8_t>* out) const {
    const PlanPool& pool = ctx_.pool;
    Frame frame;
    if (request.cls == kPlanClass) {
      frame = EncodeTextFrame(MessageType::kPredictPlan,
                              pool.texts[PlanOf(request.id)]);
    } else {
      PredictRowsRequest rows;
      rows.num_features = static_cast<uint32_t>(pool.num_features);
      rows.rows.reserve(kRowsPerRequest * pool.num_features);
      for (size_t r : RowsOf(request.id)) {
        rows.rows.insert(rows.rows.end(), pool.row(r),
                         pool.row(r) + pool.num_features);
        rows.input_cardinalities.push_back(pool.cards[r]);
      }
      frame = EncodePredictRows(rows);
    }
    const std::vector<uint8_t> bytes = EncodeFrame(frame);
    out->insert(out->end(), bytes.begin(), bytes.end());
  }

  /// Any answer that is not the bit-exact reference fails the run.
  bool Check(const ScheduledRequest& request, const Frame& frame) const {
    if (frame.type != MessageType::kPredictOk) {
      Fail("request %llu: answer type %d, not kPredictOk",
           static_cast<unsigned long long>(request.id),
           static_cast<int>(frame.type));
    }
    Result<PredictResponse> response = DecodePredictResponse(frame);
    if (!response.ok()) Fail("undecodable answer: %s", response.status().ToString().c_str());
    if (response->model_version != 1) {
      Fail("answer from model version %u, expected 1", response->model_version);
    }
    const PlanPool& pool = ctx_.pool;
    if (request.cls == kPlanClass) {
      if (response->predictions.size() != 1 ||
          !SameBits(response->predictions[0],
                    pool.plan_seconds[PlanOf(request.id)])) {
        Fail("kPredictPlan answer differs from the Forest::Predict reference");
      }
      return true;
    }
    const std::vector<size_t> rows = RowsOf(request.id);
    if (response->predictions.size() != rows.size()) {
      Fail("kPredictRows answer has %zu predictions, expected %zu",
           response->predictions.size(), rows.size());
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!SameBits(response->predictions[i], pool.row_seconds[rows[i]])) {
        Fail("kPredictRows answer differs from the Forest::Predict reference");
      }
    }
    return true;
  }

 private:
  const Context& ctx_;
  uint64_t seed_;
};

/// A Poisson arrival schedule of `seconds` at `rate`, 10% rows requests.
std::vector<ScheduledRequest> Schedule(double rate, double seconds, Rng& rng,
                                       uint64_t* next_id) {
  std::vector<ScheduledRequest> schedule;
  for (double t = -std::log(1.0 - rng.Unit()) / rate; t < seconds;
       t += -std::log(1.0 - rng.Unit()) / rate) {
    ScheduledRequest request;
    request.due_ns = static_cast<int64_t>(t * 1e9);
    request.cls = rng.Unit() < kRowsShare ? kRowsClass : kPlanClass;
    request.id = (*next_id)++;
    schedule.push_back(request);
  }
  return schedule;
}

/// Quantile q of latencies in which an unanswered request is +inf, with
/// Quantile's interpolation, except that interpolating towards +inf gives
/// +inf (Quantile itself would compute inf - inf = NaN there). The result
/// is never NaN for a non-empty input, so it can be sorted and compared.
double LatencyQuantile(std::vector<double> latencies, double q) {
  if (latencies.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(latencies.begin(), latencies.end());
  const double pos = q * static_cast<double>(latencies.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 == latencies.size()) return latencies[lo];
  const double hi = latencies[lo + 1];
  return std::isinf(hi) ? hi : latencies[lo] + frac * (hi - latencies[lo]);
}

/// Latencies in us of one class; an unanswered request counts as +inf so
/// it misses every limit.
std::vector<double> Latencies(const std::vector<Outcome>& outcomes,
                              uint32_t cls) {
  std::vector<double> latencies;
  for (const Outcome& outcome : outcomes) {
    if (outcome.cls != cls) continue;
    latencies.push_back(outcome.done_ns < 0
                            ? std::numeric_limits<double>::infinity()
                            : outcome.LatencyUs());
  }
  return latencies;
}

double LateP99Us(const StepReport& report) {
  std::vector<double> late;
  late.reserve(report.outcomes.size());
  for (const Outcome& outcome : report.outcomes) {
    late.push_back(static_cast<double>(outcome.sent_ns - outcome.due_ns) / 1e3);
  }
  return late.empty() ? 0.0 : Quantile(late, 0.99);
}

/// p99 over the pooled requests of the better half (by own p99, at least
/// one) of the windows: pooled, so the 256-row class keeps ~10 samples
/// beyond its p99; from the quieter half, because host stalls come in
/// stretches of seconds (server.stall_windows still counts them).
double QuietP99(const std::vector<std::vector<double>>& windows) {
  std::vector<std::pair<double, size_t>> by_p99;  // (p99, window)
  for (size_t w = 0; w < windows.size(); ++w) {
    by_p99.emplace_back(LatencyQuantile(windows[w], 0.99), w);
  }
  std::sort(by_p99.begin(), by_p99.end());
  const size_t quieter = std::min(by_p99.size(),
                                  std::max<size_t>(1, by_p99.size() / 2));
  std::vector<double> pooled;
  for (size_t i = 0; i < quieter; ++i) {
    const std::vector<double>& window = windows[by_p99[i].second];
    pooled.insert(pooled.end(), window.begin(), window.end());
  }
  return LatencyQuantile(std::move(pooled), 0.99);
}

/// The nominal-rate windows of one pass, and what they add up to.
class NominalWindows {
 public:
  /// Records one window; a window whose generator ran late is invalid.
  void Add(const StepReport& report) {
    sent += report.sent();
    failed += report.failed();
    for (const Outcome& outcome : report.outcomes) {
      codec_us_.push_back(static_cast<double>(outcome.codec_ns) / 1e3);
      late_us_.push_back(static_cast<double>(outcome.sent_ns - outcome.due_ns) / 1e3);
    }
    const bool valid = LateP99Us(report) <= kMaxLateUs;
    valid_ += valid ? 1 : 0;
    ++windows_;
    for (uint32_t cls : {kPlanClass, kRowsClass}) {
      std::vector<double> latencies =
          Latencies(report.outcomes, cls);
      if (latencies.empty() || !valid) continue;
      p50_[cls].push_back(LatencyQuantile(latencies, 0.50));
      pooled_[cls].push_back(std::move(latencies));
    }
  }
  int valid() const { return valid_; }

  /// p50: the quieter quartile (25th percentile) of the valid windows'
  /// p50s. p99: QuietP99 over the valid windows.
  double P50(uint32_t cls) const { return LatencyQuantile(p50_[cls], 0.25); }
  double P99(uint32_t cls) const { return QuietP99(pooled_[cls]); }
  double LateP99() const { return Quantile(late_us_, 0.99); }
  double CodecUs() const { return Median(codec_us_); }
  /// Valid windows whose plan p50 was over 5x the median window's.
  int StallWindows() const {
    const double median = LatencyQuantile(p50_[kPlanClass], 0.5);
    int stalls = 0;
    for (double p50 : p50_[kPlanClass]) stalls += p50 > 5 * median ? 1 : 0;
    return stalls;
  }
  std::string Summary() const {
    char text[256];
    std::snprintf(text, sizeof(text),
                  "%d of %d windows valid, %d stalled, plan p50/p99 %.0f/%.0f "
                  "us, rows p50/p99 %.0f/%.0f us, late p99 %.1f us",
                  valid_, windows_, StallWindows(), P50(kPlanClass),
                  P99(kPlanClass), P50(kRowsClass), P99(kRowsClass), LateP99());
    return text;
  }

  size_t sent = 0, failed = 0;
  /// Server-side load over the windows: process CPU minus the generator
  /// thread's, wall time, and batcher counter deltas.
  double server_cpu_s = 0, wall_s = 0;
  BatcherStats batches;

 private:
  int windows_ = 0, valid_ = 0;
  std::vector<double> codec_us_, late_us_;
  std::vector<double> p50_[2];
  std::vector<std::vector<double>> pooled_[2];
};

/// Times the server-side codec and batch-inference calls a 256-row request
/// goes through, from outside, on real pool rows.
void TraceServerCalls(Context& ctx, double rows_per_batch) {
  const PlanPool& pool = ctx.pool;
  const size_t nf = pool.num_features;
  Rng rng(ctx.options.seed ^ 0x636f6465ULL);
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    PredictRowsRequest request;
    request.num_features = static_cast<uint32_t>(nf);
    for (size_t j = 0; j < kRowsPerRequest; ++j) {
      const size_t r = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.total_rows() - 1)));
      request.rows.insert(request.rows.end(), pool.row(r), pool.row(r) + nf);
      request.input_cardinalities.push_back(pool.cards[r]);
    }
    const Frame frame = EncodePredictRows(request);
    {
      ScopedSpan span(ctx.tracer, "server.decode_rows", i);
      if (!DecodePredictRows(frame).ok()) Fail("DecodePredictRows");
    }
    PredictResponse response;
    response.model_version = 1;
    response.predictions.assign(kRowsPerRequest, 1.0);
    ScopedSpan span(ctx.tracer, "server.encode_response", i);
    if (EncodeFrame(EncodePredictResponse(response)).empty()) Fail("EncodeFrame");
  }

  // PredictBatch at the batch size the server formed at the nominal rate.
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(rows_per_batch)));
  std::vector<double> rows(batch * nf), out(batch);
  std::vector<size_t> picked(batch);
  std::vector<double> per_row_ns;
  for (int i = 0; i < kFrames; ++i) {
    for (size_t j = 0; j < batch; ++j) {
      picked[j] = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.total_rows() - 1)));
      std::memcpy(rows.data() + j * nf, pool.row(picked[j]), nf * sizeof(double));
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(ctx.tracer, "treejit.batch", i);
      ctx.model->evaluator().PredictBatch(rows.data(), batch, nf, out.data());
    }
    per_row_ns.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(batch));
    for (size_t j = 0; j < batch; ++j) {
      if (!SameBits(out[j], pool.row_raw[picked[j]])) Fail("PredictBatch differs");
    }
  }
  ctx.report.Add("treejit.batch_row_ns", Median(per_row_ns), "ns");
}

}  // namespace

struct ServePath::State {
  std::unique_ptr<PredictionServer> server;
  std::unique_ptr<OpenLoopGenerator> generator;
  std::unique_ptr<Traffic> traffic;
  Rng rng{0};
  uint64_t next_id = 0;
  OpenLoopGenerator::EncodeFn encode;
  OpenLoopGenerator::CheckFn check;
  double max_rate = 0.0;
  size_t sent = 0, failed = 0;  ///< Over every window and ladder step.

  StepReport Step(double rate, double seconds) {
    const std::vector<ScheduledRequest> schedule =
        Schedule(rate, seconds, rng, &next_id);
    const ScopedAffinity generator_cpu(ScopedAffinity::kLast);
    return generator->RunStep(schedule, kDrainNs, encode, check);
  }

  /// Adds `windows` valid windows (at most twice as many in all) to `into`.
  void RunWindows(int windows, NominalWindows* into) {
    const BatcherStats before = server->stats().batcher;
    const double cpu_before = ProcessCpuSeconds();
    const double thread_before = ThreadCpuSeconds();
    const int64_t wall_before = NowNs();
    const int valid_before = into->valid();
    for (int w = 0; w < 2 * windows && into->valid() - valid_before < windows; ++w) {
      into->Add(Step(kNominalRps, kWindowSeconds));
    }
    const BatcherStats after = server->stats().batcher;
    into->wall_s += static_cast<double>(NowNs() - wall_before) / 1e9;
    into->server_cpu_s += (ProcessCpuSeconds() - cpu_before) -
                          (ThreadCpuSeconds() - thread_before);
    into->batches.jobs += after.jobs - before.jobs;
    into->batches.rows += after.rows - before.rows;
    into->batches.batches += after.batches - before.batches;
  }

  /// One ladder step; true when it passes. Passing needs both classes'
  /// p99 under the limit (unanswered requests count as misses), no
  /// backlog growth, and a generator that kept to its schedule (a late
  /// generator makes the step invalid rather than a miss).
  bool LadderStep(int k, double rate) {
    const StepReport report = Step(rate, kStepSeconds);
    sent += report.sent();
    failed += report.failed();
    const double late = LateP99Us(report);
    const std::vector<double> plan =
        Latencies(report.outcomes, kPlanClass);
    const std::vector<double> rows =
        Latencies(report.outcomes, kRowsClass);
    const double plan_p99 = LatencyQuantile(plan, 0.99);
    const double rows_p99 = LatencyQuantile(rows, 0.99);
    const bool backlog_grew =
        report.outstanding_at_last_send >
        16 + static_cast<size_t>(0.02 * static_cast<double>(report.sent()));
    const char* verdict = "pass";
    if (late > kMaxLateUs) {
      verdict = "invalid";
    } else if (!(plan_p99 <= kP99LimitUs) || !(rows_p99 <= kP99LimitUs) ||
               backlog_grew) {
      verdict = "miss";
    }
    std::fprintf(stderr,
                 "{\"ladder_step\": %d, \"rate_rps\": %.1f, \"sent\": %zu, "
                 "\"succeeded\": %zu, \"failed\": %zu, \"late_p99_us\": %.1f, "
                 "\"plan_p50_us\": %.1f, \"plan_p99_us\": %.1f, "
                 "\"rows_p50_us\": %.1f, \"rows_p99_us\": %.1f, "
                 "\"outstanding_at_last_send\": %zu, \"verdict\": \"%s\"}\n",
                 k, rate, report.sent(), report.succeeded(), report.failed(),
                 late, LatencyQuantile(plan, 0.5), plan_p99,
                 LatencyQuantile(rows, 0.5), rows_p99, report.outstanding_at_last_send, verdict);
    return std::strcmp(verdict, "pass") == 0;
  }
};

ServePath::ServePath(Context& ctx) : ctx_(ctx), state_(new State()) {
  State& st = *state_;
  // The server's threads may use every CPU but the last, and the busy
  // generator runs on the last one (ScopedAffinity::kLast around each
  // step), so the scheduler never queues a woken server thread behind
  // the spinning generator.
  Result<std::unique_ptr<PredictionServer>> server = [&] {
    const ScopedAffinity server_cpus(ScopedAffinity::kAllButLast);
    return PredictionServer::Start(ctx.model, ServerOptions());
  }();
  if (!server.ok()) Fail("server: %s", server.status().ToString().c_str());
  st.server = *std::move(server);
  Result<std::unique_ptr<OpenLoopGenerator>> generator =
      OpenLoopGenerator::Connect("127.0.0.1", st.server->port());
  if (!generator.ok()) Fail("connect: %s", generator.status().ToString().c_str());
  st.generator = *std::move(generator);
  st.traffic = std::make_unique<Traffic>(ctx);
  st.rng = Rng(ctx.options.seed ^ 0x73657276ULL);
  st.encode = [this](const ScheduledRequest& request, std::vector<uint8_t>* out) {
    ScopedSpan span(ctx_.tracer, "gen.encode", request.id);
    state_->traffic->Encode(request, out);
  };
  st.check = [this](const ScheduledRequest& request, const Frame& frame) {
    ScopedSpan span(ctx_.tracer, "gen.check", request.id);
    return state_->traffic->Check(request, frame);
  };
  ctx_.tracer.set_paused(true);  // The warm-up is never traced.
  st.Step(kNominalRps, kWarmupSeconds);
  ctx_.tracer.set_paused(false);
}

ServePath::~ServePath() {
  if (state_->server != nullptr) state_->server->Stop();
}

void ServePath::Climb() {
  // A step fails when kStepAttempts runs of it in a row do not pass, so a
  // host hiccup (this runs on shared VMs) does not end the climb early.
  double max_rate = 0.0;
  for (int k = 0;; ++k) {
    const double rate = kLadderBaseRps * std::pow(kLadderGrowth, k);
    bool passed = false;
    for (int attempt = 0; attempt < kStepAttempts && !passed; ++attempt) {
      passed = state_->LadderStep(k, rate);
    }
    if (!passed) break;
    max_rate = rate;
    if (rate >= kLadderTopRps) break;
  }
  state_->max_rate = std::max(state_->max_rate, max_rate);
}

void ServePath::Trace(int windows) {
  // Spans around the generator's codec calls cost the generator thread
  // time; the untraced pass before the traced one measures that cost.
  NominalWindows untraced, traced;
  ctx_.tracer.set_paused(true);
  state_->RunWindows(windows, &untraced);
  ctx_.tracer.set_paused(false);
  state_->RunWindows(windows, &traced);
  std::fprintf(stderr, "serve untraced: %s\nserve traced: %s\n",
               untraced.Summary().c_str(), traced.Summary().c_str());
  // The latencies at the nominal rate, from the untraced pass.
  ctx_.report.Add("plan_req_p50_us", untraced.P50(kPlanClass), "us");
  ctx_.report.Add("plan_req_p99_us", untraced.P99(kPlanClass), "us");
  ctx_.report.Add("rows_req_p50_us", untraced.P50(kRowsClass), "us");
  ctx_.report.Add("rows_req_p99_us", untraced.P99(kRowsClass), "us");
  const double batches = static_cast<double>(traced.batches.batches);
  const double rows_per_batch = static_cast<double>(traced.batches.rows) / batches;
  ctx_.report.Add("server.client_codec_us", traced.CodecUs(), "us");
  ctx_.report.Add("server.rows_per_batch", rows_per_batch, "count");
  ctx_.report.Add("server.jobs_per_batch",
                  static_cast<double>(traced.batches.jobs) / batches, "count");
  ctx_.report.Add("server.cpu_cores", traced.server_cpu_s / traced.wall_s, "cores");
  ctx_.report.Add("gen.late_us_p99", traced.LateP99(), "us");
  ctx_.report.Add("server.stall_windows", traced.StallWindows(), "count");
  const double base = untraced.P50(kPlanClass);
  ctx_.report.Add("server.trace_overhead_pct",
                  100.0 * (traced.P50(kPlanClass) - base) / base, "%");
  state_->sent += untraced.sent + traced.sent;
  state_->failed += untraced.failed + traced.failed;
  TraceServerCalls(ctx_, rows_per_batch);
  // One untraced climb: at the top of the ladder spans would fill the
  // tracer's budget in a few steps.
  ctx_.tracer.set_paused(true);
  Climb();
  ctx_.tracer.set_paused(false);
  ctx_.report.Add("max_rate_rps", state_->max_rate, "req/s");
}

void ServePath::Finish() {
  State& st = *state_;
  if (!st.generator->Drain(5 * kDrainNs, st.check)) {
    Fail("serve: answers missing or wrong after the run");
  }
  const ServerStats stats = st.server->stats();
  st.server->Stop();
  if (stats.protocol_errors != 0) {
    Fail("server counted %llu protocol errors",
         static_cast<unsigned long long>(stats.protocol_errors));
  }
  ctx_.report.Add("server.max_batch_rows",
                  static_cast<double>(stats.batcher.max_batch_rows_seen), "count");
  ctx_.report.Add("server.protocol_errors",
                  static_cast<double>(stats.protocol_errors), "count");
  ctx_.report.Add("server.requests",
                  static_cast<double>(st.sent), "count");
  ctx_.report.Add("server.failed",
                  static_cast<double>(st.failed), "count");
}

}  // namespace t3::perfbench

#ifndef T3_PERFBENCH_GENERATOR_H_
#define T3_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "server/protocol.h"

namespace t3::perfbench {

/// One request of an arrival schedule. `due_ns` is relative to the start
/// of the step that runs the schedule.
struct ScheduledRequest {
  int64_t due_ns = 0;
  uint32_t cls = 0;  ///< Request class, opaque to the generator.
  uint64_t id = 0;   ///< Caller's key for building and checking the request.
};

/// What happened to one scheduled request. Latency is measured from the
/// time the request was due, not from when it was sent, so a stall that
/// delays later sends is charged to every request it delays (no
/// coordinated omission).
struct Outcome {
  int64_t due_ns = 0;    ///< Absolute (NowNs clock).
  int64_t sent_ns = 0;   ///< Absolute; sent_ns - due_ns is the lateness.
  int64_t done_ns = -1;  ///< Absolute; -1 = unanswered when the step ended.
  int64_t codec_ns = 0;  ///< Generator-side encode + response check time.
  uint32_t cls = 0;
  bool ok = false;       ///< Answered, and the answer passed the check.

  double LatencyUs() const { return static_cast<double>(done_ns - due_ns) / 1e3; }
};

/// Result of one step: outcomes in schedule order plus backlog evidence.
struct StepReport {
  std::vector<Outcome> outcomes;
  /// Requests sent but unanswered at the moment the last one was sent.
  size_t outstanding_at_last_send = 0;

  size_t sent() const { return outcomes.size(); }
  size_t succeeded() const;
  size_t failed() const { return sent() - succeeded(); }
};

/// Open-loop load generator: one thread, one non-blocking connection,
/// busy polling (a generator that sleeps between sends runs milliseconds
/// late). Responses are matched to requests in FIFO order, as the t3p1
/// protocol guarantees for prediction requests on one connection.
class OpenLoopGenerator {
 public:
  /// Appends the wire bytes of one request to `out`.
  using EncodeFn =
      std::function<void(const ScheduledRequest&, std::vector<uint8_t>* out)>;
  /// True when `response` is the correct answer to the request.
  using CheckFn = std::function<bool(const ScheduledRequest&, const Frame&)>;

  static Result<std::unique_ptr<OpenLoopGenerator>> Connect(
      const std::string& host, uint16_t port);

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Sends every request at its due time (relative to now) and receives
  /// until all are answered or `drain_ns` has passed since the last due
  /// time. Requests still unanswered then are failed; their late answers
  /// are still read and checked during later steps or Drain().
  StepReport RunStep(const std::vector<ScheduledRequest>& schedule,
                     int64_t drain_ns, const EncodeFn& encode,
                     const CheckFn& check);

  /// Waits up to `timeout_ns` for every outstanding answer; false when
  /// some never came or a late answer failed its check.
  bool Drain(int64_t timeout_ns, const CheckFn& check);

 private:
  struct Pending {
    uint64_t step = 0;
    size_t index = 0;  ///< Position in that step's schedule.
    ScheduledRequest request;
  };

  explicit OpenLoopGenerator(ScopedFd fd) : fd_(std::move(fd)) {}

  /// Flushes output and reads every complete response; false on a
  /// connection failure.
  bool Service(const CheckFn& check, StepReport* report);

  ScopedFd fd_;
  std::vector<uint8_t> out_;
  size_t out_offset_ = 0;
  std::vector<uint8_t> in_;
  std::deque<Pending> pending_;
  std::vector<uint8_t> read_buffer_ = std::vector<uint8_t>(64 << 10);
  uint64_t step_ = 0;
  size_t answered_in_step_ = 0;
  uint64_t stale_failures_ = 0;
  bool broken_ = false;
};

}  // namespace t3::perfbench

#endif  // T3_PERFBENCH_GENERATOR_H_

// Checks that the open-loop generator reports latency from due time: a
// stub server answers one connection FIFO with a fixed service time, so
// the latency of every request is fixed by the schedule alone. A
// closed-loop generator (one request in flight) would report the bare
// service time for every request of a burst; one that timed from send
// would report the bare round trip for the requests it sent late.
//
// Exit status 0 when every reported latency matches, 1 otherwise.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/socket.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "common/net.h"
#include "generator.h"
#include "server/protocol.h"
#include "trace.h"

namespace t3::perfbench {
namespace {

constexpr int64_t kMs = 1000000;
/// Clock slack below the schedule-implied latency.
constexpr int64_t kEarlyNs = 200000;
/// Loopback and scheduling only ever add time, and on a shared machine a
/// thread can lose a few ms; the lower bounds are the ones that catch
/// coordinated omission (it under-reports by whole service times).
constexpr int64_t kLateNs = 10 * kMs;

int failures = 0;

void Expect(bool ok, const char* what, size_t index, double got_ms,
            double want_ms) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s request %zu: got %.3f ms, want %.3f ms\n",
               what, index, got_ms, want_ms);
}

/// The reported latency must be at least what the schedule implies with
/// the nominal service time (`want`), and must match the stub's actual
/// answer time: a generator that timed from send would report less.
void ExpectLatency(const Outcome& o, const std::vector<int64_t>& answered,
                   size_t i, int64_t want, const char* what) {
  const int64_t got = o.done_ns - o.due_ns;
  Expect(o.ok && got >= want - kEarlyNs, what, i, got / 1e6, want / 1e6);
  if (i >= answered.size()) {
    Expect(false, "unanswered", i, 0, want / 1e6);
    return;
  }
  const int64_t actual = answered[i] - o.due_ns;
  Expect(got >= actual && got <= actual + kLateNs, what, i, got / 1e6,
         actual / 1e6);
}

void SpinFor(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

/// Serves `requests` frames on one accepted connection, one at a time,
/// each taking `service_ns`; a request that arrives while the stub is busy
/// waits in the socket, which makes the queue FIFO with one server.
void Stub(int listener, size_t requests, int64_t service_ns,
          std::vector<int64_t>* answered_ns) {
  ScopedFd conn(::accept(listener, nullptr, nullptr));
  if (!conn.ok()) return;
  const int one = 1;  // As the real server does: no Nagle delay on answers.
  (void)::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  PredictResponse response;
  response.model_version = 1;
  response.predictions = {0.0};
  const std::vector<uint8_t> answer = EncodeFrame(EncodePredictResponse(response));
  for (size_t i = 0; i < requests; ++i) {
    uint8_t header[kFrameHeaderBytes];
    if (!ReadFull(conn.get(), header, sizeof(header)).ok()) return;
    Result<FrameHeader> decoded = DecodeFrameHeader(header);
    if (!decoded.ok()) return;
    std::vector<uint8_t> payload(decoded->payload_size);
    if (!payload.empty() && !ReadFull(conn.get(), payload.data(), payload.size()).ok()) {
      return;
    }
    SpinFor(service_ns);
    answered_ns->push_back(NowNs());
    if (!WriteFull(conn.get(), answer.data(), answer.size()).ok()) return;
  }
}

/// Runs `schedule` against a fresh stub; `stall_ns` > 0 blocks the
/// generator inside the first request's encode, as a descheduled
/// generator thread would. `answered_ns` receives the stub's answer times.
StepReport Run(const std::vector<ScheduledRequest>& schedule,
               int64_t service_ns, int64_t stall_ns,
               std::vector<int64_t>* answered_ns) {
  Result<ScopedFd> listener = ListenTcp("127.0.0.1", 0);
  Result<uint16_t> port = listener.ok() ? LocalPort(listener->get())
                                        : Result<uint16_t>(listener.status());
  if (!port.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", port.status().ToString().c_str());
    std::exit(1);
  }
  // ListenTcp makes the listener non-blocking; the stub accepts blocking.
  ::fcntl(listener->get(), F_SETFL,
          ::fcntl(listener->get(), F_GETFL) & ~O_NONBLOCK);
  std::thread stub(Stub, listener->get(), schedule.size(), service_ns,
                   answered_ns);
  Result<std::unique_ptr<OpenLoopGenerator>> generator =
      OpenLoopGenerator::Connect("127.0.0.1", *port);
  if (!generator.ok()) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 generator.status().ToString().c_str());
    std::exit(1);
  }
  const auto encode = [stall_ns](const ScheduledRequest& request,
                                 std::vector<uint8_t>* out) {
    if (request.id == 0 && stall_ns > 0) SpinFor(stall_ns);
    const std::vector<uint8_t> bytes =
        EncodeFrame(EncodeTextFrame(MessageType::kPredictPlan, "stub"));
    out->insert(out->end(), bytes.begin(), bytes.end());
  };
  const auto check = [](const ScheduledRequest&, const Frame& frame) {
    return frame.type == MessageType::kPredictOk;
  };
  StepReport report = (*generator)->RunStep(schedule, 2000 * kMs, encode, check);
  stub.join();
  return report;
}

/// A burst of 8 requests due at once, then 8 spaced wider than the service
/// time: the burst queues (latency (j+1) * service), the spaced ones do not.
void BurstQueuesBehindService() {
  const int64_t service = 5 * kMs;
  std::vector<ScheduledRequest> schedule;
  for (uint64_t j = 0; j < 8; ++j) schedule.push_back({10 * kMs, 0, j});
  for (uint64_t j = 0; j < 8; ++j) {
    schedule.push_back({100 * kMs + static_cast<int64_t>(j) * 3 * service, 0, 8 + j});
  }
  std::vector<int64_t> answered;
  const StepReport report = Run(schedule, service, 0, &answered);
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const int64_t want = i < 8 ? static_cast<int64_t>(i + 1) * service : service;
    ExpectLatency(report.outcomes[i], answered, i, want, "burst");
  }
}

/// The generator stalls 20 ms inside the first encode while 10 requests
/// fall due 1 ms apart: each is sent late, and its latency still counts
/// from its due time — the stall plus the queue it built.
void GeneratorStallIsCharged() {
  const int64_t service = 1 * kMs, stall = 20 * kMs;
  std::vector<ScheduledRequest> schedule;
  for (uint64_t j = 0; j < 10; ++j) {
    schedule.push_back({static_cast<int64_t>(j) * kMs, 0, j});
  }
  std::vector<int64_t> answered;
  const StepReport report = Run(schedule, service, stall, &answered);
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const Outcome& o = report.outcomes[i];
    // Request i waits for the stall, then behind i earlier requests.
    const int64_t want = stall + static_cast<int64_t>(i + 1) * service -
                         static_cast<int64_t>(i) * kMs;
    ExpectLatency(o, answered, i, want, "stall");
    const int64_t late = o.sent_ns - o.due_ns;
    const int64_t want_late = i == 0 ? 0 : stall - static_cast<int64_t>(i) * kMs;
    Expect(late >= want_late - kEarlyNs && late <= want_late + kLateNs, "lateness",
           i, late / 1e6, want_late / 1e6);
  }
}

}  // namespace
}  // namespace t3::perfbench

int main() {
  if (!t3::IgnoreSigPipe().ok()) return 1;
  t3::perfbench::BurstQueuesBehindService();
  t3::perfbench::GeneratorStallIsCharged();
  if (t3::perfbench::failures != 0) return 1;
  std::printf("generator_test: ok\n");
  return 0;
}

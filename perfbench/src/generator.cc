#include "generator.h"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "trace.h"

namespace t3::perfbench {

size_t StepReport::succeeded() const {
  size_t count = 0;
  for (const Outcome& outcome : outcomes) count += outcome.ok ? 1 : 0;
  return count;
}

Result<std::unique_ptr<OpenLoopGenerator>> OpenLoopGenerator::Connect(
    const std::string& host, uint16_t port) {
  Result<ScopedFd> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  const Status nonblocking = SetNonBlocking(fd->get());
  if (!nonblocking.ok()) return nonblocking;
  return std::unique_ptr<OpenLoopGenerator>(
      new OpenLoopGenerator(*std::move(fd)));
}

bool OpenLoopGenerator::Service(const CheckFn& check, StepReport* report) {
  while (out_offset_ < out_.size()) {
    const ssize_t n =
        ::send(fd_.get(), out_.data() + out_offset_, out_.size() - out_offset_,
               MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  }

  bool connection_failed = false;
  while (true) {
    const ssize_t n = ::recv(fd_.get(), read_buffer_.data(),
                             read_buffer_.size(), MSG_DONTWAIT);
    if (n > 0) {
      in_.insert(in_.end(), read_buffer_.begin(), read_buffer_.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer closed or failed: answers already read still count, every
    // later one is lost.
    connection_failed = true;
    break;
  }

  size_t pos = 0;
  while (in_.size() - pos >= kFrameHeaderBytes) {
    Result<FrameHeader> header = DecodeFrameHeader(in_.data() + pos);
    if (!header.ok()) return false;
    const size_t frame_bytes = kFrameHeaderBytes + header->payload_size;
    if (in_.size() - pos < frame_bytes) break;
    const int64_t done_ns = NowNs();
    if (pending_.empty()) return false;  // An answer nobody asked for.
    const Pending pending = pending_.front();
    pending_.pop_front();
    Frame frame;
    frame.type = header->type;
    frame.payload.assign(in_.begin() + static_cast<ptrdiff_t>(pos + kFrameHeaderBytes),
                         in_.begin() + static_cast<ptrdiff_t>(pos + frame_bytes));
    pos += frame_bytes;
    const bool ok = check(pending.request, frame);
    if (pending.step == step_ && report != nullptr) {
      Outcome& outcome = report->outcomes[pending.index];
      outcome.done_ns = done_ns;
      outcome.ok = ok;
      outcome.codec_ns += NowNs() - done_ns;
      ++answered_in_step_;
    } else if (!ok) {
      ++stale_failures_;
    }
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(pos));
  return !connection_failed;
}

StepReport OpenLoopGenerator::RunStep(
    const std::vector<ScheduledRequest>& schedule, int64_t drain_ns,
    const EncodeFn& encode, const CheckFn& check) {
  StepReport report;
  report.outcomes.resize(schedule.size());
  if (broken_) return report;  // Every request fails.
  ++step_;
  answered_in_step_ = 0;
  const int64_t start = NowNs();
  const int64_t last_due =
      start + (schedule.empty() ? 0 : schedule.back().due_ns);
  size_t next = 0;
  while (true) {
    while (next < schedule.size() &&
           start + schedule[next].due_ns <= NowNs()) {
      const ScheduledRequest& request = schedule[next];
      Outcome& outcome = report.outcomes[next];
      outcome.due_ns = start + request.due_ns;
      outcome.cls = request.cls;
      outcome.sent_ns = NowNs();
      encode(request, &out_);
      outcome.codec_ns = NowNs() - outcome.sent_ns;
      pending_.push_back(Pending{step_, next, request});
      ++next;
      if (next == schedule.size()) {
        report.outstanding_at_last_send = pending_.size();
      }
    }
    if (!Service(check, &report)) {
      broken_ = true;
      break;
    }
    if (next == schedule.size() &&
        (answered_in_step_ == schedule.size() ||
         NowNs() > last_due + drain_ns)) {
      break;
    }
  }
  return report;
}

bool OpenLoopGenerator::Drain(int64_t timeout_ns, const CheckFn& check) {
  ++step_;  // Everything still pending now belongs to an earlier step.
  const int64_t deadline = NowNs() + timeout_ns;
  while (!broken_ && !pending_.empty() && NowNs() < deadline) {
    if (!Service(check, nullptr)) broken_ = true;
  }
  return !broken_ && pending_.empty() && stale_failures_ == 0;
}

}  // namespace t3::perfbench

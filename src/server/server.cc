#include "server/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "server/plan_features.h"

namespace t3 {
namespace {

constexpr int kPollTimeoutMs = 100;
constexpr double kDrainDeadlineSeconds = 5.0;

}  // namespace

/// Per-connection state. The owning worker's loop thread is the only
/// mutator of the buffers below the fence comment; `ready`, `dead`, and
/// `in_flight` are the cross-thread handoff with the batcher's inference
/// loop (responses enqueue under `ready_mu`, then the worker moves them
/// into `out`).
struct PredictionServer::Connection {
  ScopedFd fd;

  // Worker-thread-owned.
  std::vector<uint8_t> in;   ///< Unparsed request bytes.
  size_t parse_pos = 0;
  std::deque<std::vector<uint8_t>> out;  ///< Encoded frames to write.
  size_t out_offset = 0;     ///< Bytes of out.front() already written.
  bool close_after_flush = false;

  // Shared with the inference loop.
  std::mutex ready_mu;
  std::vector<std::vector<uint8_t>> ready;  ///< Completed responses.
  std::atomic<bool> dead{false};
  std::atomic<int> in_flight{0};
};

struct PredictionServer::Worker {
  size_t index = 0;
  ScopedFd wake_read;
  ScopedFd wake_write;
  std::vector<std::shared_ptr<Connection>> conns;
};

PredictionServer::PredictionServer(
    std::shared_ptr<const ServingModel> initial, ServerOptions options)
    : options_(std::move(options)),
      registry_(std::move(initial)),
      batcher_(&registry_) {}

PredictionServer::~PredictionServer() { Stop(); }

Result<std::unique_ptr<PredictionServer>> PredictionServer::Start(
    std::shared_ptr<const ServingModel> initial, ServerOptions options) {
  if (initial == nullptr) {
    return InvalidArgumentError("prediction server needs an initial model");
  }
  Status sigpipe = IgnoreSigPipe();
  if (!sigpipe.ok()) return sigpipe;

  std::unique_ptr<PredictionServer> server(
      new PredictionServer(std::move(initial), std::move(options)));
  Result<ScopedFd> listener =
      ListenTcp(server->options_.host, server->options_.port);
  if (!listener.ok()) return listener.status();
  server->listener_ = *std::move(listener);
  Result<uint16_t> port = LocalPort(server->listener_.get());
  if (!port.ok()) return port.status();
  server->port_ = *port;

  size_t num_workers = server->options_.num_workers;
  if (num_workers == 0) {
    num_workers = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  }
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      return UnavailableError(StrFormat("pipe: %s", std::strerror(errno)));
    }
    worker->wake_read = ScopedFd(pipe_fds[0]);
    worker->wake_write = ScopedFd(pipe_fds[1]);
    Status status = SetNonBlocking(worker->wake_read.get());
    if (status.ok()) status = SetNonBlocking(worker->wake_write.get());
    if (!status.ok()) return status;
    server->workers_.push_back(std::move(worker));
  }

  // Workers + the batcher's inference loop all run on one pool.
  server->pool_ = std::make_unique<ThreadPool>(num_workers + 1);
  server->batcher_.Start(server->pool_.get());
  for (auto& worker : server->workers_) {
    Worker* raw = worker.get();
    server->pool_->Submit([server = server.get(), raw] {
      server->WorkerLoop(raw);
    });
  }
  return server;
}

void PredictionServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    stop_requested_cv_.wait(lock, [this] { return stop_requested_; });
  }
  Stop();
}

void PredictionServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_requested_ = true;
    stop_requested_cv_.notify_all();
  }
  std::lock_guard<std::mutex> teardown(teardown_mu_);
  if (workers_joined_) return;
  stopping_.store(true, std::memory_order_release);
  // Drain first: every accepted request gets its prediction computed and
  // its response enqueued before the workers run their final flush.
  batcher_.Stop();
  for (auto& worker : workers_) {
    const uint8_t byte = 1;
    (void)!::write(worker->wake_write.get(), &byte, 1);
  }
  pool_->Wait();
  workers_joined_ = true;
  listener_.Reset();
}

Result<uint32_t> PredictionServer::SwapFromFile(const std::string& path) {
  return registry_.SwapFromFile(path);
}

ServerStats PredictionServer::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.predict_requests = predict_requests_.load(std::memory_order_relaxed);
  stats.rows_predicted = rows_predicted_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.batcher = batcher_.stats();
  stats.model_version = registry_.Current()->version;
  return stats;
}

std::string PredictionServer::StatsText() const {
  const ServerStats stats = this->stats();
  const std::shared_ptr<const ServingModel> model = registry_.Current();
  std::string text;
  text += StrFormat("model_version %u\n", stats.model_version);
  text += StrFormat("model_source %s\n", model->source.c_str());
  text += StrFormat("model_features %d\n", model->num_features());
  text += StrFormat("model_trees %zu\n", model->model.forest().trees.size());
  text += StrFormat("row_evaluator %s\n", model->evaluator_name());
  text += StrFormat("workers %zu\n", workers_.size());
  text += StrFormat("connections_accepted %llu\n",
                    static_cast<unsigned long long>(
                        stats.connections_accepted));
  text += StrFormat("predict_requests %llu\n",
                    static_cast<unsigned long long>(stats.predict_requests));
  text += StrFormat("rows_predicted %llu\n",
                    static_cast<unsigned long long>(stats.rows_predicted));
  text += StrFormat("protocol_errors %llu\n",
                    static_cast<unsigned long long>(stats.protocol_errors));
  text += StrFormat("batches %llu\n",
                    static_cast<unsigned long long>(stats.batcher.batches));
  text += StrFormat("rows_per_batch %.2f\n", stats.batcher.RowsPerBatch());
  text += StrFormat("max_batch_rows_seen %llu\n",
                    static_cast<unsigned long long>(
                        stats.batcher.max_batch_rows_seen));
  text += StrFormat("model_swaps %u\n", registry_.num_swaps());
  return text;
}

namespace {

void WakeWorker(int wake_write_fd) {
  const uint8_t byte = 1;
  // A full pipe already holds a pending wake; EAGAIN is success here.
  (void)!::write(wake_write_fd, &byte, 1);
}

void DrainWakePipe(int wake_read_fd) {
  uint8_t buffer[256];
  while (::read(wake_read_fd, buffer, sizeof(buffer)) > 0) {
  }
}

}  // namespace

void PredictionServer::SendFrame(Worker* worker,
                                 const std::shared_ptr<Connection>& conn,
                                 const Frame& frame) {
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  {
    std::lock_guard<std::mutex> lock(conn->ready_mu);
    if (conn->dead.load(std::memory_order_relaxed)) return;
    conn->ready.push_back(std::move(bytes));
  }
  WakeWorker(worker->wake_write.get());
}

void PredictionServer::FinishPredict(
    Worker* worker, const std::shared_ptr<Connection>& conn,
    std::vector<double> cardinalities, bool sum_to_one,
    Result<RequestBatcher::Reply> reply) {
  if (!reply.ok()) {
    SendFrame(worker, conn, EncodeErrorResponse(reply.status()));
  } else if (sum_to_one &&
             reply->model->model.target() == PredictionTarget::kPerQuery) {
    // A per-query model was trained on summed query vectors
    // (SummedQueryFeatures), so summing its per-pipeline outputs would
    // answer with a number it was never trained to produce.
    SendFrame(worker, conn,
              EncodeErrorResponse(FailedPreconditionError(StrFormat(
                  "plan requests need a per-tuple or per-pipeline model; "
                  "the served model %s (version %u) has the per-query "
                  "target",
                  reply->model->source.c_str(), reply->model->version))));
  } else {
    const ServingModel& model = *reply->model;
    PredictResponse response;
    response.model_version = model.version;
    if (sum_to_one) {
      // Plan request: pipeline predictions summed left to right, the
      // PredictQuerySeconds convention.
      double total = 0.0;
      for (size_t i = 0; i < reply->raw.size(); ++i) {
        total += model.RowSeconds(reply->raw[i], cardinalities[i]);
      }
      response.predictions.push_back(total);
    } else {
      response.predictions.reserve(reply->raw.size());
      for (size_t i = 0; i < reply->raw.size(); ++i) {
        response.predictions.push_back(
            model.RowSeconds(reply->raw[i], cardinalities[i]));
      }
    }
    SendFrame(worker, conn, EncodePredictResponse(response));
  }
  conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  WakeWorker(worker->wake_write.get());
}

void PredictionServer::HandleFrame(Worker* worker,
                                   const std::shared_ptr<Connection>& conn,
                                   MessageType type,
                                   std::vector<uint8_t> payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);

  switch (type) {
    case MessageType::kPredictRows: {
      Result<PredictRowsRequest> request = DecodePredictRows(frame);
      if (!request.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendFrame(worker, conn, EncodeErrorResponse(request.status()));
        return;
      }
      predict_requests_.fetch_add(1, std::memory_order_relaxed);
      rows_predicted_.fetch_add(request->num_rows(),
                                std::memory_order_relaxed);
      const size_t num_rows = request->num_rows();
      std::vector<double> cards = std::move(request->input_cardinalities);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      batcher_.Submit(
          std::move(request->rows), num_rows,
          [this, worker, conn, cards = std::move(cards)](
              Result<RequestBatcher::Reply> reply) mutable {
            FinishPredict(worker, conn, std::move(cards),
                          /*sum_to_one=*/false, std::move(reply));
          });
      return;
    }
    case MessageType::kPredictPlan: {
      const std::string_view text(
          reinterpret_cast<const char*>(frame.payload.data()),
          frame.payload.size());
      Result<PlanPredictionInput> input = BuildPlanPredictionInput(text);
      if (!input.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendFrame(worker, conn, EncodeErrorResponse(input.status()));
        return;
      }
      predict_requests_.fetch_add(1, std::memory_order_relaxed);
      rows_predicted_.fetch_add(input->num_rows(),
                                std::memory_order_relaxed);
      const size_t num_rows = input->num_rows();
      std::vector<double> cards = std::move(input->input_cardinalities);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      batcher_.Submit(
          std::move(input->rows), num_rows,
          [this, worker, conn, cards = std::move(cards)](
              Result<RequestBatcher::Reply> reply) mutable {
            FinishPredict(worker, conn, std::move(cards),
                          /*sum_to_one=*/true, std::move(reply));
          });
      return;
    }
    case MessageType::kSwapModel: {
      std::string path(reinterpret_cast<const char*>(frame.payload.data()),
                       frame.payload.size());
      if (path.empty()) path = options_.default_swap_path;
      if (path.empty()) {
        SendFrame(worker, conn,
                  EncodeErrorResponse(FailedPreconditionError(
                      "swap request without a path and no default "
                      "configured")));
        return;
      }
      Result<uint32_t> version = SwapFromFile(path);
      if (!version.ok()) {
        SendFrame(worker, conn, EncodeErrorResponse(version.status()));
        return;
      }
      std::fprintf(stderr, "t3 server: hot-swapped to %s (version %u)\n",
                   path.c_str(), *version);
      SendFrame(worker, conn, EncodeSwapResponse(*version));
      return;
    }
    case MessageType::kStats: {
      SendFrame(worker, conn,
                EncodeTextFrame(MessageType::kStatsOk, StatsText()));
      return;
    }
    case MessageType::kShutdown: {
      if (!options_.allow_remote_shutdown) {
        SendFrame(worker, conn,
                  EncodeErrorResponse(FailedPreconditionError(
                      "remote shutdown is disabled")));
        return;
      }
      SendFrame(worker, conn,
                EncodeEmptyFrame(MessageType::kShutdownOk));
      conn->close_after_flush = true;
      std::lock_guard<std::mutex> lock(state_mu_);
      stop_requested_ = true;
      stop_requested_cv_.notify_all();
      return;
    }
    default: {
      // A response type sent as a request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendFrame(worker, conn,
                EncodeErrorResponse(InvalidArgumentError(StrFormat(
                    "message type %d is not a request",
                    static_cast<int>(type)))));
      conn->close_after_flush = true;
      return;
    }
  }
}

void PredictionServer::ExecuteQueuedSwap() {
  if (options_.default_swap_path.empty()) {
    std::fprintf(stderr,
                 "t3 server: swap requested but no default swap path is "
                 "configured; ignoring\n");
    return;
  }
  Result<uint32_t> version = SwapFromFile(options_.default_swap_path);
  if (version.ok()) {
    std::fprintf(stderr, "t3 server: hot-swapped to %s (version %u)\n",
                 options_.default_swap_path.c_str(), *version);
  } else {
    std::fprintf(stderr, "t3 server: hot swap failed: %s\n",
                 version.status().ToString().c_str());
  }
}

void PredictionServer::DrainReady(Connection* conn) {
  std::vector<std::vector<uint8_t>> batch;
  {
    std::lock_guard<std::mutex> lock(conn->ready_mu);
    batch.swap(conn->ready);
  }
  for (auto& bytes : batch) conn->out.push_back(std::move(bytes));
}

bool PredictionServer::FlushWrites(Connection* conn) {
  while (!conn->out.empty()) {
    const std::vector<uint8_t>& front = conn->out.front();
    const ssize_t n =
        ::send(conn->fd.get(), front.data() + conn->out_offset,
               front.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n >= 0) {
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == front.size()) {
        conn->out.pop_front();
        conn->out_offset = 0;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // EPIPE, ECONNRESET, ...: client is gone.
  }
  return true;
}

void PredictionServer::WorkerLoop(Worker* worker) {
  std::vector<pollfd> pfds;
  uint8_t read_buffer[64 * 1024];

  auto accept_all = [&] {
    for (;;) {
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: another worker won the race for this connection.
        return;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = ScopedFd(fd);
      if (!SetNonBlocking(fd).ok()) continue;  // ScopedFd closes it.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      worker->conns.push_back(std::move(conn));
    }
  };

  // Parses complete frames out of conn->in; returns false on a framing
  // error (error response queued, connection marked for close).
  auto parse_frames = [&](const std::shared_ptr<Connection>& conn) {
    while (!conn->close_after_flush) {
      const size_t available = conn->in.size() - conn->parse_pos;
      if (available < kFrameHeaderBytes) break;
      Result<FrameHeader> header =
          DecodeFrameHeader(conn->in.data() + conn->parse_pos);
      if (!header.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendFrame(worker, conn, EncodeErrorResponse(header.status()));
        conn->close_after_flush = true;
        break;
      }
      if (available < kFrameHeaderBytes + header->payload_size) break;
      const uint8_t* payload_begin =
          conn->in.data() + conn->parse_pos + kFrameHeaderBytes;
      std::vector<uint8_t> payload(payload_begin,
                                   payload_begin + header->payload_size);
      conn->parse_pos += kFrameHeaderBytes + header->payload_size;
      HandleFrame(worker, conn, header->type, std::move(payload));
    }
    if (conn->parse_pos > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<ptrdiff_t>(conn->parse_pos));
      conn->parse_pos = 0;
    }
  };

  // Reads until EAGAIN/EOF. Returns false when the socket errored hard.
  auto read_and_handle = [&](const std::shared_ptr<Connection>& conn) {
    for (;;) {
      const ssize_t n =
          ::read(conn->fd.get(), read_buffer, sizeof(read_buffer));
      if (n > 0) {
        conn->in.insert(conn->in.end(), read_buffer, read_buffer + n);
        if (static_cast<size_t>(n) < sizeof(read_buffer)) break;
        continue;
      }
      if (n == 0) {
        // Peer finished sending: answer what we have, then close.
        conn->close_after_flush = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    parse_frames(conn);
    return true;
  };

  auto reap = [&] {
    auto& conns = worker->conns;
    for (size_t i = 0; i < conns.size();) {
      Connection* conn = conns[i].get();
      // Read in_flight before ready: FinishPredict pushes the response
      // first and decrements after, so idle==true (acquire pairing with
      // the acq_rel decrement) guarantees every response is visible in
      // `ready` by the time we check it.
      const bool idle =
          conn->in_flight.load(std::memory_order_acquire) == 0;
      const bool flushed = conn->out.empty() && [&] {
        std::lock_guard<std::mutex> lock(conn->ready_mu);
        return conn->ready.empty();
      }();
      if ((conn->dead.load(std::memory_order_relaxed) && idle) ||
          (conn->close_after_flush && flushed && idle)) {
        conn->dead.store(true, std::memory_order_relaxed);
        conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto& conn : worker->conns) DrainReady(conn.get());
    for (auto& conn : worker->conns) {
      if (!conn->dead.load(std::memory_order_relaxed) &&
          !FlushWrites(conn.get())) {
        conn->dead.store(true, std::memory_order_relaxed);
      }
    }
    reap();

    pfds.clear();
    pfds.push_back({worker->wake_read.get(), POLLIN, 0});
    pfds.push_back({listener_.get(), POLLIN, 0});
    for (auto& conn : worker->conns) {
      short events = 0;
      if (!conn->close_after_flush) events |= POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd.get(), events, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;

    DrainWakePipe(worker->wake_read.get());
    if (worker->index == 0 &&
        swap_requested_.exchange(false, std::memory_order_acq_rel)) {
      ExecuteQueuedSwap();
    }
    // Freshly accepted connections are polled next iteration; only the
    // pfds-backed prefix of `conns` has revents to inspect.
    const size_t polled_conns = pfds.size() - 2;
    if (pfds[1].revents & POLLIN) accept_all();

    for (size_t i = 0; i < polled_conns; ++i) {
      const std::shared_ptr<Connection>& conn = worker->conns[i];
      const short revents = pfds[2 + i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->dead.store(true, std::memory_order_relaxed);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!read_and_handle(conn)) {
          conn->dead.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  // Drain phase: the batcher has been (or is being) drained; flush every
  // remaining response, bounded by a deadline so a stalled client cannot
  // wedge shutdown.
  Stopwatch drain_timer;
  for (;;) {
    for (auto& conn : worker->conns) DrainReady(conn.get());
    bool pending = false;
    for (auto& conn : worker->conns) {
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      if (!FlushWrites(conn.get())) {
        conn->dead.store(true, std::memory_order_relaxed);
        continue;
      }
      if (!conn->out.empty() ||
          conn->in_flight.load(std::memory_order_acquire) > 0) {
        pending = true;
      }
    }
    for (auto& conn : worker->conns) {
      std::lock_guard<std::mutex> lock(conn->ready_mu);
      if (!conn->ready.empty()) pending = true;
    }
    if (!pending || drain_timer.ElapsedSeconds() > kDrainDeadlineSeconds) {
      break;
    }
    pfds.clear();
    pfds.push_back({worker->wake_read.get(), POLLIN, 0});
    for (auto& conn : worker->conns) {
      if (!conn->out.empty() &&
          !conn->dead.load(std::memory_order_relaxed)) {
        pfds.push_back({conn->fd.get(), POLLOUT, 0});
      }
    }
    (void)::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    DrainWakePipe(worker->wake_read.get());
  }
  for (auto& conn : worker->conns) {
    conn->dead.store(true, std::memory_order_relaxed);
  }
  worker->conns.clear();
}

}  // namespace t3

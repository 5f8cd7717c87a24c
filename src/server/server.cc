#include "server/server.h"

#include <algorithm>
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

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "server/plan_features.h"

namespace t3 {
namespace {

constexpr int kPollTimeoutMs = 100;
constexpr double kDrainDeadlineSeconds = 5.0;

}  // namespace

/// Per-connection state, touched only by the worker that accepted the
/// connection: it reads, predicts and writes in one thread, so responses
/// are queued in request order.
struct PredictionServer::Connection {
  ScopedFd fd;
  std::vector<uint8_t> in;   ///< Unparsed request bytes.
  size_t parse_pos = 0;
  std::deque<std::vector<uint8_t>> out;  ///< Encoded frames to write.
  size_t out_offset = 0;     ///< Bytes of out.front() already written.
  bool close_after_flush = false;
  bool dead = false;

  void Send(const Frame& frame) { out.push_back(EncodeFrame(frame)); }
};

struct PredictionServer::Worker {
  size_t index = 0;
  /// Written by Stop() so a worker blocked in poll() exits promptly.
  ScopedFd wake_read;
  ScopedFd wake_write;
  std::vector<std::unique_ptr<Connection>> conns;
};

PredictionServer::PredictionServer(
    std::shared_ptr<const ServingModel> initial, ServerOptions options)
    : options_(std::move(options)), registry_(std::move(initial)) {}

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

  server->pool_ = std::make_unique<ThreadPool>(num_workers);
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
  // A worker queues each response as it decodes the request, so every
  // decoded request is answered by the workers' final flush.
  stopping_.store(true, std::memory_order_release);
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
  stats.batcher.jobs = stats.predict_requests;
  stats.batcher.rows = stats.rows_predicted;
  stats.batcher.batches = stats.predict_requests;
  stats.batcher.max_batch_rows_seen =
      max_request_rows_.load(std::memory_order_relaxed);
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
  text += StrFormat("max_request_rows %llu\n",
                    static_cast<unsigned long long>(
                        stats.batcher.max_batch_rows_seen));
  text += StrFormat("model_swaps %u\n", registry_.num_swaps());
  return text;
}

namespace {

void DrainWakePipe(int wake_read_fd) {
  uint8_t buffer[256];
  while (::read(wake_read_fd, buffer, sizeof(buffer)) > 0) {
  }
}

}  // namespace

Frame PredictionServer::Predict(const std::vector<double>& rows,
                                const std::vector<double>& cardinalities,
                                bool plan) {
  const size_t num_rows = cardinalities.size();
  predict_requests_.fetch_add(1, std::memory_order_relaxed);
  rows_predicted_.fetch_add(num_rows, std::memory_order_relaxed);
  uint64_t max_rows = max_request_rows_.load(std::memory_order_relaxed);
  while (max_rows < num_rows &&
         !max_request_rows_.compare_exchange_weak(
             max_rows, num_rows, std::memory_order_relaxed)) {
  }

  // One model snapshot per request: every row is answered by the same
  // version, and a concurrent hot swap only affects later requests.
  const std::shared_ptr<const ServingModel> model = registry_.Current();
  const size_t dim = static_cast<size_t>(model->num_features());
  if (rows.size() != num_rows * dim) {
    return EncodeErrorResponse(InvalidArgumentError(StrFormat(
        "request rows have %zu values for %zu rows of the served "
        "model's %zu features",
        rows.size(), num_rows, dim)));
  }

  const ForestEvaluator& evaluator = model->evaluator();
  PredictResponse response;
  response.model_version = model->version;
  if (plan) {
    response.predictions.push_back(model->model.QuerySeconds(
        rows.data(), num_rows, cardinalities.data(),
        [&evaluator](const double* row) { return evaluator.Predict(row); }));
  } else {
    response.predictions.resize(num_rows);
    evaluator.PredictBatch(rows.data(), num_rows, dim,
                           response.predictions.data());
    for (size_t i = 0; i < num_rows; ++i) {
      response.predictions[i] =
          model->RowSeconds(response.predictions[i], cardinalities[i]);
    }
  }
  return EncodePredictResponse(response);
}

void PredictionServer::HandleFrame(Connection* conn, MessageType type,
                                   std::vector<uint8_t> payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);

  switch (type) {
    case MessageType::kPredictRows: {
      Result<PredictRowsRequest> request = DecodePredictRows(frame);
      if (!request.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->Send(EncodeErrorResponse(request.status()));
        return;
      }
      conn->Send(Predict(request->rows, request->input_cardinalities,
                         /*plan=*/false));
      return;
    }
    case MessageType::kPredictPlan: {
      const std::string_view text(
          reinterpret_cast<const char*>(frame.payload.data()),
          frame.payload.size());
      Result<PlanPredictionInput> input = BuildPlanPredictionInput(text);
      if (!input.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->Send(EncodeErrorResponse(input.status()));
        return;
      }
      conn->Send(Predict(input->rows, input->input_cardinalities,
                         /*plan=*/true));
      return;
    }
    case MessageType::kSwapModel: {
      std::string path(reinterpret_cast<const char*>(frame.payload.data()),
                       frame.payload.size());
      if (path.empty()) path = options_.default_swap_path;
      if (path.empty()) {
        conn->Send(EncodeErrorResponse(FailedPreconditionError(
            "swap request without a path and no default configured")));
        return;
      }
      Result<uint32_t> version = SwapFromFile(path);
      if (!version.ok()) {
        conn->Send(EncodeErrorResponse(version.status()));
        return;
      }
      std::fprintf(stderr, "t3 server: hot-swapped to %s (version %u)\n",
                   path.c_str(), *version);
      conn->Send(EncodeSwapResponse(*version));
      return;
    }
    case MessageType::kStats: {
      conn->Send(EncodeTextFrame(MessageType::kStatsOk, StatsText()));
      return;
    }
    case MessageType::kShutdown: {
      if (!options_.allow_remote_shutdown) {
        conn->Send(EncodeErrorResponse(
            FailedPreconditionError("remote shutdown is disabled")));
        return;
      }
      conn->Send(EncodeEmptyFrame(MessageType::kShutdownOk));
      conn->close_after_flush = true;
      std::lock_guard<std::mutex> lock(state_mu_);
      stop_requested_ = true;
      stop_requested_cv_.notify_all();
      return;
    }
    default: {
      // A response type sent as a request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->Send(EncodeErrorResponse(InvalidArgumentError(StrFormat(
          "message type %d is not a request", static_cast<int>(type)))));
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
      auto conn = std::make_unique<Connection>();
      conn->fd = ScopedFd(fd);
      if (!SetNonBlocking(fd).ok()) continue;  // ScopedFd closes it.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      worker->conns.push_back(std::move(conn));
    }
  };

  // Handles every complete frame in conn->in, in order. A framing error
  // queues a kError and stops parsing: the connection closes after flush.
  auto parse_frames = [&](Connection* conn) {
    while (!conn->close_after_flush) {
      const size_t available = conn->in.size() - conn->parse_pos;
      if (available < kFrameHeaderBytes) break;
      Result<FrameHeader> header =
          DecodeFrameHeader(conn->in.data() + conn->parse_pos);
      if (!header.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->Send(EncodeErrorResponse(header.status()));
        conn->close_after_flush = true;
        break;
      }
      if (available < kFrameHeaderBytes + header->payload_size) break;
      const uint8_t* payload_begin =
          conn->in.data() + conn->parse_pos + kFrameHeaderBytes;
      std::vector<uint8_t> payload(payload_begin,
                                   payload_begin + header->payload_size);
      conn->parse_pos += kFrameHeaderBytes + header->payload_size;
      HandleFrame(conn, header->type, std::move(payload));
    }
    if (conn->parse_pos > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<ptrdiff_t>(conn->parse_pos));
      conn->parse_pos = 0;
    }
  };

  // Reads until EAGAIN/EOF. Returns false when the socket errored hard.
  auto read_and_handle = [&](Connection* conn) {
    bool peer_done = false;
    for (;;) {
      const ssize_t n =
          ::read(conn->fd.get(), read_buffer, sizeof(read_buffer));
      if (n > 0) {
        conn->in.insert(conn->in.end(), read_buffer, read_buffer + n);
        if (static_cast<size_t>(n) < sizeof(read_buffer)) break;
        continue;
      }
      if (n == 0) {
        peer_done = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    parse_frames(conn);
    // Peer finished sending: the frames it sent are answered, then close.
    if (peer_done) conn->close_after_flush = true;
    return true;
  };

  auto reap = [&] {
    auto& conns = worker->conns;
    for (size_t i = 0; i < conns.size();) {
      const Connection& conn = *conns[i];
      if (conn.dead || (conn.close_after_flush && conn.out.empty())) {
        conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto& conn : worker->conns) {
      if (!conn->dead && !FlushWrites(conn.get())) conn->dead = true;
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
      Connection* conn = worker->conns[i].get();
      const short revents = pfds[2 + i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->dead = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !read_and_handle(conn)) {
        conn->dead = true;
      }
    }
  }

  // Drain phase: every decoded request already has its response queued;
  // flush them, bounded by a deadline so a stalled client cannot wedge
  // shutdown.
  Stopwatch drain_timer;
  for (;;) {
    pfds.clear();
    for (auto& conn : worker->conns) {
      if (!conn->dead && !FlushWrites(conn.get())) conn->dead = true;
      if (!conn->dead && !conn->out.empty()) {
        pfds.push_back({conn->fd.get(), POLLOUT, 0});
      }
    }
    if (pfds.empty() || drain_timer.ElapsedSeconds() > kDrainDeadlineSeconds) {
      break;
    }
    (void)::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
  }
  worker->conns.clear();
}

}  // namespace t3

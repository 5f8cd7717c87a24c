// Extra experiment: end-to-end throughput of the T3 prediction service
// (src/server) — the full wire-protocol path (client encode -> TCP ->
// server worker decode -> QuickScorer PredictBatch over the request's rows
// -> encode -> client decode), not just the in-process evaluator of
// Table 2. Sweeps concurrent connections {1, 8, 64}; the
// 64-connection run performs a mid-run atomic hot swap. Each connection
// cycles through prebuilt requests of the corpus's real pipeline rows, and
// the acceptance gates are:
//   - zero dropped requests (every request answered, across the swap),
//   - every row of every response bit-matches the model version that
//     served it,
//   - sustained throughput >= 100k predictions/sec at 64 connections,
//     over the measured wall time from the first send to the last join.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "server/client.h"
#include "server/server.h"
#include "server/serving_model.h"

namespace t3 {
namespace {

constexpr size_t kRowsPerRequest = 256;
constexpr double kBudgetSeconds = 1.5;
constexpr double kTargetPredsPerSec = 100000.0;

struct LoadResult {
  uint64_t requests = 0;
  uint64_t rows = 0;
  double wall_seconds = 0.0;  ///< First send to the last thread join.
  std::vector<double> latency_ns;
  std::set<uint32_t> versions;
};

/// A prebuilt kPredictRows request and its answer under each model version.
struct PreparedRequest {
  PredictRowsRequest request;
  std::array<std::vector<double>, 2> expected;  ///< Model versions 1 and 2.
};

/// Cuts the corpus's pipeline rows, in order, into kRowsPerRequest-row
/// requests (the last one wraps around to the first rows) and precomputes
/// every row's answer under both model versions.
std::vector<PreparedRequest> PrepareRequests(const Corpus& corpus,
                                             const T3Model& model_v1,
                                             const T3Model& model_v2) {
  std::vector<const PipelineFeatureVector*> pool;
  for (const QueryRecord& record : corpus.records) {
    for (const auto& features : record.feat_true) pool.push_back(&features);
  }
  T3_CHECK(!pool.empty());
  const size_t num_requests =
      (pool.size() + kRowsPerRequest - 1) / kRowsPerRequest;
  std::vector<PreparedRequest> prepared(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    PreparedRequest& p = prepared[r];
    p.request.num_features =
        static_cast<uint32_t>(model_v1.forest().num_features);
    for (size_t i = 0; i < kRowsPerRequest; ++i) {
      const PipelineFeatureVector& row =
          *pool[(r * kRowsPerRequest + i) % pool.size()];
      p.request.rows.insert(p.request.rows.end(), row.values.begin(),
                            row.values.end());
      p.request.input_cardinalities.push_back(row.input_cardinality);
      p.expected[0].push_back(model_v1.PredictPipelineSeconds(
          row.values.data(), row.input_cardinality));
      p.expected[1].push_back(model_v2.PredictPipelineSeconds(
          row.values.data(), row.input_cardinality));
    }
  }
  return prepared;
}

/// Aborts unless every row of `response` bit-matches the answer of the
/// model version that claims to have served it.
void CheckResponse(const PreparedRequest& prepared,
                   const PredictResponse& response) {
  T3_CHECK(response.model_version == 1 || response.model_version == 2);
  const std::vector<double>& expected =
      prepared.expected[response.model_version - 1];
  T3_CHECK(response.predictions.size() == expected.size());
  T3_CHECK(std::memcmp(response.predictions.data(), expected.data(),
                       expected.size() * sizeof(double)) == 0);
}

/// Closed-loop load from `connections` client threads for the wall budget.
/// Connection c cycles through the prepared requests starting at request c;
/// any error or mismatched row aborts.
LoadResult DriveLoad(uint16_t port, size_t connections,
                     const std::vector<PreparedRequest>& prepared) {
  std::atomic<bool> stop{false};
  std::vector<LoadResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  Stopwatch wall;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Result<PredictionClient> client =
          PredictionClient::Connect("127.0.0.1", port);
      T3_CHECK_OK(client);
      LoadResult& result = results[c];
      for (size_t next = c; !stop.load(std::memory_order_acquire); ++next) {
        const PreparedRequest& request = prepared[next % prepared.size()];
        Stopwatch latency;
        Result<PredictResponse> response =
            client->PredictRows(request.request);
        T3_CHECK_OK(response);
        result.latency_ns.push_back(
            static_cast<double>(latency.ElapsedNanos()));
        CheckResponse(request, *response);
        result.versions.insert(response->model_version);
        result.requests++;
        result.rows += response->predictions.size();
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kBudgetSeconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  LoadResult total;
  total.wall_seconds = wall.ElapsedSeconds();
  for (LoadResult& result : results) {
    total.requests += result.requests;
    total.rows += result.rows;
    total.versions.insert(result.versions.begin(), result.versions.end());
    total.latency_ns.insert(total.latency_ns.end(),
                            result.latency_ns.begin(),
                            result.latency_ns.end());
  }
  return total;
}

int Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const T3Model& main_model = workbench.MainModel();

  // The hot-swap target: the same forest with a shifted base score —
  // structurally identical (so the feature-width guard passes) but every
  // prediction differs, which makes per-version bit-matching a real check.
  Forest shifted = main_model.forest();
  shifted.base_score += 1.0;
  const T3Model swap_model(std::move(shifted), main_model.target());
  const std::string swap_path =
      workbench.data_dir() + "/cache_server_bench_swap.txt";
  T3_CHECK(swap_model.SaveToFile(swap_path).ok());
  const std::vector<PreparedRequest> prepared =
      PrepareRequests(workbench.corpus(), main_model, swap_model);

  Result<std::shared_ptr<const ServingModel>> serving = MakeServingModel(
      T3Model(main_model.forest(), main_model.target()), 1,
      "workbench:main");
  T3_CHECK_OK(serving);

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), options);
  T3_CHECK_OK(server);
  const uint16_t port = (*server)->port();

  const char* row_evaluator =
      (*server)->registry().Current()->evaluator_name();
  PrintExperimentHeader(
      "Extra: prediction-server throughput over the wire protocol",
      StrFormat("closed loop, %zu corpus pipeline rows/request cycled over "
                "%zu prebuilt requests, %.1fs per config, %d-tree model; "
                "row_evaluator %s. The 64-connection run hot-swaps "
                "mid-flight.",
                kRowsPerRequest, prepared.size(), kBudgetSeconds,
                static_cast<int>(main_model.forest().trees.size()),
                row_evaluator));

  ReportTable table({"Connections", "Requests", "Preds/s", "p50", "p99",
                     "Versions", "Dropped"});
  double preds_at_64 = 0.0;
  for (const size_t connections : {size_t{1}, size_t{8}, size_t{64}}) {
    const bool swap_run = connections == 64;
    std::thread swapper;
    if (swap_run) {
      swapper = std::thread([&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kBudgetSeconds / 2));
        Result<PredictionClient> admin =
            PredictionClient::Connect("127.0.0.1", port);
        T3_CHECK_OK(admin);
        Result<uint32_t> version = admin->Swap(swap_path);
        T3_CHECK_OK(version);
      });
    }
    const LoadResult result = DriveLoad(port, connections, prepared);
    if (swapper.joinable()) swapper.join();

    // Zero drops: DriveLoad T3_CHECKs every response, so reaching here
    // with N requests means N answers; the column records it explicitly.
    const double preds_per_sec =
        static_cast<double>(result.rows) / result.wall_seconds;
    if (connections == 64) preds_at_64 = preds_per_sec;
    std::string versions;
    for (const uint32_t version : result.versions) {
      if (!versions.empty()) versions += ",";
      versions += StrFormat("%u", version);
    }
    table.AddRow({StrFormat("%zu", connections),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(result.requests)),
                  StrFormat("%.0f", preds_per_sec),
                  FormatDuration(Quantile(result.latency_ns, 0.5)),
                  FormatDuration(Quantile(result.latency_ns, 0.99)),
                  versions, "0"});
  }
  table.Print();

  // Post-swap bit-match on a fresh connection: version 2 is now serving
  // and its predictions match the swapped-in model exactly.
  {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    T3_CHECK_OK(client);
    Result<PredictResponse> response =
        client->PredictRows(prepared[0].request);
    T3_CHECK_OK(response);
    T3_CHECK(response->model_version == 2);
    CheckResponse(prepared[0], *response);
  }

  const bool pass = preds_at_64 >= kTargetPredsPerSec;
  std::printf("\nThroughput at 64 connections: %.0f preds/s "
              "(target >= %.0f) [%s]\n",
              preds_at_64, kTargetPredsPerSec, pass ? "ok" : "FAIL");
  (*server)->Stop();
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace t3

int main() { return t3::Run(); }

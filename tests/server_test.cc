// Prediction-server battery: wire-protocol goldens and strict rejection,
// end-to-end bit-exactness against the direct model call, client
// misbehavior (disconnects, malformed frames), and the hot-swap contract
// (zero dropped requests, per-version bit-matching) under concurrent load.

#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/net.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/text_format.h"
#include "gbt/forest.h"
#include "model/t3_model.h"
#include "server/client.h"
#include "server/plan_features.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_model.h"
#include "random_forest.h"

namespace t3 {
namespace {

// --- Shared fixtures: small seeded random forests (random_forest.h) wrapped
// as serving models. ---

Forest SeededForest(uint64_t seed, int num_features, int num_trees) {
  Rng rng(seed);
  return MakeRandomForest(&rng, num_features, num_trees, /*max_depth=*/5);
}

T3Model MakeRandomModel(uint64_t seed, int num_features, int num_trees) {
  return T3Model(SeededForest(seed, num_features, num_trees),
                 PredictionTarget::kPerTuple);
}

std::shared_ptr<const ServingModel> MakeTestServingModel(uint64_t seed,
                                                         int num_features,
                                                         int num_trees) {
  Result<std::shared_ptr<const ServingModel>> serving = MakeServingModel(
      MakeRandomModel(seed, num_features, num_trees), 1,
      StrFormat("test:%llu", static_cast<unsigned long long>(seed)));
  T3_CHECK_OK(serving);
  return *std::move(serving);
}

PredictRowsRequest MakeRandomRequest(uint64_t seed, size_t num_rows,
                                     int num_features) {
  Rng rng(seed);
  PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(num_features);
  request.rows.resize(num_rows * static_cast<size_t>(num_features));
  for (double& value : request.rows) {
    value = 0.25 * static_cast<double>(rng.UniformInt(-8, 8));
  }
  request.input_cardinalities.resize(num_rows);
  for (double& card : request.input_cardinalities) {
    card = static_cast<double>(rng.UniformInt(0, 100000));
  }
  return request;
}

ServerOptions TestServerOptions() {
  ServerOptions options;
  options.port = 0;  // Ephemeral: tests never race over a fixed port.
  options.num_workers = 2;
  return options;
}

// --- Wire-protocol goldens ---

TEST(ProtocolTest, FrameHeaderGolden) {
  Frame frame;
  frame.type = MessageType::kStats;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const uint8_t golden[kFrameHeaderBytes] = {'t', '3', 'p', '1',  // magic
                                             4,   0,              // type/flags
                                             0,   0,              // reserved
                                             0,   0,   0,   0};   // length LE
  EXPECT_EQ(std::memcmp(bytes.data(), golden, kFrameHeaderBytes), 0);

  Result<Frame> decoded = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kStats);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(ProtocolTest, PredictRowsRoundTripsBitExact) {
  const PredictRowsRequest request = MakeRandomRequest(7, 5, 48);
  const std::vector<uint8_t> bytes = EncodeFrame(EncodePredictRows(request));
  Result<Frame> frame = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<PredictRowsRequest> decoded = DecodePredictRows(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_features, request.num_features);
  // Doubles travel as IEEE-754 bit patterns: the round trip is bit-exact,
  // not approximately equal.
  ASSERT_EQ(decoded->rows.size(), request.rows.size());
  EXPECT_EQ(std::memcmp(decoded->rows.data(), request.rows.data(),
                        request.rows.size() * sizeof(double)),
            0);
  ASSERT_EQ(decoded->input_cardinalities.size(),
            request.input_cardinalities.size());
  EXPECT_EQ(std::memcmp(decoded->input_cardinalities.data(),
                        request.input_cardinalities.data(),
                        request.input_cardinalities.size() * sizeof(double)),
            0);
}

TEST(ProtocolTest, PredictResponseRoundTripsBitExact) {
  PredictResponse response;
  response.model_version = 42;
  response.predictions = {1.5e-6, 0.25, 3.0e4, -0.0};
  const std::vector<uint8_t> bytes =
      EncodeFrame(EncodePredictResponse(response));
  Result<Frame> frame = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  Result<PredictResponse> decoded = DecodePredictResponse(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->model_version, 42u);
  ASSERT_EQ(decoded->predictions.size(), response.predictions.size());
  EXPECT_EQ(std::memcmp(decoded->predictions.data(),
                        response.predictions.data(),
                        response.predictions.size() * sizeof(double)),
            0);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  const Frame frame =
      EncodeErrorResponse(FailedPreconditionError("swap rejected"));
  Result<ErrorResponse> decoded = DecodeErrorResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded->message, "swap rejected");
}

TEST(ProtocolTest, RejectsBadHeaders) {
  const std::vector<uint8_t> good = EncodeFrame(Frame{
      MessageType::kStats, {}});

  {
    std::vector<uint8_t> bad = good;
    bad[0] = 'x';  // Bad magic.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[4] = 99;  // Unknown message type.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[5] = 1;  // Nonzero flags.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[6] = 1;  // Nonzero reserved.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    // Payload length over the cap.
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof(huge));
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  EXPECT_TRUE(DecodeFrameHeader(good.data()).ok());
}

TEST(ProtocolTest, RejectsTruncatedAndTrailingBytes) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(EncodePredictRows(MakeRandomRequest(11, 2, 4)));
  // Truncated: every strict prefix fails.
  EXPECT_FALSE(DecodeFrame(bytes.data(), bytes.size() - 1).ok());
  EXPECT_FALSE(DecodeFrame(bytes.data(), kFrameHeaderBytes).ok());
  // Trailing: extra bytes after the declared payload fail.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFrame(padded.data(), padded.size()).ok());
}

TEST(ProtocolTest, RejectsOversizedRowCounts) {
  PredictRowsRequest request = MakeRandomRequest(13, 1, 4);
  Frame frame = EncodePredictRows(request);
  // Corrupt the row count beyond the cap; the decoder must reject before
  // allocating.
  const uint32_t huge_rows = kMaxRowsPerRequest + 1;
  std::memcpy(frame.payload.data(), &huge_rows, sizeof(huge_rows));
  EXPECT_FALSE(DecodePredictRows(frame).ok());

  // A payload shorter than its own row count promises is rejected too.
  Frame truncated = EncodePredictRows(request);
  truncated.payload.resize(truncated.payload.size() - 8);
  EXPECT_FALSE(DecodePredictRows(truncated).ok());
}

// --- End-to-end: the served prediction bit-matches the direct model call ---

TEST(PredictionServerTest, PredictRowsBitMatchesDirectModel) {
  const int kFeatures = 16;
  const T3Model reference = MakeRandomModel(101, kFeatures, 20);
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(101, kFeatures, 20), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (uint64_t seed = 0; seed < 5; ++seed) {
    const PredictRowsRequest request =
        MakeRandomRequest(200 + seed, 17, kFeatures);
    Result<PredictResponse> response = client->PredictRows(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->model_version, 1u);
    ASSERT_EQ(response->predictions.size(), request.num_rows());
    for (size_t i = 0; i < request.num_rows(); ++i) {
      const double expected = reference.PredictPipelineSeconds(
          request.rows.data() + i * kFeatures,
          request.input_cardinalities[i]);
      // Bit-exact, not approximately: the whole serving path (decode,
      // QuickScorer, wire encoding) must not perturb a single ULP.
      EXPECT_EQ(response->predictions[i], expected) << "row " << i;
    }
  }
  EXPECT_NE((*server)->StatsText().find("row_evaluator quickscorer\n"),
            std::string::npos);
  (*server)->Stop();
}

// QuickScorer's leaf masks hold 64 leaves: a model with a 65-leaf tree
// serves with the flat evaluator instead, still bit-identical, and the
// stats name the evaluator that serves.
TEST(PredictionServerTest, TreeWiderThanTheLeafMaskServesWithFlat) {
  const int kFeatures = 6;
  Forest forest = SeededForest(111, kFeatures, 4);
  Rng rng(112);
  Tree wide;
  BuildWideSubtree(&wide, &rng, kFeatures, /*num_leaves=*/65);
  forest.trees.insert(forest.trees.begin() + 2, std::move(wide));
  ASSERT_TRUE(forest.Validate().ok());
  const T3Model reference(forest, PredictionTarget::kPerTuple);
  Result<std::shared_ptr<const ServingModel>> serving =
      MakeServingModel(reference, 1, "test:wide");
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_EQ((*serving)->quickscorer, nullptr);
  EXPECT_STREQ((*serving)->evaluator_name(), "flat");
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_NE((*server)->StatsText().find("row_evaluator flat\n"),
            std::string::npos);

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const PredictRowsRequest request = MakeRandomRequest(113, 64, kFeatures);
  Result<PredictResponse> response = client->PredictRows(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->predictions.size(), request.num_rows());
  for (size_t i = 0; i < request.num_rows(); ++i) {
    const double expected = reference.PredictPipelineSeconds(
        request.rows.data() + i * kFeatures, request.input_cardinalities[i]);
    EXPECT_EQ(std::memcmp(&response->predictions[i], &expected,
                          sizeof(double)),
              0)
        << "row " << i;
  }
  (*server)->Stop();
}

TEST(PredictionServerTest, PredictPlanMatchesPipelineSum) {
  const T3Model reference = MakeRandomModel(303, 48, 12);
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(303, 48, 12), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_agg_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();

  // The expected value through the library path: featurize the skeleton,
  // then sum the per-pipeline predictions in pipeline order (the
  // PredictQuerySeconds convention).
  Result<PlanPredictionInput> input = BuildPlanPredictionInput(*plan_text);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  ASSERT_GT(input->num_rows(), 0u);
  ASSERT_EQ(input->num_features, 48u);
  double expected = 0.0;
  for (size_t i = 0; i < input->num_rows(); ++i) {
    expected += reference.PredictPipelineSeconds(
        input->rows.data() + i * input->num_features,
        input->input_cardinalities[i]);
  }

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Result<PredictResponse> response = client->PredictPlan(*plan_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->predictions.size(), 1u);
  EXPECT_EQ(response->predictions[0], expected);

  // Malformed plan text: a kError reply, and the connection stays usable.
  EXPECT_FALSE(client->PredictPlan("not a plan").ok());
  Result<PredictResponse> again = client->PredictPlan(*plan_text);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->predictions[0], expected);
  (*server)->Stop();
}

// --- Client misbehavior ---

TEST(PredictionServerTest, PredictPlanPrefixesAreErrorsNotCrashes) {
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(304, 48, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_agg_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // Every prefix cut before the first byte of the final token is missing a
  // field (a cut inside the final number is just a shorter number). Each
  // arrives as an exact-size payload: the parser must answer with a kError
  // from the bytes it was given, and the connection must stay usable.
  const size_t last_byte = plan_text->find_last_not_of(" \n");
  const size_t last_token = plan_text->find_last_of(" \n", last_byte) + 1;
  for (size_t cut = 0; cut <= last_token; ++cut) {
    Result<PredictResponse> response =
        client->PredictPlan(std::string_view(*plan_text).substr(0, cut));
    EXPECT_FALSE(response.ok()) << "prefix of " << cut << " bytes predicted";
  }
  EXPECT_TRUE(client->PredictPlan(*plan_text).ok());
  (*server)->Stop();
}

TEST(PredictionServerTest, PredictPlanWithForgedCountIsAnError) {
  // A 60-byte plan whose filter claims 10^12 predicates: the skeleton must
  // refuse to size that many placeholders and answer kError, and the same
  // connection must keep serving.
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(307, 48, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  const std::string forged =
      "t3plan v1\nnodes 3\nN 0 -1 -1 100 1 8 0\nN 1 0 -1 50 1e12 8 0\n"
      "N 8 1 -1 50 0 8 0\n";
  Result<PredictResponse> plan = client->PredictPlan(forged);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
      << plan.status().ToString();

  Result<PredictResponse> rows =
      client->PredictRows(MakeRandomRequest(308, 3, 48));
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  (*server)->Stop();
}

TEST(PredictionServerTest, PredictPlanNeedsAPipelineLevelModel) {
  // A per-query model predicts a whole query from its summed feature
  // vector; summing its per-pipeline outputs answers a question it was
  // never trained on, so plan requests fail while rows requests still work.
  const T3Model reference(SeededForest(305, 48, 6),
                          PredictionTarget::kPerQuery);
  Result<std::shared_ptr<const ServingModel>> serving =
      MakeServingModel(reference, 1, "test:per-query");
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_agg_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  Result<PredictResponse> plan = client->PredictPlan(*plan_text);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("per-query"), std::string::npos)
      << plan.status().ToString();

  const PredictRowsRequest request = MakeRandomRequest(306, 5, 48);
  Result<PredictResponse> rows = client->PredictRows(request);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->predictions.size(), request.num_rows());
  for (size_t i = 0; i < request.num_rows(); ++i) {
    EXPECT_EQ(rows->predictions[i],
              reference.PredictPipelineSeconds(request.rows.data() + i * 48,
                                               request.input_cardinalities[i]));
  }
  (*server)->Stop();
}

TEST(PredictionServerTest, MalformedFrameGetsErrorAndClose) {
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(55, 8, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const char garbage[kFrameHeaderBytes] = {'n', 'o', 'n', 's', 'e', 'n',
                                           's', 'e', '.', '.', '.', '.'};
  ASSERT_TRUE(client->RawSend(garbage, sizeof(garbage)).ok());
  Result<Frame> reply = client->RawReceive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kError);
  // The server closes after flushing the error: the next read sees EOF.
  EXPECT_FALSE(client->RawReceive().ok());

  // The server itself is unharmed: a fresh connection predicts fine.
  Result<PredictionClient> fresh =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->PredictRows(MakeRandomRequest(1, 3, 8)).ok());
  EXPECT_GE((*server)->stats().protocol_errors, 1u);
  (*server)->Stop();
}

TEST(PredictionServerTest, WrongFeatureWidthIsAnErrorNotACrash) {
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(56, 8, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // 5 features against an 8-feature model: rejected per-request, and the
  // same connection keeps working afterwards.
  Result<PredictResponse> bad =
      client->PredictRows(MakeRandomRequest(2, 3, 5));
  EXPECT_FALSE(bad.ok());
  Result<PredictResponse> good =
      client->PredictRows(MakeRandomRequest(3, 3, 8));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  (*server)->Stop();
}

// Four requests in one write, then a half-close: the responses come back in
// request order, the bad-width request fails alone, and the server answers
// everything it received before it closes.
TEST(PredictionServerTest, PipelinedFramesAnswerInOrderThenClose) {
  const int kFeatures = 48;
  const T3Model reference = MakeRandomModel(58, kFeatures, 12);
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(58, kFeatures, 12), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_agg_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();
  Result<PlanPredictionInput> plan = BuildPlanPredictionInput(*plan_text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  double plan_expected = 0.0;
  for (size_t i = 0; i < plan->num_rows(); ++i) {
    plan_expected += reference.PredictPipelineSeconds(
        plan->rows.data() + i * kFeatures, plan->input_cardinalities[i]);
  }

  const PredictRowsRequest first = MakeRandomRequest(59, 7, kFeatures);
  const PredictRowsRequest narrow = MakeRandomRequest(60, 3, kFeatures - 1);
  const PredictRowsRequest last = MakeRandomRequest(61, 5, kFeatures);
  std::vector<uint8_t> bytes;
  for (const Frame& frame :
       {EncodePredictRows(first),
        EncodeTextFrame(MessageType::kPredictPlan, *plan_text),
        EncodePredictRows(narrow), EncodePredictRows(last)}) {
    const std::vector<uint8_t> encoded = EncodeFrame(frame);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size()).ok());
  ASSERT_EQ(::shutdown(client->fd(), SHUT_WR), 0);

  auto expect_rows = [&](const PredictRowsRequest& request) {
    Result<Frame> reply = client->RawReceive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    Result<PredictResponse> response = DecodePredictResponse(*reply);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->predictions.size(), request.num_rows());
    for (size_t i = 0; i < request.num_rows(); ++i) {
      EXPECT_EQ(response->predictions[i],
                reference.PredictPipelineSeconds(
                    request.rows.data() + i * kFeatures,
                    request.input_cardinalities[i]))
          << "row " << i;
    }
  };
  expect_rows(first);
  Result<Frame> plan_reply = client->RawReceive();
  ASSERT_TRUE(plan_reply.ok()) << plan_reply.status().ToString();
  Result<PredictResponse> plan_response = DecodePredictResponse(*plan_reply);
  ASSERT_TRUE(plan_response.ok()) << plan_response.status().ToString();
  ASSERT_EQ(plan_response->predictions.size(), 1u);
  EXPECT_EQ(plan_response->predictions[0], plan_expected);
  Result<Frame> narrow_reply = client->RawReceive();
  ASSERT_TRUE(narrow_reply.ok()) << narrow_reply.status().ToString();
  ASSERT_EQ(narrow_reply->type, MessageType::kError);
  Result<ErrorResponse> error = DecodeErrorResponse(*narrow_reply);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument) << error->message;
  expect_rows(last);
  // Everything sent was answered; the server then closes: EOF.
  EXPECT_FALSE(client->RawReceive().ok());
  (*server)->Stop();
}

TEST(PredictionServerTest, SurvivesAbruptDisconnects) {
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(57, 8, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // Half-written frames, requests abandoned before the response is read,
  // and immediate closes: none of it may take down the server (SIGPIPE is
  // ignored; EPIPE/ECONNRESET reap just that connection).
  for (int round = 0; round < 10; ++round) {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    const std::vector<uint8_t> bytes = EncodeFrame(
        EncodePredictRows(MakeRandomRequest(round, 64, 8)));
    switch (round % 3) {
      case 0:  // Half a frame, then vanish.
        ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size() / 2).ok());
        break;
      case 1:  // Full request, vanish without reading the response.
        ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size()).ok());
        break;
      default:  // Connect and vanish.
        break;
    }
    // Client destructor closes the socket abruptly.
  }

  Result<PredictionClient> survivor =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(survivor.ok());
  Result<PredictResponse> response =
      survivor->PredictRows(MakeRandomRequest(99, 4, 8));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  (*server)->Stop();
}

// --- Hot swap under load: zero drops, per-version bit-matching ---

TEST(PredictionServerTest, HotSwapUnderLoadDropsNothingAndBitMatches) {
  const int kFeatures = 12;
  const T3Model model_v1 = MakeRandomModel(1001, kFeatures, 10);
  const T3Model model_v2 = MakeRandomModel(2002, kFeatures, 10);
  const std::string swap_path =
      testing::TempDir() + "/t3_server_swap_model.txt";
  ASSERT_TRUE(model_v2.SaveToFile(swap_path).ok());

  ServerOptions options = TestServerOptions();
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(1001, kFeatures, 10), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  constexpr int kClientThreads = 4;
  constexpr int kRequestsPerThread = 50;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<bool> failed{false};

  auto worker = [&](int thread_index) {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      failed.store(true);
      return;
    }
    for (int r = 0; r < kRequestsPerThread; ++r) {
      const PredictRowsRequest request = MakeRandomRequest(
          static_cast<uint64_t>(thread_index) * 1000 + r, 8, kFeatures);
      Result<PredictResponse> response = client->PredictRows(request);
      if (!response.ok()) {
        failed.store(true);
        return;
      }
      // Whichever version answered, it must bit-match that version's
      // model on every row — never a torn request across the swap.
      const T3Model& version_model =
          response->model_version == 1 ? model_v1 : model_v2;
      for (size_t i = 0; i < request.num_rows(); ++i) {
        const double expected = version_model.PredictPipelineSeconds(
            request.rows.data() + i * kFeatures,
            request.input_cardinalities[i]);
        if (response->predictions[i] != expected) {
          mismatches.fetch_add(1);
        }
      }
      answered.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(worker, t);

  // Swap mid-run on a dedicated admin connection.
  Result<PredictionClient> admin =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(admin.ok());
  Result<uint32_t> swapped = admin->Swap(swap_path);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, 2u);

  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // Zero drops: every single request was answered.
  EXPECT_EQ(answered.load(),
            static_cast<uint64_t>(kClientThreads) * kRequestsPerThread);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ((*server)->registry().num_swaps(), 1u);

  // After the swap, new requests are served by version 2 and bit-match
  // the swapped-in model.
  Result<PredictionClient> after =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(after.ok());
  const PredictRowsRequest request = MakeRandomRequest(7777, 6, kFeatures);
  Result<PredictResponse> response = after->PredictRows(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->model_version, 2u);
  for (size_t i = 0; i < request.num_rows(); ++i) {
    EXPECT_EQ(response->predictions[i],
              model_v2.PredictPipelineSeconds(
                  request.rows.data() + i * kFeatures,
                  request.input_cardinalities[i]));
  }
  (*server)->Stop();
}

TEST(PredictionServerTest, SwapRejectsFeatureCountMismatch) {
  const T3Model narrow = MakeRandomModel(31, 4, 3);
  const std::string narrow_path =
      testing::TempDir() + "/t3_server_narrow_model.txt";
  ASSERT_TRUE(narrow.SaveToFile(narrow_path).ok());

  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(32, 8, 3), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Result<uint32_t> swapped = client->Swap(narrow_path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kFailedPrecondition);
  // Still serving version 1.
  EXPECT_EQ((*server)->registry().Current()->version, 1u);
  (*server)->Stop();
}

// --- Shutdown and stats ---

TEST(PredictionServerTest, ProtocolShutdownStopsWait) {
  Result<std::unique_ptr<PredictionServer>> server = PredictionServer::Start(
      MakeTestServingModel(77, 8, 4), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->PredictRows(MakeRandomRequest(5, 2, 8)).ok());
  Result<std::string> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("model_version 1"), std::string::npos);
  EXPECT_NE(stats->find("model_features 8"), std::string::npos);
  EXPECT_NE(stats->find("\nmax_request_rows 2\n"), std::string::npos)
      << *stats;

  ASSERT_TRUE(client->Shutdown().ok());
  (*server)->Wait();  // Returns because the kShutdown frame stopped it.

  const ServerStats final_stats = (*server)->stats();
  EXPECT_GE(final_stats.predict_requests, 1u);
  EXPECT_GE(final_stats.rows_predicted, 2u);
  EXPECT_EQ(final_stats.batcher.jobs, final_stats.predict_requests);
}

TEST(PredictionServerTest, RemoteShutdownCanBeDisabled) {
  ServerOptions options = TestServerOptions();
  options.allow_remote_shutdown = false;
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(MakeTestServingModel(78, 8, 4), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->Shutdown().ok());
  // Still serving.
  EXPECT_TRUE(client->PredictRows(MakeRandomRequest(6, 2, 8)).ok());
  (*server)->Stop();
}

}  // namespace
}  // namespace t3

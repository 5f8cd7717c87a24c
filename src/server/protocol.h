#ifndef T3_SERVER_PROTOCOL_H_
#define T3_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace t3 {

/// The "t3p1" wire protocol of the prediction server: length-prefixed binary
/// frames over TCP, strictly little-endian, strictly validated. One frame:
///
///   offset  size  field
///   0       4     magic "t3p1"
///   4       1     message type (MessageType)
///   5       1     flags, must be 0
///   6       2     reserved, must be 0
///   8       4     payload length (uint32 LE), <= kMaxPayloadBytes
///   12      ...   payload
///
/// Doubles travel as their IEEE-754 bit pattern in little-endian uint64 —
/// predictions are bit-exact across the wire, the same contract as the text
/// formats' %.17g. Every decoder consumes the entire payload: truncated and
/// trailing bytes are protocol errors, mirroring the strict parsers of the
/// corpus/model text formats.
///
/// Request/response pairing is FIFO per connection: one server worker owns
/// a connection and answers its requests one at a time, in the order they
/// arrive, admin requests (swap, stats, shutdown) included. A slow swap
/// therefore delays the predictions queued behind it on that connection.
inline constexpr uint8_t kMagic[4] = {'t', '3', 'p', '1'};
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;  // 16 MiB
/// Row caps of one kPredictRows frame; 8192 x 48 features is ~3 MiB.
inline constexpr uint32_t kMaxRowsPerRequest = 8192;
inline constexpr uint32_t kMaxFeaturesPerRow = 4096;

enum class MessageType : uint8_t {
  // Requests.
  kPredictRows = 1,  ///< Feature rows + input cardinalities -> predictions.
  kPredictPlan = 2,  ///< "t3plan v1" skeleton text -> one query prediction.
  kSwapModel = 3,    ///< Hot-swap: payload = model path ("" = server default).
  kStats = 4,        ///< Server counters as text.
  kShutdown = 5,     ///< Graceful stop (servers may refuse; see options).

  // Responses.
  kPredictOk = 16,  ///< Model version + predicted seconds per row.
  kError = 17,      ///< StatusCode + message; the request had no effect.
  kSwapOk = 18,     ///< Version now being served.
  kStatsOk = 19,    ///< Stats text.
  kShutdownOk = 20, ///< Acknowledged; the server drains and exits.
};

/// True for the type values the protocol defines (unknown types are rejected
/// at the header, before the payload is read).
bool IsKnownMessageType(uint8_t type);

/// A decoded frame: type plus raw payload bytes.
struct Frame {
  MessageType type = MessageType::kError;
  std::vector<uint8_t> payload;
};

/// Validated fixed-size header of an incoming frame.
struct FrameHeader {
  MessageType type = MessageType::kError;
  uint32_t payload_size = 0;
};

/// Serializes header + payload into wire bytes.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Decodes `data[0..kFrameHeaderBytes)`: checks magic, known type, zero
/// flags/reserved, and the payload-length cap. InvalidArgument on any
/// violation — the server answers with kError and closes.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data);

/// Decodes exactly one whole frame occupying `size` bytes (header +
/// payload, no trailing bytes). The strict entry used by blocking clients
/// and tests; the server decodes incrementally from its read buffer.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);

// --- kPredictRows ---

/// A batch of feature rows to predict. `rows` is row-major
/// (num_rows x num_features); `input_cardinalities` has one entry per row
/// and feeds the per-tuple scaling exactly like
/// T3Model::PredictPipelineSeconds (ignored by per-pipeline/per-query
/// models).
struct PredictRowsRequest {
  uint32_t num_features = 0;
  std::vector<double> rows;
  std::vector<double> input_cardinalities;

  size_t num_rows() const { return input_cardinalities.size(); }
};

Frame EncodePredictRows(const PredictRowsRequest& request);
Result<PredictRowsRequest> DecodePredictRows(const Frame& frame);

// --- kPredictOk ---

/// Predicted seconds per requested row (one value for kPredictPlan), plus
/// the version of the model that produced every one of them — a request is
/// always served by a single model snapshot, never half-and-half across a
/// hot swap.
struct PredictResponse {
  uint32_t model_version = 0;
  std::vector<double> predictions;
};

Frame EncodePredictResponse(const PredictResponse& response);
Result<PredictResponse> DecodePredictResponse(const Frame& frame);

// --- kError ---

struct ErrorResponse {
  StatusCode code = StatusCode::kInvalidArgument;
  std::string message;
};

Frame EncodeErrorResponse(const ErrorResponse& response);
Result<ErrorResponse> DecodeErrorResponse(const Frame& frame);

/// The kError frame for a Status (must be non-OK).
Frame EncodeErrorResponse(const Status& status);

// --- Text/empty payload helpers ---

/// kPredictPlan, kSwapModel, and kStatsOk carry UTF-8 text payloads.
Frame EncodeTextFrame(MessageType type, std::string_view text);

/// kSwapOk carries the new model version.
Frame EncodeSwapResponse(uint32_t model_version);
Result<uint32_t> DecodeSwapResponse(const Frame& frame);

/// kStats, kShutdown, kShutdownOk carry empty payloads.
Frame EncodeEmptyFrame(MessageType type);

}  // namespace t3

#endif  // T3_SERVER_PROTOCOL_H_

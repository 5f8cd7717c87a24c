#ifndef T3_COMMON_CPU_FEATURES_H_
#define T3_COMMON_CPU_FEATURES_H_

namespace t3 {

/// Whether batched SIMD tree kernels serve PredictBatch. No build has them:
/// every evaluator batches through the per-row loop, so this is always
/// false. Its only caller is perfbench's provenance line
/// ("batch_kernels").
inline bool BatchKernelsEnabled() { return false; }

}  // namespace t3

#endif  // T3_COMMON_CPU_FEATURES_H_

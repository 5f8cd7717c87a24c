#ifndef T3_DATAGEN_STATS_JSON_H_
#define T3_DATAGEN_STATS_JSON_H_

#include <cstdint>
#include <string>

#include "common/thread_pool.h"
#include "datagen/spec.h"
#include "storage/catalog.h"

namespace t3 {

/// Canonical JSON object for one generated catalog: content checksum plus
/// per-table row counts and per-column {name, type, nulls, ndv, min, max}.
/// Byte-stable for bit-identical catalogs, so string equality is a
/// fingerprint comparison. `indent` is the prefix of the opening brace's
/// lines (two-space steps inside).
std::string CatalogStatsJson(const Catalog& catalog, const std::string& indent);

/// The golden-fixture document: every instance in AllInstances() generated at
/// (seed, scale) and rendered with CatalogStatsJson. The checked-in
/// data/instance_stats_golden.json is exactly this string for seed 42,
/// scale 0.05 (regenerate with `t3_datagen golden`).
std::string GoldenStatsJson(uint64_t seed, double scale, ThreadPool* pool);

inline constexpr uint64_t kGoldenSeed = 42;
inline constexpr double kGoldenScale = 0.05;

}  // namespace t3

#endif  // T3_DATAGEN_STATS_JSON_H_

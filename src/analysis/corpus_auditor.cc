#include "analysis/corpus_auditor.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/feature_auditor.h"
#include "analysis/plan_verifier.h"
#include "common/hash.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "features/feature_registry.h"
#include "features/stage_catalog.h"
#include "plan/pipeline.h"
#include "plan/plan.h"

namespace t3 {
namespace {

/// Structural fingerprint of a record — everything except measured timings,
/// so two benchmark repetitions of the same generated query collide. A
/// duplicate double-counts one plan shape in training.
uint64_t RecordFingerprint(const QueryRecord& record) {
  Fnv1a hasher;
  hasher.LengthPrefixedString(record.instance);
  hasher.U64(record.is_test ? 1 : 0);
  hasher.U64(static_cast<uint64_t>(record.scale_index));
  hasher.U64(static_cast<uint64_t>(record.structure_group));
  hasher.U64(record.fixed_suite ? 1 : 0);
  hasher.U64(record.plan_nodes.size());
  for (const PlanNodeRecord& node : record.plan_nodes) {
    hasher.U64(static_cast<uint64_t>(node.op));
    hasher.U64(static_cast<uint64_t>(node.left));
    hasher.U64(static_cast<uint64_t>(node.right));
    hasher.F64(node.cardinality);
    hasher.F64(node.extra);
    hasher.F64(node.width);
    hasher.U64(static_cast<uint64_t>(node.stage));
  }
  auto fold_features = [&](const std::vector<PipelineFeatureVector>& features) {
    hasher.U64(features.size());
    for (const PipelineFeatureVector& f : features) {
      hasher.U64(static_cast<uint64_t>(f.pipeline));
      hasher.F64(f.input_cardinality);
      hasher.U64(f.values.size());
      for (double v : f.values) hasher.F64(v);
    }
  };
  fold_features(record.feat_true);
  fold_features(record.feat_est);
  return hasher.hash();
}

/// Re-adds `from`'s diagnostics into `report` anchored at this record
/// (tree = record index) with the corpus file/line prefix, so a plan or
/// feature finding inside record 17 names the record's source line.
void MergeNested(AnalysisReport* report, const AnalysisReport& from,
                 int record_index, const std::string& prefix) {
  for (const Diagnostic& diag : from.diagnostics()) {
    report->Add(diag.severity, diag.check, record_index, diag.node,
                prefix + diag.message);
  }
}

}  // namespace

AnalysisReport CorpusAuditor::AuditRecord(const QueryRecord& record,
                                          int record_index,
                                          const std::string& path) const {
  AnalysisReport report;
  const std::string prefix = CorpusMessagePrefix(path, record.source_line);

  // --- Labels and timings. ---
  if (!std::isfinite(record.median_seconds) || record.median_seconds <= 0.0) {
    report.Add(Severity::kError, "corpus-label", record_index, -1,
               prefix + StrFormat("record %d: median %g must be finite and "
                                  "positive (it is the training label)",
                                  record_index, record.median_seconds));
  }
  if (record.runs <= 0) {
    report.Add(Severity::kError, "corpus-runs", record_index, -1,
               prefix + StrFormat("record %d: run count %d must be positive",
                                  record_index, record.runs));
  }
  if (record.total_run_seconds.size() != static_cast<size_t>(record.runs)) {
    report.Add(
        Severity::kError, "corpus-runs", record_index, -1,
        prefix + StrFormat("record %d: T line has %zu values for %d runs",
                           record_index, record.total_run_seconds.size(),
                           record.runs));
  }
  bool runs_clean = true;
  for (size_t r = 0; r < record.total_run_seconds.size(); ++r) {
    const double v = record.total_run_seconds[r];
    if (!std::isfinite(v) || v < 0.0) {
      runs_clean = false;
      report.Add(Severity::kError, "corpus-time", record_index,
                 static_cast<int>(r),
                 prefix + StrFormat("record %d: run %zu seconds %g must be "
                                    "finite and non-negative",
                                    record_index, r, v));
    }
  }
  // %.17g serialization round-trips doubles bit-exactly, so the stored
  // median must equal the median recomputed from the stored runs.
  if (runs_clean && !record.total_run_seconds.empty() &&
      std::isfinite(record.median_seconds) &&
      Median(record.total_run_seconds) != record.median_seconds) {
    report.Add(Severity::kError, "corpus-median", record_index, -1,
               prefix + StrFormat("record %d: stored median %.17g is not "
                                  "the median of its %zu runs (%.17g)",
                                  record_index, record.median_seconds,
                                  record.total_run_seconds.size(),
                                  Median(record.total_run_seconds)));
  }

  // --- Pipeline block shape: P / FT / FE must line up. ---
  const size_t num_pipelines = record.feat_true.size();
  if (record.pipeline_times.size() != num_pipelines ||
      record.feat_est.size() != num_pipelines) {
    report.Add(Severity::kError, "corpus-pipeline", record_index, -1,
               prefix + StrFormat("record %d: %zu P / %zu FT / %zu FE blocks "
                                  "must match",
                                  record_index, record.pipeline_times.size(),
                                  record.feat_true.size(),
                                  record.feat_est.size()));
  }
  for (size_t p = 0; p < record.pipeline_times.size(); ++p) {
    const PipelineTiming& timing = record.pipeline_times[p];
    if (timing.pipeline != static_cast<int>(p)) {
      report.Add(Severity::kError, "corpus-pipeline", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: P block %zu carries pipeline "
                                    "id %d",
                                    record_index, p, timing.pipeline));
    }
    if (timing.run_seconds.size() != static_cast<size_t>(record.runs)) {
      report.Add(Severity::kError, "corpus-runs", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: pipeline %zu has %zu run "
                                    "values for %d runs",
                                    record_index, p, timing.run_seconds.size(),
                                    record.runs));
      continue;
    }
    bool pipeline_runs_clean = true;
    for (size_t r = 0; r < timing.run_seconds.size(); ++r) {
      const double v = timing.run_seconds[r];
      if (!std::isfinite(v) || v < 0.0) {
        pipeline_runs_clean = false;
        report.Add(Severity::kError, "corpus-time", record_index,
                   static_cast<int>(p),
                   prefix + StrFormat("record %d: pipeline %zu run %zu "
                                      "seconds %g must be finite and "
                                      "non-negative",
                                      record_index, p, r, v));
      }
    }
    if (pipeline_runs_clean && !timing.run_seconds.empty() &&
        Median(timing.run_seconds) != timing.median_seconds) {
      report.Add(Severity::kError, "corpus-median", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: pipeline %zu stored median "
                                    "%.17g is not the median of its runs "
                                    "(%.17g)",
                                    record_index, p, timing.median_seconds,
                                    Median(timing.run_seconds)));
    }
  }

  // --- Feature vectors (FeatureAuditor per vector + true/est pairing). ---
  const FeatureAuditor feature_auditor;
  for (size_t p = 0; p < record.feat_true.size(); ++p) {
    const PipelineFeatureVector& ft = record.feat_true[p];
    if (ft.pipeline != static_cast<int>(p)) {
      report.Add(Severity::kError, "corpus-pipeline", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: FT block %zu carries "
                                    "pipeline id %d",
                                    record_index, p, ft.pipeline));
    }
    MergeNested(&report,
                feature_auditor.AuditVector(
                    ft.values, StrFormat("record %d FT pipeline %zu",
                                         record_index, p)),
                record_index, prefix);
  }
  for (size_t p = 0; p < record.feat_est.size(); ++p) {
    const PipelineFeatureVector& fe = record.feat_est[p];
    if (fe.pipeline != static_cast<int>(p)) {
      report.Add(Severity::kError, "corpus-pipeline", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: FE block %zu carries "
                                    "pipeline id %d",
                                    record_index, p, fe.pipeline));
    }
    if (!std::isfinite(fe.input_cardinality) || fe.input_cardinality < 0.0) {
      report.Add(Severity::kError, "corpus-card", record_index,
                 static_cast<int>(p),
                 prefix + StrFormat("record %d: FE pipeline %zu input "
                                    "cardinality %g must be finite and "
                                    "non-negative",
                                    record_index, p, fe.input_cardinality));
    }
    MergeNested(&report,
                feature_auditor.AuditVector(
                    fe.values, StrFormat("record %d FE pipeline %zu",
                                         record_index, p)),
                record_index, prefix);
    if (p < record.feat_true.size()) {
      MergeNested(&report,
                  feature_auditor.AuditVectorPair(
                      record.feat_true[p].values, fe.values,
                      StrFormat("record %d pipeline %zu", record_index, p)),
                  record_index, prefix);
    }
  }

  // --- Plan skeleton (PlanVerifier over the N rows). ---
  const AnalysisReport plan_report =
      PlanVerifier().VerifyRecords(record.plan_nodes);
  MergeNested(&report, plan_report, record_index, prefix);
  // Decomposition cross-checks need a sound plan skeleton; feature-level
  // findings above do not block them (check_counts guards dimensions).
  if (plan_report.HasErrors()) return report;

  // --- Cross-checks against the recomputed decomposition. The skeleton is
  // structurally sound here, so rehydration and decomposition succeed. ---
  Result<PhysicalPlan> plan = PlanFromRecords(record.plan_nodes);
  if (!plan.ok()) return report;  // Already diagnosed above if reachable.
  Result<PipelineDecomposition> decomposition = DecomposePipelines(*plan);
  if (!decomposition.ok()) return report;
  const std::vector<Pipeline>& pipelines = decomposition->pipelines;
  if (pipelines.size() != num_pipelines) {
    report.Add(Severity::kError, "corpus-decomposition", record_index, -1,
               prefix + StrFormat("record %d: %zu feature blocks but the "
                                  "plan decomposes into %zu pipelines",
                                  record_index, num_pipelines,
                                  pipelines.size()));
    return report;
  }

  const FeatureRegistry& registry = FeatureRegistry::Get();
  const size_t catalog_size = StageCatalog().size();
  for (size_t p = 0; p < pipelines.size(); ++p) {
    const Pipeline& pipeline = pipelines[p];
    // Expected per-stage occurrence counts from the decomposition: the
    // featurizer derives count features purely from pipeline shape, so they
    // must match in both cardinality modes.
    std::vector<double> expected_counts(catalog_size, 0.0);
    bool stages_known = true;
    for (size_t i = 0; i < pipeline.nodes.size(); ++i) {
      const OpStage stage = PipelineStageAt(*plan, pipeline.nodes, i,
                                            pipeline.builds_hash_table);
      const int stage_index =
          StageIndexOf((*plan).nodes[static_cast<size_t>(pipeline.nodes[i])].op,
                       stage);
      if (stage_index < 0 ||
          static_cast<size_t>(stage_index) >= catalog_size) {
        stages_known = false;
        continue;
      }
      expected_counts[static_cast<size_t>(stage_index)] += 1.0;
    }
    auto check_counts = [&](const PipelineFeatureVector& features,
                            const char* tag) {
      if (static_cast<int>(features.values.size()) != kFeatureDim) return;
      for (size_t s = 0; s < catalog_size; ++s) {
        const int index =
            registry.StageFeature(static_cast<int>(s), FeatureKind::kCount);
        if (index < 0) continue;
        const double actual = features.values[static_cast<size_t>(index)];
        if (actual != expected_counts[s]) {
          report.Add(Severity::kError, "corpus-count", record_index, index,
                     prefix + StrFormat("record %d: %s pipeline %zu %s = %g "
                                        "but the plan's decomposition has %g",
                                        record_index, tag, p,
                                        registry.def(index).name.c_str(),
                                        actual, expected_counts[s]));
        }
      }
    };
    if (stages_known) {
      check_counts(record.feat_true[p], "FT");
      if (p < record.feat_est.size()) check_counts(record.feat_est[p], "FE");
    }
    // The featurizer sets the estimated input cardinality to the source
    // node's plan cardinality annotation, bit-exactly.
    if (p < record.feat_est.size()) {
      const double source_card =
          (*plan).nodes[static_cast<size_t>(pipeline.source())].cardinality;
      if (record.feat_est[p].input_cardinality != source_card) {
        report.Add(Severity::kError, "corpus-card", record_index,
                   static_cast<int>(p),
                   prefix + StrFormat("record %d: FE pipeline %zu input "
                                      "cardinality %.17g differs from source "
                                      "node %d's annotation %.17g",
                                      record_index, p,
                                      record.feat_est[p].input_cardinality,
                                      pipeline.source(), source_card));
      }
    }
  }
  return report;
}

AnalysisReport CorpusAuditor::Audit(const Corpus& corpus,
                                    const std::string& path) const {
  AnalysisReport report;
  std::map<uint64_t, int> fingerprints;
  for (size_t i = 0; i < corpus.records.size(); ++i) {
    const QueryRecord& record = corpus.records[i];
    report.Merge(AuditRecord(record, static_cast<int>(i), path));
    auto inserted = fingerprints.emplace(RecordFingerprint(record),
                                         static_cast<int>(i));
    if (!inserted.second) {
      report.Add(Severity::kWarning, "corpus-duplicate", static_cast<int>(i),
                 -1,
                 CorpusMessagePrefix(path, record.source_line) +
                     StrFormat("record %zu duplicates record %d (same "
                               "instance, plan, and features; timings "
                               "ignored)",
                               i, inserted.first->second));
    }
  }
  return report;
}

}  // namespace t3

#include "harness/corpus.h"

#include "common/string_util.h"
#include "common/text_format.h"
#include "plan/plan_file.h"

namespace t3 {
namespace {

/// "<path> line 42: <what>" — every parse failure names the source file
/// (when known) and the line it was detected on; the same prefix
/// CorpusAuditor uses for post-parse findings.
Status ParseError(const std::string& path, const TextReader& reader,
                  const char* what) {
  return InvalidArgumentError(CorpusMessagePrefix(path, reader.line()) + what);
}

Status ParsePipelineFeatures(const std::string& path, TextReader* reader,
                             PipelineFeatureVector* features) {
  size_t dim = 0, nnz = 0;
  if (!reader->Int(&features->pipeline) ||
      !reader->FiniteDouble(&features->input_cardinality) || !reader->Count(&dim) ||
      !reader->Count(&nnz) || dim == 0 || nnz > dim) {
    return ParseError(path, *reader, "malformed feature line header");
  }
  features->values.assign(dim, 0.0);
  for (size_t i = 0; i < nnz; ++i) {
    size_t index = 0;
    double value = 0;
    if (!reader->Int(&index) || !reader->Literal(':') ||
        !reader->FiniteDouble(&value) || index >= dim) {
      return ParseError(path, *reader, "malformed sparse feature pair");
    }
    features->values[index] = value;
  }
  return Status::OK();
}

void AppendPipelineFeatures(std::string* out, const char* tag,
                            const PipelineFeatureVector& features) {
  size_t nnz = 0;
  for (double v : features.values) nnz += v != 0.0 ? 1 : 0;
  out->append(StrFormat("%s %d ", tag, features.pipeline));
  AppendExactDouble(out, features.input_cardinality);
  out->append(StrFormat(" %zu %zu", features.values.size(), nnz));
  for (size_t i = 0; i < features.values.size(); ++i) {
    if (features.values[i] == 0.0) continue;
    out->append(StrFormat(" %zu:", i));
    AppendExactDouble(out, features.values[i]);
  }
  out->push_back('\n');
}

}  // namespace

size_t Corpus::NumPipelines() const {
  size_t n = 0;
  for (const QueryRecord& record : records) n += record.feat_true.size();
  return n;
}

Result<Corpus> ParseCorpus(std::string_view text, const std::string& path) {
  TextReader reader(text);
  if (reader.Token() != "t3corpus" || reader.Token() != "v1") {
    return InvalidArgumentError(CorpusMessagePrefix(path, 0) +
                                "not a t3corpus v1 file");
  }
  size_t num_records = 0;
  if (reader.Token() != "records" || !reader.Count(&num_records)) {
    return ParseError(path, reader, "bad record count");
  }

  Corpus corpus;
  corpus.records.reserve(num_records);
  for (size_t rec = 0; rec < num_records; ++rec) {
    if (reader.Token() != "R") {
      return InvalidArgumentError(CorpusMessagePrefix(path, reader.line()) +
                                  StrFormat("record %zu: expected R line", rec));
    }
    QueryRecord record;
    record.source_line = reader.line();
    record.instance = std::string(reader.Token());
    int64_t is_test = 0, fixed = 0;
    size_t num_pipelines = 0, runs = 0, num_nodes = 0;
    if (record.instance.empty() || !reader.Int(&is_test) ||
        !reader.Int(&record.scale_index) || !reader.Int(&record.structure_group) ||
        !reader.Int(&fixed) || !reader.Count(&num_pipelines) || !reader.Count(&runs) ||
        !reader.Count(&num_nodes) || !reader.FiniteDouble(&record.median_seconds)) {
      return InvalidArgumentError(CorpusMessagePrefix(path, reader.line()) +
                                  StrFormat("record %zu: malformed R line", rec));
    }
    record.is_test = is_test != 0;
    record.fixed_suite = fixed != 0;
    record.runs = static_cast<int>(runs);

    record.plan_nodes.resize(num_nodes);
    for (PlanNodeRecord& node : record.plan_nodes) {
      if (!ReadPlanNodeRow(&reader, &node)) {
        return ParseError(path, reader, "malformed N line");
      }
    }

    if (reader.Token() != "T") {
      return ParseError(path, reader, "expected T line");
    }
    record.total_run_seconds.resize(runs);
    for (double& v : record.total_run_seconds) {
      if (!reader.FiniteDouble(&v)) {
        return ParseError(path, reader, "malformed T line");
      }
    }

    // Pipelines are stored as interleaved P / FT / FE blocks.
    record.pipeline_times.resize(num_pipelines);
    record.feat_true.resize(num_pipelines);
    record.feat_est.resize(num_pipelines);
    for (size_t p = 0; p < num_pipelines; ++p) {
      PipelineTiming& timing = record.pipeline_times[p];
      if (reader.Token() != "P" || !reader.Int(&timing.pipeline) ||
          !reader.FiniteDouble(&timing.median_seconds)) {
        return ParseError(path, reader, "malformed P line");
      }
      timing.run_seconds.resize(runs);
      for (double& v : timing.run_seconds) {
        if (!reader.FiniteDouble(&v)) {
          return ParseError(path, reader, "malformed P run value");
        }
      }
      if (reader.Token() != "FT") {
        return ParseError(path, reader, "expected FT line");
      }
      Status status = ParsePipelineFeatures(path, &reader, &record.feat_true[p]);
      if (!status.ok()) return status;
      if (reader.Token() != "FE") {
        return ParseError(path, reader, "expected FE line");
      }
      status = ParsePipelineFeatures(path, &reader, &record.feat_est[p]);
      if (!status.ok()) return status;
    }
    corpus.records.push_back(std::move(record));
  }
  if (!reader.AtEnd()) {
    return ParseError(path, reader, "trailing data after last record");
  }
  return corpus;
}

std::string CorpusToText(const Corpus& corpus) {
  std::string out;
  out.reserve(corpus.records.size() * 512);
  out += "t3corpus v1\n";
  out += StrFormat("records %zu\n", corpus.records.size());
  for (const QueryRecord& record : corpus.records) {
    out += StrFormat("R %s %d %d %d %d %zu %d %zu ", record.instance.c_str(),
                     record.is_test ? 1 : 0, record.scale_index,
                     record.structure_group, record.fixed_suite ? 1 : 0,
                     record.feat_true.size(), record.runs,
                     record.plan_nodes.size());
    AppendExactDouble(&out, record.median_seconds);
    out.push_back('\n');
    for (const PlanNodeRecord& node : record.plan_nodes) {
      AppendPlanNodeRow(&out, node);
    }
    out += "T";
    for (double v : record.total_run_seconds) {
      out.push_back(' ');
      AppendExactDouble(&out, v);
    }
    out.push_back('\n');
    for (size_t p = 0; p < record.pipeline_times.size(); ++p) {
      const PipelineTiming& timing = record.pipeline_times[p];
      out += StrFormat("P %d ", timing.pipeline);
      AppendExactDouble(&out, timing.median_seconds);
      for (double v : timing.run_seconds) {
        out.push_back(' ');
        AppendExactDouble(&out, v);
      }
      out.push_back('\n');
      AppendPipelineFeatures(&out, "FT", record.feat_true[p]);
      AppendPipelineFeatures(&out, "FE", record.feat_est[p]);
    }
  }
  return out;
}

Result<Corpus> ParseCorpus(std::string_view text) {
  return ParseCorpus(text, /*path=*/"");
}

Result<Corpus> LoadCorpusFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return ParseCorpus(*content, path);
}

Status SaveCorpusToFile(const Corpus& corpus, const std::string& path) {
  return WriteStringToFile(path, CorpusToText(corpus));
}

}  // namespace t3

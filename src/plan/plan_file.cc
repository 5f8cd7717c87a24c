#include "plan/plan_file.h"

#include <algorithm>

#include "common/string_util.h"

namespace t3 {

bool ReadPlanNodeRow(TextReader* reader, PlanNodeRecord* record) {
  return reader->Token() == "N" && reader->Int(&record->op) &&
         reader->Int(&record->left) && reader->Int(&record->right) &&
         reader->FiniteDouble(&record->cardinality) &&
         reader->FiniteDouble(&record->extra) &&
         reader->FiniteDouble(&record->width) && reader->Int(&record->stage);
}

void AppendPlanNodeRow(std::string* out, const PlanNodeRecord& record) {
  out->append(StrFormat("N %d %d %d ", record.op, record.left, record.right));
  AppendExactDouble(out, record.cardinality);
  out->push_back(' ');
  AppendExactDouble(out, record.extra);
  out->push_back(' ');
  AppendExactDouble(out, record.width);
  out->append(StrFormat(" %d\n", record.stage));
}

Result<std::vector<PlanNodeRecord>> ParsePlanText(std::string_view text) {
  TextReader reader(text);
  if (reader.Token() != "t3plan" || reader.Token() != "v1") {
    return InvalidArgumentError("not a t3plan v1 file");
  }
  const auto error = [&reader](const char* what) {
    return InvalidArgumentError(StrFormat("plan line %d: %s", reader.line(), what));
  };
  size_t num_nodes = 0;
  if (reader.Token() != "nodes" || !reader.Count(&num_nodes)) {
    return error("bad node count");
  }
  // An N row takes at least 16 bytes; plan text arrives from the network,
  // so reserve no more than the text can hold.
  std::vector<PlanNodeRecord> records;
  records.reserve(std::min(num_nodes, text.size() / 16));
  for (size_t i = 0; i < num_nodes; ++i) {
    PlanNodeRecord record;
    if (!ReadPlanNodeRow(&reader, &record)) return error("malformed N line");
    records.push_back(record);
  }
  if (!reader.AtEnd()) return error("trailing data after last node");
  return records;
}

std::string PlanRecordsToText(const std::vector<PlanNodeRecord>& records) {
  std::string out = "t3plan v1\n";
  out += StrFormat("nodes %zu\n", records.size());
  for (const PlanNodeRecord& record : records) AppendPlanNodeRow(&out, record);
  return out;
}

}  // namespace t3

#ifndef T3_PLAN_PLAN_FILE_H_
#define T3_PLAN_PLAN_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/text_format.h"
#include "plan/plan_record.h"

namespace t3 {

/// The one reader and writer of the "N" row (plan/plan_record.h), shared
/// by plan files and corpora:
///
///   N <op> <left> <right> <cardinality> <extra> <width> <stage>
///
/// ReadPlanNodeRow consumes one row and fails on a missing tag, a missing
/// or out-of-range field, or a non-finite number. AppendPlanNodeRow writes
/// one row (doubles via AppendExactDouble) and its newline.
bool ReadPlanNodeRow(TextReader* reader, PlanNodeRecord* record);
void AppendPlanNodeRow(std::string* out, const PlanNodeRecord& record);

/// Standalone plan files ("t3plan v1"): a plan skeleton serialized outside a
/// corpus as N rows. Golden plan fixtures under data/ use this format,
/// t3_lint runs PlanVerifier over them, and kPredictPlan requests carry it.
///
///   t3plan v1
///   nodes <n>
///   N <op> <left> <right> <cardinality> <extra> <width> <stage>   (x n)
///
/// Parsing is purely syntactic — structural validation is PlanVerifier's
/// job, so a file with a cycle or a bad op code still parses and every
/// invariant violation gets reported, not just the first.
Result<std::vector<PlanNodeRecord>> ParsePlanText(std::string_view text);

/// Serializes records back to "t3plan v1" text. Round-trips with
/// ParsePlanText bit-exactly.
std::string PlanRecordsToText(const std::vector<PlanNodeRecord>& records);

}  // namespace t3

#endif  // T3_PLAN_PLAN_FILE_H_

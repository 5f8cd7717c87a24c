// Reproduces Figure 8: q-errors of T3 broken down by query type on the
// TPC-DS-like test instances — the fixed benchmark queries ("Fixed") plus
// every generated structure group.

#include "bench_util.h"
#include "querygen/querygen.h"

namespace t3 {
namespace {

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const Corpus& corpus = workbench.corpus();
  const T3Model& t3 = workbench.MainModel();

  PrintExperimentHeader(
      "Figure 8: Q-errors by query type on TPC-DS data",
      "the paper finds join+aggregation groups (SeJSiA, CSeJA) easy and the "
      "fixed benchmark queries hardest; medians are stable across groups "
      "while p90/avg vary.");
  ReportTable table({"Query type", "n", "p50", "p90", "Avg"});

  // Fixed benchmark queries first.
  {
    const auto records = SelectRecords(corpus, bench::IsTestFixed);
    if (!records.empty()) {
      const QErrorSummary summary = Summarize(
          EvaluateModel(t3, records, CardinalityMode::kTrue));
      table.AddRow({"Fixed", StrFormat("%zu", summary.count),
                    bench::FormatQ(summary.p50), bench::FormatQ(summary.p90),
                    bench::FormatQ(summary.avg)});
    }
  }
  for (QueryGroup group : AllQueryGroups()) {
    const auto records = SelectRecords(corpus, [group](const QueryRecord& r) {
      return r.is_test && !r.fixed_suite &&
             r.structure_group == static_cast<int>(group);
    });
    if (records.empty()) continue;
    const QErrorSummary summary =
        Summarize(EvaluateModel(t3, records, CardinalityMode::kTrue));
    table.AddRow({QueryGroupName(group), StrFormat("%zu", summary.count),
                  bench::FormatQ(summary.p50), bench::FormatQ(summary.p90),
                  bench::FormatQ(summary.avg)});
  }
  table.Print();
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}

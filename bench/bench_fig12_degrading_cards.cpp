// Reproduces Figure 12: accuracy of T3 and the Zero-Shot-style NN under
// artificially degraded cardinality estimates, from exact (factor 1) to
// 1000x distorted. Evaluated on the JOB-like workload.

#include "baselines/zeroshot.h"
#include "bench_util.h"
#include "common/text_format.h"
#include "plan/cardinality.h"

namespace t3 {
namespace {

void Run() {
  Workbench& workbench = bench::SharedWorkbench();

  // Models trained without the IMDB-like instance (shared with Figure 10).
  const T3Model& t3 = workbench.GetModel(
      "t3_no_imdb", CardinalityMode::kTrue, [](const QueryRecord& r) {
        return !r.is_test && r.instance.rfind("imdb", 0) != 0;
      });
  std::unique_ptr<ZeroShotModel> zero_shot;
  {
    auto cached =
        ReadFileToString(workbench.data_dir() + "/model_zeroshot_no_imdb.txt");
    if (cached.ok()) {
      auto loaded = ZeroShotModel::Load(cached.value());
      if (loaded.ok()) zero_shot = std::move(loaded).value();
    }
    if (zero_shot == nullptr) {
      auto trained = ZeroShotModel::Train(
          SelectRecords(workbench.corpus(),
                        [](const QueryRecord& r) {
                          return !r.is_test &&
                                 r.instance.rfind("imdb", 0) != 0;
                        }),
          CardinalityMode::kTrue, ZeroShotConfig());
      T3_CHECK(trained.ok());
      zero_shot = std::move(trained).value();
      T3_CHECK_OK(WriteStringToFile(
          workbench.data_dir() + "/model_zeroshot_no_imdb.txt",
          zero_shot->Serialize()));
    }
  }

  std::fprintf(stderr, "[fig12] rebuilding JOB-like workload with plans...\n");
  const bench::JobWorkload workload = bench::BuildJobWorkload(3);
  T3_CHECK(!workload.queries.empty());

  PrintExperimentHeader(
      "Figure 12: Accuracy under artificially degraded cardinality "
      "estimates (JOB-like queries)",
      "both models start at similar accuracy and degrade drastically with "
      "distortion; the paper sees T3 degrade slightly faster for small "
      "errors and the NN degrade worse beyond ~500x.");
  ReportTable table({"Distortion", "T3 p50", "T3 avg", "NN p50", "NN avg"});
  for (double factor : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                        1000.0}) {
    const CardinalityProvider cards(CardinalityMode::kTrue, factor,
                                    /*seed=*/1234);
    std::vector<double> t3_qerrors;
    std::vector<double> nn_qerrors;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      const GeneratedQuery& query = workload.queries[q];
      const double actual = workload.median_seconds[q];
      const PipelinePlan pipelines = DecomposePipelines(query.plan);
      const double t3_pred =
          t3.PredictQuerySeconds(*workload.db, query.plan, pipelines, cards);
      t3_qerrors.push_back(QError(t3_pred, actual, 1e-7));

      // The NN sees the same distorted per-node cardinalities.
      std::vector<double> node_cards(
          static_cast<size_t>(query.plan.num_nodes), 0.0);
      std::vector<PlanNodeSummary> summary(
          static_cast<size_t>(query.plan.num_nodes));
      VisitPlan(*query.plan.root, [&](const PlanNode& node) {
        node_cards[static_cast<size_t>(node.id)] = cards.NodeCard(node);
        PlanNodeSummary& s = summary[static_cast<size_t>(node.id)];
        s.op = static_cast<int>(node.type);
        s.left = node.children.empty() ? -1 : node.children[0]->id;
        s.right = node.children.size() < 2 ? -1 : node.children[1]->id;
        s.width = static_cast<double>(node.TupleWidthBytes());
        s.num_predicates = static_cast<int>(node.predicates.size());
      });
      const double nn_pred =
          zero_shot->PredictQuerySecondsWithCards(summary, node_cards);
      nn_qerrors.push_back(QError(nn_pred, actual, 1e-7));
    }
    const QErrorSummary t3_summary = Summarize(t3_qerrors);
    const QErrorSummary nn_summary = Summarize(nn_qerrors);
    table.AddRow({StrFormat("%.0fx", factor), bench::FormatQ(t3_summary.p50),
                  bench::FormatQ(t3_summary.avg),
                  bench::FormatQ(nn_summary.p50),
                  bench::FormatQ(nn_summary.avg)});
  }
  table.Print();
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}

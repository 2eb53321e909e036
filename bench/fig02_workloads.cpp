// Figure 2: flow-size CDFs of the four production workloads used in the
// dynamic-flow experiments.
#include "bench/common.hpp"
#include "workload/flow_size_distribution.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  harness::Cli(argc, argv).reject_unknown();
  std::puts("Figure 2 — workloads used in dynamic flow experiments\n");
  const double probs[] = {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0};

  harness::Table t({"cdf", "websearch_KB", "datamining_KB", "cache_KB", "hadoop_KB"});
  for (const double p : probs) {
    std::vector<std::string> row{bench::fmt(p, 2)};
    for (const auto* w : workload::all_workloads()) {
      row.push_back(bench::fmt(w->quantile(p) / 1000.0, 1));
    }
    t.row(std::move(row));
  }
  t.print();

  std::puts("");
  harness::Table m({"workload", "mean_KB", "median_KB", "p99_MB"});
  for (const auto* w : workload::all_workloads()) {
    m.row({std::string(w->name()), bench::fmt(w->mean_bytes() / 1000.0, 1),
           bench::fmt(w->quantile(0.5) / 1000.0, 1), bench::fmt(w->quantile(0.99) / 1e6, 2)});
  }
  m.print();
  std::puts("\npaper shape: all four are heavy-tailed (median << mean)");
  return 0;
}

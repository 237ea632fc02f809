// One benchmark process: runs one workload once and prints its metrics as
// the last line of stdout (a JSON object; see harness.h). run.py starts a
// fresh process per sample, so no run sees another run's warm heap.
//
//   gvfs_perfbench --workload <postmark-deleg|fleet-agg|repo-adaptive>
//                  [--seed N] [--trace 0|1] [--paper]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gvfs_perfbench --workload <postmark-deleg|fleet-agg|repo-adaptive> "
               "[--seed N] [--trace 0|1] [--paper]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      opt.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--paper") {
      opt.paper = true;
    } else {
      return Usage();
    }
  }

  perfbench::Harness harness(opt);
  if (opt.workload == "postmark-deleg") {
    perfbench::RunPostmarkDeleg(harness);
  } else if (opt.workload == "fleet-agg") {
    perfbench::RunFleetAgg(harness);
  } else if (opt.workload == "repo-adaptive") {
    perfbench::RunRepoAdaptive(harness);
  } else {
    return Usage();
  }
  std::printf("%s\n",
              harness.report().Json(opt, harness.attempted(), harness.failed()).c_str());
  return harness.report().ok() ? 0 : 1;
}

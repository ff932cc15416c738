// perfbench_driver: one repetition of one benchmark workload in a fresh
// process. perfbench/run.py builds this program, runs it once per rep and
// prints the aggregated result; see perfbench/README.md.
//
//   perfbench_driver --workload label_engine|label_fleet|pipeline_cnn
//                    --mode setup|timed|traced --seed N --work-dir DIR
//                    [--qor-file FILE] [--plant-wrong-label]
//
// Prints one JSON object on its last stdout line. Exit 0 when the rep ran
// (its label check may still have failed: see "failed"), 1 on error.

#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.workload == "label_engine") return perfbench::run_engine(args);
    if (args.workload == "label_fleet") return perfbench::run_fleet(args);
    if (args.workload == "pipeline_cnn") return perfbench::run_pipeline(args);
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}

#pragma once
// One entry point per workload; each runs one repetition in this process.

#include "common.hpp"

namespace perfbench {

int run_engine(const Args& args);
int run_fleet(const Args& args);
int run_pipeline(const Args& args);

}  // namespace perfbench

#pragma once

// The four workloads. Each builds its inputs from options.seed, times its
// set-up and its passes, checks its outputs and fills `result`: the
// end-to-end metrics when untraced, the per-layer metrics when traced.

#include "context.hpp"

namespace cabench {

void run_characterize(const Options& options, Result& result);
void run_learn(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);
void run_route(const Options& options, Result& result);

}  // namespace cabench

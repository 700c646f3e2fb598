// The traced run: one pass over a workload's distinct inputs at jobs 1,
// with spans around the benchmark's own calls into each module and work
// counts read from the obs registry around the same calls.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Analysis layers (xapk, semantics, slicing + taint, sig, txn, core
/// residual), then the cache layer and the daemon's request path. Adds
/// every per-layer metric to `metrics`, the per-input breakdown to
/// `per_app`, and the spans to `tracer`.
void run_layers(const WorkloadInputs& w, const std::vector<std::size_t>& subset,
                std::size_t reps, const std::string& dir, MetricSink& metrics,
                Tracer& tracer, text::Json& per_app, Checks& checks);

}  // namespace perfbench

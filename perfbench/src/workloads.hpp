// The timed phase of each workload (tracing off) and the set-up it needs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    Samples setup_s;     // one sample per repeated set-up
    Samples latency_ms;  // per app (fleet_batch, large_app) or per request
    double apps_per_s = 0;
    double peak_rss_mb = 0;
    Samples hit_latency_ms;  // daemon_mixed: the cache-hit requests alone
    Samples late_ms;  // daemon_mixed: how late the generator sent each request
    std::uint64_t cache_hits = 0;  // daemon_mixed: the daemon's own cache tally
    std::uint64_t cache_misses = 0;
};

/// Runs one workload's set-up and its timed phase of `seconds`. `dir` is a
/// run directory under the current one (daemon socket and cache).
RunResult run_workload(const WorkloadInputs& w, double seconds, const std::string& dir,
                       Checks& checks);

/// Median wall time of constructing an Analyzer at `jobs` (which builds
/// the standard semantic model), over `reps` constructions.
Samples analyzer_construction_s(unsigned jobs, std::size_t reps);

/// Peak resident set size of this process while a sampler is alive.
class RssSampler {
public:
    RssSampler();
    ~RssSampler();
    RssSampler(const RssSampler&) = delete;
    RssSampler& operator=(const RssSampler&) = delete;
    /// Stops sampling and returns the peak in MB.
    double stop();

private:
    std::atomic<bool> done_{false};
    std::atomic<std::uint64_t> peak_bytes_{0};
    std::thread thread_;
};

}  // namespace perfbench

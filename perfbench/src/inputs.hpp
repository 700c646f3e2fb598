// Seeded input generation for the three workloads. The program under test
// only ever sees the generated .xapk texts; the seed, the specs and the
// ground truth stay on the benchmark's side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus/spec.hpp"
#include "eval/eval.hpp"

namespace perfbench {

struct Input {
    std::string label;
    corpus::AppSpec spec;  // regenerated for ground truth, never sent
    std::string text;      // the .xapk the program analyzes
    /// Set-up results: canonical hash of the cold Analyzer report, and the
    /// report's accuracy against the spec's ground truth.
    std::uint64_t reference = 0;
    eval::Counts counts;
};

/// One daemon request slot of the open-loop schedule.
struct Request {
    double due_ms = 0;     // offset from the start of the timed phase
    std::uint32_t input = 0;
    bool miss = false;     // a new release: its content key is not cached
};

struct WorkloadInputs {
    std::string workload;
    /// fleet_batch: the 34 corpus apps. large_app: the variant population.
    /// daemon_mixed: the 34 primed corpus apps, then one new release per
    /// miss slot of the schedule.
    std::vector<Input> inputs;
    std::size_t primed = 0;  // daemon_mixed: inputs[0, primed) are primed
    /// fleet_batch: pass orders back to back (34 indices per pass).
    /// large_app: the order apps are analyzed in, cycle after cycle.
    std::vector<std::uint32_t> sequence;
    std::vector<Request> schedule;  // daemon_mixed only
    /// Hash over every input byte and the whole order or schedule.
    std::uint64_t fingerprint = 0;
};

inline constexpr const char* kWorkloads[] = {"fleet_batch", "large_app", "daemon_mixed"};
/// Fleet passes run 34 apps on 2 app-level threads; large_app analyzes one
/// app at a time with 2 in-app threads; the daemon runs at jobs 1.
inline constexpr unsigned kFleetJobs = 2;
inline constexpr unsigned kLargeJobs = 2;
inline constexpr unsigned kDaemonJobs = 1;
/// daemon_mixed open-loop rate (requests per second over two connections)
/// and the share of slots that carry a new release.
inline constexpr double kDaemonRate = 100.0;
inline constexpr std::size_t kMissEvery = 10;

/// Texts, orders and schedule for one workload. Pure function of its
/// arguments; `seconds` sizes the schedule and the order sequences.
WorkloadInputs generate_inputs(const std::string& workload, std::uint64_t seed,
                               double seconds);

/// Cold reference reports (analyze_batch at `jobs`, outside any timing) and
/// their accuracy against ground truth, for every input.
void prepare_references(WorkloadInputs& w, unsigned jobs);

}  // namespace perfbench

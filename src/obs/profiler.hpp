// Work-attribution profiler: who spent the steps, statements and seconds?
//
// The obs stack's spans and histograms answer "how long did phase X take";
// this layer answers "which DP site / app method inside the phase did the
// work". Three rules keep it deterministic and cheap:
//
//  * All *counts* (taint steps, interpreted statements, contexts) derive
//    from per-item deterministic work, so their sums are independent of
//    thread interleaving. The `--profile` table renders counts only and is
//    byte-identical for any --jobs value (enforced by determinism_test).
//  * Wall-clock attribution (slice/sig self-time) is inherently racy across
//    runs, so it is confined to the `--profile-out` sidecar JSON, which is
//    exempt from the determinism contract.
//  * Profiling is a property of a run (obs::RunScope, obs/metrics.hpp): the
//    CLI opens its run with profiling on, and nested runs and stage units
//    inherit it. A run that does not profile costs one flag read per
//    analysis, taint run and build, and nothing per step (engines keep
//    local accumulators and charge once per run).
//
// A Profiler is a plain value: the rows of one run. Both row kinds ride on
// the run's stage units, so one rule decides what counts: a unit's rows
// count only if it folds below the budget cut. core/analyzer.cpp runs one
// unit per slicing site and per signature context under the site key; a
// site row's step column is its unit's step count, by phase, and
// slicing/slicer.cpp charges its contexts. Method rows go through
// RunScope::charge_method — taint/engine.cpp (worklist iterations),
// sig/builder.cpp and interp/interpreter.cpp (statements). Nested runs
// absorb their rows like their counters, and RunScope::close() hands the
// run's rows back in its ledger; `--profile`, `--profile-out` and the
// manifest totals render the CLI run's.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/json.hpp"

namespace extractocol::obs {

/// Cumulative cost charged to one demarcation-point site ("app|dp @
/// location (m:b:i)"). Counts are deterministic; seconds are not.
struct SiteProfile {
    std::string site;
    std::uint64_t taint_steps = 0;    ///< worklist steps in request/response/augment slicing
    std::uint64_t sig_steps = 0;      ///< signature-interpreter statements for all contexts
    std::uint64_t contexts = 0;       ///< calling contexts discovered for the site
    double slice_seconds = 0.0;       ///< wall self-time inside slice_site (sidecar only)
    double sig_seconds = 0.0;         ///< wall self-time inside signature builds (sidecar only)

    [[nodiscard]] std::uint64_t total_steps() const { return taint_steps + sig_steps; }
};

/// Cumulative cost charged to one app method ("app|Cls.method").
struct MethodProfile {
    std::string method;
    std::uint64_t taint_steps = 0;    ///< taint worklist iterations touching the method
    std::uint64_t interp_stmts = 0;   ///< statements interpreted (sig builds + fuzzing)

    [[nodiscard]] std::uint64_t total_steps() const { return taint_steps + interp_stmts; }
};

/// The --profile rows of one run, keyed by site and by method.
class Profiler {
public:
    /// Fold a site row into the per-site table (sums all fields).
    void merge_site(const SiteProfile& delta);
    /// Charge per-method work (either count may be zero). Engines charge
    /// through obs::RunScope::charge_method instead.
    void charge_method(std::string_view method_key, std::uint64_t taint_steps,
                       std::uint64_t interp_stmts);
    /// Adds every row of `other`.
    void merge(const Profiler& other);

    /// Snapshots sorted by total cost descending, then key ascending.
    [[nodiscard]] std::vector<SiteProfile> sites() const;
    [[nodiscard]] std::vector<MethodProfile> methods() const;

    /// Deterministic top-K table (counts only, no timings) for `--profile`.
    [[nodiscard]] std::string table(std::size_t top_k = 20) const;
    /// Full sidecar document (timings included) for `--profile-out`.
    [[nodiscard]] text::Json to_json() const;
    /// Deterministic aggregate totals for the run manifest's "profile" block.
    [[nodiscard]] text::Json summary_json() const;

private:
    std::unordered_map<std::string, SiteProfile> sites_;
    std::unordered_map<std::string, MethodProfile> methods_;
};

/// Canonical site key, shared by the analyzer's slicing units (kSlice) and
/// signature units (kSig) so both stages merge into one row.
[[nodiscard]] std::string profile_site_key(std::string_view app, std::string_view dp,
                                           std::string_view location, std::uint32_t method_index,
                                           std::uint32_t block, std::uint32_t index);

/// Canonical method key ("app|Cls.method").
[[nodiscard]] std::string profile_method_key(std::string_view app,
                                             std::string_view qualified_method);

/// Install the support::parallel batch-stats hook that turns per-batch
/// worker timings into `parallel.*` histograms (queue_wait_ms, busy_ms,
/// utilization, imbalance, claimed_indices, batch_ms). Idempotent; safe to
/// call from multiple entry points (CLI, benches, tests).
void install_contention_metrics();

}  // namespace extractocol::obs

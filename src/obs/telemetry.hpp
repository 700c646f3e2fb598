// Run telemetry (observability layer, part 3 — see metrics.hpp, trace.hpp).
//
// A batch run over many apps is the unit Extractocol's evaluation measures
// (PAPER.md §4) and the unit a fleet orchestrator schedules. RunTelemetry
// collects one AppRunRecord per input — terminal outcome, per-phase wall
// clock, budget consumption, peak memory — and aggregates them into fleet
// statistics (apps/sec throughput, per-app latency percentiles via
// HistogramStats). manifest_json() renders the whole run as a JSON ledger an
// orchestrator can store and diff across runs; the CLI's --run-manifest flag
// writes it.
//
// Determinism contract: every field of the manifest is byte-identical for
// any --jobs value EXCEPT resource measurements (wall clock, phase timings,
// throughput, latency, memory) and run metadata (timestamp, jobs).
// manifest_json(/*normalize_resources=*/true) zeroes exactly those fields,
// and tests/determinism_test.cpp enforces that the normalized rendering is
// byte-identical at --jobs 1/2/8 — including the poisoned-input batch case.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "text/json.hpp"

namespace extractocol::obs {

/// Telemetry record of one unit of work: one input of a batch run, or one
/// daemon request. core::telemetry_record fills the analysis fields on both
/// paths; the run manifest and the access journal are its two sinks.
/// Deterministic fields (outcome, steps, budget fraction, transaction
/// counts; a request's op, cached flag and error) come straight from the
/// work; wall clock, memory, sizes and ids are measurements.
struct AppRunRecord {
    /// Daemon requests only: monotonic per-daemon request and connection
    /// ids (1-based), the op ("file" | "xapk" | "ping" | "status" |
    /// "metrics" | "health" | "shutdown" | "invalid"), the cache key
    /// (non-empty iff a cache lookup happened), whether the response
    /// replayed a cached report, and the response line's size.
    std::uint64_t request_id = 0;
    std::uint64_t connection_id = 0;
    std::string op;
    std::string key;
    bool cached = false;
    std::uint64_t response_bytes = 0;

    /// The input label (a file path, or "<inline>" for a daemon request).
    std::string file;
    /// Terminal outcome of an analysis: "complete" (every DP site
    /// complete), "partial" (some site degraded), "budget_exhausted" (the
    /// per-app step budget ran out), or "error" (the input failed and was
    /// contained). The journal renders "ok"/"error" from `error` instead.
    std::string outcome;
    /// The contained failure message (a daemon request's response error);
    /// non-empty iff the work failed.
    std::string error;
    double wall_seconds = 0;
    /// Per-phase wall times in pipeline order (a cache hit replays the cold
    /// run's stored timings: the phases belong to the report).
    std::vector<PhaseTiming> phases;
    /// Abstract steps charged against the per-app budget (taint worklist
    /// iterations + signature-builder statement executions).
    std::uint64_t steps_used = 0;
    /// steps_used / max_total_steps; 0 when the run was unlimited.
    double budget_fraction = 0;
    /// Peak tracked bytes attributed to this work (0 unless memtrack is
    /// enabled and apps ran sequentially — see DESIGN.md §11; concurrent
    /// daemon requests overlap, so treat theirs as an upper bound).
    std::uint64_t peak_bytes = 0;
    std::uint64_t transactions = 0;
    std::uint64_t dependencies = 0;
    /// Per-app accuracy block (eval::EvalResult::accuracy_json) — the schema
    /// v2 addition, present only when the run scored accuracy (--eval). The
    /// block is derived from deterministic inputs, so normalization leaves
    /// it untouched.
    std::optional<text::Json> accuracy;

    /// The run manifest's per-app entry.
    [[nodiscard]] text::Json manifest_json() const;
    /// The access-journal line (compact: one object, stable key order).
    [[nodiscard]] text::Json journal_json() const;
};

/// Fleet-level aggregate of a run's AppRunRecords.
struct FleetStats {
    std::size_t apps = 0;
    std::size_t errors = 0;
    /// Outcome tally, sorted by outcome name.
    std::vector<std::pair<std::string, std::uint64_t>> outcomes;
    double wall_seconds = 0;     // whole-run wall clock
    double apps_per_second = 0;  // apps / wall_seconds
    /// Per-app latency distribution (milliseconds).
    HistogramStats latency_ms;
};

// --------------------------------------------- request-scoped telemetry --
// The --serve daemon's unit of attribution is one socket request, not one
// batch run: production debugging needs "what did request 4217 cost and did
// it hit the cache", which end-of-run aggregates cannot answer. Every
// daemon request becomes one AppRunRecord (the access-journal line and the
// slow-request log) plus the counts its RunScope closed with, and
// RequestTelemetry folds that stream into the live tallies and windows the
// status/metrics admin ops report. Nothing here lives in the metrics
// registry, so two daemons in one process never see each other's figures.

/// Request figures over one span of time: one slot of the sliding-window
/// ring, or the merge of every slot still inside the window.
struct RequestWindow {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    /// Cache lookups that hit / missed (requests with a cache key only).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    HistogramStats latency_ms;

    void merge_from(const RequestWindow& other);
};

/// One consistent read of a daemon's telemetry, taken under one lock.
struct RequestStats {
    /// Per-op completion tally, sorted by op name.
    std::vector<std::pair<std::string, std::uint64_t>> ops;
    /// Every counter this daemon's requests bumped, sorted by name.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /// Requests that took an id and are not yet recorded.
    std::int64_t inflight = 0;
    /// Latency of every request since the daemon started.
    HistogramStats latency_ms;
    /// The last window_seconds: count 0 (null percentiles) once it has slid
    /// past the last request.
    RequestWindow window;
    double window_seconds = 0;

    /// One counter of the tally (0 when never bumped).
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
    /// The metrics op's snapshot: `registry`'s gauges and histograms with
    /// these counters in place of its own, and the daemon series merged in
    /// by name — gauges daemon.connections.active, daemon.requests.inflight
    /// and daemon.{requests,request_errors,cache.hits,cache.misses}.window,
    /// histograms daemon.request_ms and daemon.request_ms.window.
    [[nodiscard]] MetricsSnapshot merged_into(MetricsSnapshot registry,
                                              std::int64_t connections_active) const;
};

/// Folds the daemon's request stream into live telemetry: a per-daemon
/// counter tally (each request's scope counts plus daemon.requests,
/// daemon.request_errors and daemon.cache.hits/misses), the op tally, the
/// lifetime latency summary, and a ring of kWindowSlots slots of
/// kSlotWidth each (a one-minute sliding window). A write lands in the slot
/// of its time slice, recycling a slot whose slice has left the window;
/// reads merge only the slots still inside it. All methods are
/// thread-safe; one instance lives for the daemon's lifetime.
class RequestTelemetry {
public:
    using Clock = std::chrono::steady_clock;

    /// Assigns the next monotonic request id (1-based); the request counts
    /// as in flight until record() folds it in.
    [[nodiscard]] std::uint64_t next_request_id();
    /// Folds one completed request in: `counters` are the counts its
    /// RunScope closed with.
    void record(const AppRunRecord& record,
                const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
        record_at(record, counters, Clock::now());
    }
    [[nodiscard]] RequestStats snapshot() const { return snapshot_at(Clock::now()); }

    /// The same with an explicit time, so tests can drive the ring.
    void record_at(const AppRunRecord& record,
                   const std::vector<std::pair<std::string, std::uint64_t>>& counters,
                   Clock::time_point now);
    [[nodiscard]] RequestStats snapshot_at(Clock::time_point now) const;

private:
    static constexpr std::size_t kWindowSlots = 12;
    static constexpr std::chrono::seconds kSlotWidth{5};

    struct Slot {
        std::int64_t tick = -1;  // -1 = never written
        RequestWindow figures;
    };
    [[nodiscard]] std::int64_t tick_of(Clock::time_point t) const;

    const Clock::time_point epoch_ = Clock::now();
    std::atomic<std::uint64_t> next_id_{0};
    std::atomic<std::int64_t> inflight_{0};
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, std::uint64_t>> ops_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
    HistogramStats latency_ms_;
    std::array<Slot, kWindowSlots> ring_{};
};

/// Collects per-app records during a batch run and renders the run ledger.
/// add() is thread-safe; records are kept in insertion order, so callers
/// that need input order (the CLI, the determinism tests) add sequentially
/// from the ordered batch result.
class RunTelemetry {
public:
    void set_jobs(unsigned jobs);
    void set_timestamp_unix_ms(std::uint64_t ms);
    void set_run_wall_seconds(double seconds);
    /// Attaches a metrics snapshot: the counters the run's RunScope closed
    /// with, next to the registry's gauges and histograms. Rendered into the
    /// manifest with Prometheus-sanitized names.
    void set_metrics(MetricsSnapshot snapshot);
    /// Attaches the run's deterministic profile totals (its ledger's
    /// Profiler::summary_json) as the manifest's "profile" section. Omitted
    /// when never set.
    void set_profile_summary(text::Json summary);
    /// Attaches the fleet accuracy block (eval::FleetEval::accuracy_json) as
    /// the manifest fleet's "accuracy" section. Omitted when never set.
    void set_fleet_accuracy(text::Json accuracy);
    /// Attaches the report-cache block (cache::ReportCache::stats_json) as
    /// the manifest's "cache" section — the cache index a warm fleet run is
    /// scheduled from. Omitted when the run used no cache. Normalization
    /// zeroes only its "bytes" member (entry payloads embed measured
    /// timings, so their size is a resource measurement; hit/miss/store
    /// counts are deterministic per workload).
    void set_cache(text::Json cache);

    void add(AppRunRecord record);

    [[nodiscard]] std::size_t app_count() const;
    [[nodiscard]] FleetStats fleet() const;

    /// The run ledger: schema tag, run metadata, per-app records, fleet
    /// aggregate, and the attached metrics section. With
    /// `normalize_resources` every wall-clock/memory/timestamp/jobs field is
    /// zeroed (histogram stats and gauge values included) so the rendering
    /// is byte-comparable across runs and --jobs values.
    [[nodiscard]] text::Json manifest_json(bool normalize_resources = false) const;

private:
    mutable std::mutex mutex_;
    unsigned jobs_ = 1;
    std::uint64_t timestamp_unix_ms_ = 0;
    double run_wall_seconds_ = 0;
    std::optional<MetricsSnapshot> metrics_;
    std::optional<text::Json> profile_summary_;
    std::optional<text::Json> fleet_accuracy_;
    std::optional<text::Json> cache_;
    std::vector<AppRunRecord> records_;
};

}  // namespace extractocol::obs

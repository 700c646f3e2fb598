// Pipeline metrics (observability layer, part 1 of 2 — see trace.hpp).
//
// A process-wide MetricsRegistry holds named instruments:
//   * Counter   — monotonically increasing event count;
//   * Gauge     — last-written signed value;
//   * Histogram — count/sum/min/max summary of observed samples.
// That is all it holds: a --serve daemon's request figures (its windows,
// in-flight and connection counts) live in that daemon's own
// obs::RequestTelemetry (telemetry.hpp), never here.
//
// Hot-loop protocol: acquire the instrument ONCE outside the loop
// (`obs::Counter& c = obs::counter("taint.worklist_iterations");`) and call
// `c.add()` inside. Acquisition takes the registry lock, scans the names
// and may allocate, so a function that runs per app, per site or per build
// acquires its fixed-name instruments once too (a function-local
// `static obs::Counter&`).
// An `add()` of a global-registry counter inside a RunScope (below) lands
// in that scope as a plain integer add and reaches the registry when the
// outermost scope closes; outside any scope it is one relaxed atomic
// increment.
//
// Metric names are dot-scoped by pipeline stage (`xapk.`, `slicer.`,
// `taint.`, `interp.`, `sig.`, `txn.`) and documented in DESIGN.md
// ("Observability"). Durations are histograms with an `_ms` suffix.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "text/json.hpp"

namespace extractocol::obs {

class MetricsRegistry;

class Counter {
public:
    inline void add(std::uint64_t n = 1);
    /// Registry total: adds made inside a still-open RunScope are not
    /// visible here until the outermost scope closes.
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

private:
    friend class MetricsRegistry;
    friend class RunScope;
    Counter(std::string name, bool scoped) : name_(std::move(name)), scoped_(scoped) {}
    std::atomic<std::uint64_t> value_{0};
    const std::string name_;
    const bool scoped_;  // global-registry counter: run scopes may collect it
};

// ------------------------------------------------------------ run scopes --
// Run-scoped attribution (DESIGN.md §8), the one way work is attributed.
// core::Analyzer::analyze opens one RunScope per run; the CLI opens one
// over its whole run, analyze_batch one over its inputs and the daemon one
// per request. While a scope is innermost on a thread, adds to
// global-registry counters, unmodeled-API calls and --profile charges land
// in it, so a run counts exactly its own work.
//
// Parallel work goes through a Stage: one unit per index, run on whichever
// pool thread claims it. Each unit reports its step count, and the stage's
// frontier folds finished units into the run in index order. A run opened
// with a step limit stops folding after the unit whose steps cross it; the
// units past that cut count nowhere, and units not yet started are skipped.
// The cut depends only on the per-unit step counts, so counters, steps and
// --profile rows are the same at any thread count.
//
// Scopes nest: a closing run folds its whole ledger into the scope
// enclosing it on its thread, and only an outermost run adds its counters
// to the registry, the exact process aggregate. Profiling is inherited:
// nested runs and stage units profile when the run they sit in does. Steps
// do not nest: each run keeps its own.
class RunScope {
    struct Unit;

public:
    /// Which step and wall-clock columns of a --profile site row a stage's
    /// units fill.
    enum class Phase { kSlice, kSig };

    class Stage;

    /// Everything a run counted, handed back by close().
    struct Ledger {
        /// Name-sorted non-zero counter totals.
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        /// Calls that reached an API neither the app nor the semantic model
        /// defines, keyed "Cls.method" (the report's unmodeled-API table).
        std::map<std::string, std::uint64_t> unmodeled_apis;
        /// --profile site and method rows; empty unless the run profiles.
        Profiler profile;
    };

    /// Opens the run as the innermost scope on this thread, nested in the
    /// scope that was innermost before. Its stages fold units until their
    /// steps exceed `max_steps`; 0 means unlimited. The run collects
    /// --profile rows when `profile` is set or the enclosing scope profiles.
    /// A run destroyed without close() (an exception unwound it) unbinds and
    /// counts nowhere.
    explicit RunScope(std::size_t max_steps = 0, bool profile = false);

    /// Steps of the units folded so far. Read between stages.
    [[nodiscard]] std::size_t steps_used() const { return steps_used_; }
    /// Set, for good, when a fold crosses the step limit.
    [[nodiscard]] bool exhausted() const {
        return exhausted_.load(std::memory_order_relaxed);
    }

    /// Unbinds the run, adds its ledger to the enclosing scope on this
    /// thread (its counters to the registry when there is none) and returns
    /// the run's own ledger. Takes no registry lock, so a daemon request's
    /// close never waits on another request's analysis. Call once.
    [[nodiscard]] Ledger close();

    /// Whether the innermost scope on this thread collects --profile rows;
    /// engines read it once per run and skip their per-method tallies when
    /// it is off.
    [[nodiscard]] static bool profiling() {
        return current_ != nullptr && current_->profiling;
    }
    /// Counts one unmodeled-API call in the innermost scope; dropped
    /// outside any scope.
    static void count_unmodeled_api(std::string_view class_name,
                                    std::string_view method_name) {
        if (current_ != nullptr) {
            current_->unmodeled_apis[std::string(class_name).append(".").append(method_name)] += 1;
        }
    }
    /// --profile charges to the innermost scope on this thread; outside any
    /// scope they are dropped. Contexts reach a site row only from a unit
    /// run with a site. A method row travels like a counter add and never
    /// counts from a unit past the cut.
    static void charge_contexts(std::uint64_t n) {
        if (current_ != nullptr) current_->site_row.contexts += n;
    }
    static void charge_method(const std::string& method_key, std::uint64_t taint_steps,
                              std::uint64_t interp_stmts) {
        if (current_ != nullptr) {
            current_->profile.charge_method(method_key, taint_steps, interp_stmts);
        }
    }

private:
    friend class Counter;

    /// One scope's accumulator: (counter, count) pairs — a unit touches a
    /// few dozen counters at most — the unmodeled-API tally, the --profile
    /// rows folded into it, and the site row of a unit run with a site.
    struct Unit {
        std::vector<std::pair<Counter*, std::uint64_t>> counts;
        std::map<std::string, std::uint64_t> unmodeled_apis;
        Profiler profile;
        SiteProfile site_row;
        bool profiling = false;

        void add(Counter* key, std::uint64_t n) {
            for (auto& [counter, count] : counts) {
                if (counter == key) {
                    count += n;
                    return;
                }
            }
            counts.emplace_back(key, n);
        }
        /// Adds `other`'s counts, unmodeled-API tally and rows (not its own
        /// site row).
        void absorb(const Unit& other);
    };

    /// Makes `unit` the innermost scope on this thread until destruction;
    /// a non-empty `site` names the unit's --profile row and times it.
    class Enter {
    public:
        explicit Enter(Unit& unit, std::string site = {}, Phase phase = Phase::kSlice);
        ~Enter();
        Enter(const Enter&) = delete;
        Enter& operator=(const Enter&) = delete;

    private:
        Unit* prev_;
        double* seconds_ = nullptr;
        std::chrono::steady_clock::time_point start_;
    };

    static inline thread_local Unit* current_ = nullptr;

    const std::size_t max_steps_;
    std::size_t steps_used_ = 0;  // written by the open stage's frontier only
    std::atomic<bool> exhausted_{false};
    Unit run_;
    std::optional<Enter> bound_;
};

/// One parallel stage of a run: `units` index-addressed units, each run at
/// most once, on any thread. Units fold into an accumulator the stage owns,
/// which reaches the run at finish(), so nothing the run's own thread does
/// meanwhile races with the fold.
class RunScope::Stage {
public:
    Stage(RunScope& run, std::size_t units, Phase phase = Phase::kSlice)
        : run_(&run), phase_(phase), slots_(units) {}
    Stage(const Stage&) = delete;
    Stage& operator=(const Stage&) = delete;

    /// Runs unit `index` on this thread, unless the run's step limit is
    /// already spent: then the unit lies past the cut and is skipped.
    /// `work` runs inside the unit and returns its step count (a void
    /// `work` reports none); a non-empty `site` names its --profile row,
    /// whose step column for the stage's phase is that count.
    template <typename Work>
    void run(std::size_t index, Work&& work, std::string site = {}) {
        if (run_->exhausted()) return;
        std::size_t steps = 0;
        {
            slots_[index].unit.profiling = run_->run_.profiling;
            Enter enter(slots_[index].unit, std::move(site), phase_);
            if constexpr (std::is_void_v<std::invoke_result_t<Work&>>) {
                work();
            } else {
                steps = work();
            }
        }
        record(index, steps);
    }

    /// Call once, on the run's thread, after every unit has run or been
    /// skipped. Merges the folded units into the run and returns the cut:
    /// units [0, cut) count, units [cut, n) do not. The cut is n unless the
    /// limit was crossed; the crossing unit itself counts.
    [[nodiscard]] std::size_t finish();

private:
    struct Slot {
        Unit unit;
        std::size_t steps = 0;
        bool done = false;
    };

    /// Marks `index` done and folds every ready unit, in index order.
    void record(std::size_t index, std::size_t steps);

    RunScope* run_;
    const Phase phase_;
    std::mutex mutex_;
    std::vector<Slot> slots_;
    std::size_t frontier_ = 0;
    Unit folded_;
};

inline void Counter::add(std::uint64_t n) {
    RunScope::Unit* scope = RunScope::current_;
    if (scope != nullptr && scoped_) {
        scope->add(this, n);
    } else {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
}

class Gauge {
public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<std::int64_t> value_{0};
};

struct HistogramStats {
    /// Bounded log2-spaced buckets for percentile estimates: bucket i counts
    /// samples in (kBucketBase * 2^(i-1), kBucketBase * 2^i], bucket 0 holds
    /// everything up to and including kBucketBase, the last bucket is
    /// open-ended. Upper-inclusive buckets let percentile() return a
    /// bucket's upper bound and never underestimate, up to log2 rounding:
    /// the index is ceil(log2(x / base)), so each boundary kBucketBase * 2^k
    /// lands in bucket k, but for k >= 4 a sample less than ~1e-14
    /// (relative) above it can too. With base 0.001 (1µs when samples are
    /// milliseconds) 40 buckets span ~15 orders of magnitude in 320 bytes
    /// per instrument.
    static constexpr std::size_t kBucketCount = 40;
    static constexpr double kBucketBase = 0.001;

    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};

    [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Estimated q-quantile (q in [0,1]) from the bucket histogram: walks the
    /// cumulative counts to the target rank and returns that bucket's upper
    /// bound, clamped into [min, max] so estimates never leave the observed
    /// range. Exact for count<=1; a <=2x overestimate otherwise.
    [[nodiscard]] double percentile(double q) const;
    [[nodiscard]] double p50() const { return percentile(0.50); }
    [[nodiscard]] double p95() const { return percentile(0.95); }
    [[nodiscard]] double p99() const { return percentile(0.99); }

    /// Bucket index for a sample (shared by observe() and tests).
    [[nodiscard]] static std::size_t bucket_index(double sample);

    /// Adds one sample; histograms, the daemon's request latency and the
    /// run manifest's fleet latency take their samples through here.
    void observe(double sample);

    /// Folds another summary into this one: counts and bucket tallies add,
    /// min/max widen. The daemon's sliding window merges its live slots
    /// through here on every read.
    void merge_from(const HistogramStats& other);
};

class Histogram {
public:
    void observe(double sample);
    [[nodiscard]] HistogramStats stats() const;
    void reset();

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

private:
    friend class MetricsRegistry;
    Histogram() = default;
    mutable std::mutex mutex_;
    HistogramStats stats_;
};

/// Sanitizes a dot-scoped instrument name for Prometheus exposition:
/// '.' becomes '_', any character outside [a-zA-Z0-9_:] becomes '_', and a
/// leading digit gains a '_' prefix. The single source of truth for metric
/// renaming — both the text exposition and the sanitized JSON rendering go
/// through here, so the two exports can never drift apart.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Naming convention of a metrics rendering: kDotted keeps the registry's
/// canonical dot-scoped names (the repo-internal JSON convention);
/// kPrometheus rewrites every name through sanitize_metric_name().
enum class NameStyle { kDotted, kPrometheus };

/// Canonical JSON rendering of histogram stats, shared by the snapshot
/// export and telemetry manifests. A histogram with zero samples renders
/// min/max/mean/p50/p95/p99 as JSON null — 0.0 would be indistinguishable
/// from a genuinely observed zero; `count` disambiguates.
[[nodiscard]] text::Json histogram_stats_json(const HistogramStats& stats);

/// Point-in-time copy of every instrument, sorted by name.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramStats>> histograms;

    [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
    [[nodiscard]] const HistogramStats* histogram(std::string_view name) const;

    [[nodiscard]] text::Json to_json(NameStyle style = NameStyle::kDotted) const;
    /// Aligned human-readable table (one instrument per line).
    [[nodiscard]] std::string to_table() const;
    /// Prometheus text exposition format (version 0.0.4): counters and
    /// gauges as single samples, histograms as summaries with
    /// quantile="0.5/0.95/0.99" samples plus _sum and _count. Names are
    /// sanitized with sanitize_metric_name(); output order follows the
    /// snapshot's name sort, so the rendering is deterministic.
    [[nodiscard]] std::string to_prometheus() const;
};

/// Thread-safe instrument registry. Instruments live for the lifetime of the
/// registry; references returned by counter()/gauge()/histogram() are stable.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry used by the pipeline instrumentation.
    static MetricsRegistry& global();

    /// Finds or creates the named instrument.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    /// The snapshot always ends with two synthetic gauges,
    /// `obs.registry.lock_waits` / `obs.registry.lock_wait_us`: how often
    /// (and for how long) instrument acquisition or snapshotting blocked on
    /// the registry mutex. Always present — even at zero — so the exported
    /// key set does not depend on scheduling.
    [[nodiscard]] MetricsSnapshot snapshot() const;
    /// Zeroes every instrument (registrations and references stay valid).
    void reset();

private:
    /// Locks mutex_, attributing any blocking wait to the lock-contention
    /// accumulators (try_lock first, so the uncontended path costs nothing).
    [[nodiscard]] std::unique_lock<std::mutex> acquire() const;

    mutable std::mutex mutex_;
    mutable std::atomic<std::uint64_t> lock_waits_{0};
    mutable std::atomic<std::uint64_t> lock_wait_ns_{0};
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
    std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

// Global-registry shorthands used at instrumentation sites.
inline Counter& counter(std::string_view name) {
    return MetricsRegistry::global().counter(name);
}
inline Gauge& gauge(std::string_view name) {
    return MetricsRegistry::global().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
    return MetricsRegistry::global().histogram(name);
}

}  // namespace extractocol::obs

// Pipeline tracing (observability layer, part 2 of 2 — see metrics.hpp).
//
// RAII `Span` scopes measure per-phase wall time and nest into a trace tree:
// a span opened while another span is open on the same thread becomes its
// child (depth is tracked per thread). Closed spans are appended to the
// process-wide TraceRecorder when tracing is enabled; the recorder exports
//   * a Chrome trace-event JSON document (load with chrome://tracing or
//     https://ui.perfetto.dev — "X" complete events, microsecond units), and
//   * an indented human-readable phase summary.
//
// Overhead: a span costs two steady_clock reads; the recorder is only
// touched when enabled, so the disabled path takes no lock and performs no
// allocation. Spans are opened per pipeline phase / per taint run — never
// per statement — so tracing is safe to leave compiled in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "text/json.hpp"

namespace extractocol::obs {

struct TraceEvent {
    std::string name;
    std::string category;
    /// Microseconds since the recorder's epoch (first use of the recorder).
    std::uint64_t start_us = 0;
    std::uint64_t duration_us = 0;
    /// Dense per-process thread number (0 = first thread seen).
    std::uint32_t thread = 0;
    /// Nesting depth on its thread when the span opened (0 = top level).
    std::uint32_t depth = 0;
};

class TraceRecorder {
public:
    TraceRecorder();
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /// The process-wide recorder all Spans report to.
    static TraceRecorder& global();

    /// Enabling also installs the worker-naming thread hook and registers
    /// the calling thread as "main" (see name_current_thread).
    void set_enabled(bool enabled);
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    void record(TraceEvent event);
    void clear();
    [[nodiscard]] std::vector<TraceEvent> events() const;

    /// Registers the calling thread under `name` (assigning its dense id if
    /// it has none yet). Worker threads self-register as "worker-<i>" via a
    /// support::ThreadPool start hook installed by set_enabled(true), which
    /// also names the enabling thread "main" — so tids follow thread
    /// *creation* order, not first-span order, and `--trace --jobs N` runs
    /// render one labeled row per thread in Perfetto.
    void name_current_thread(std::string name);
    /// Registered thread names, indexed by dense thread number; threads
    /// first seen through a Span (no explicit name) hold an empty string.
    [[nodiscard]] std::vector<std::string> thread_names() const;

    /// Microseconds elapsed since the recorder epoch.
    [[nodiscard]] std::uint64_t now_us() const;
    /// A specific instant in epoch microseconds (clamped to 0 for instants
    /// before the epoch). Monotone, so span nesting order survives the
    /// truncation — reconstructing starts as end minus duration does not.
    [[nodiscard]] std::uint64_t to_us(std::chrono::steady_clock::time_point t) const;
    /// Dense id for the calling thread (registers it on first use).
    [[nodiscard]] std::uint32_t thread_number();

    /// {"traceEvents": [...], "displayTimeUnit": "ms"} per the Chrome
    /// trace-event format. Leads with one "thread_name" metadata event
    /// (ph "M") per registered thread so Perfetto labels each row; spans
    /// follow as "X" complete events.
    [[nodiscard]] text::Json to_chrome_json() const;
    /// Brendan Gregg collapsed-stack format for flamegraph.pl / speedscope:
    /// one line per unique span stack, `root;child;leaf <self_us>`, where
    /// the value is the stack's *self* time in microseconds (own duration
    /// minus direct children). Identical stacks merge across threads and
    /// batch apps; lines are sorted by stack name so the fold order is
    /// stable for a given event set. Spans whose parent closed before the
    /// recorder saw it (or never recorded) root at their own name.
    [[nodiscard]] std::string to_collapsed() const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::vector<std::thread::id> threads_;
    std::vector<std::string> thread_names_;  // parallel to threads_
    std::chrono::steady_clock::time_point epoch_;
};

/// Wall time of one pipeline phase, as a Span measured it: the one phase
/// timing type of analysis stats, cache entries and run records.
struct PhaseTiming {
    std::string name;
    double seconds = 0;
    bool operator==(const PhaseTiming&) const = default;
};

/// Measures one phase. Always cheap to construct; reports to the global
/// TraceRecorder on finish (destructor or explicit finish()) when tracing is
/// enabled. `seconds()` works whether or not tracing is on, so callers can
/// also use a Span as a plain scoped timer (core::Analyzer fills
/// AnalysisStats::phases this way).
class Span {
public:
    explicit Span(std::string_view name, std::string_view category = "phase");
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Elapsed wall time: running time while open, final duration once
    /// finished.
    [[nodiscard]] double seconds() const;

    /// Closes the span (idempotent); records the trace event if enabled.
    void finish();

private:
    std::string name_;
    std::string category_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::duration elapsed_{};
    std::uint32_t depth_ = 0;
    bool finished_ = false;
    /// Live heap bytes at construction when memtrack is on, else -1. The
    /// destructor observes the net delta as a `mem.phase.<name>` histogram,
    /// attributing allocation growth to the phase that caused it.
    std::int64_t mem_start_ = -1;
};

}  // namespace extractocol::obs

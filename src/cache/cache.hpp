// Persistent content-addressed report cache (ROADMAP item 2).
//
// Layer 1 of fleet-scale re-analysis: one on-disk entry per *content* of an
// .xapk input. The key is truncated SHA-256 (128 bits) of the raw
// serialized text — collision-resistant, because a key collision would make
// the cache serve one app's report for another app's bytes and no envelope
// check can catch that; never std::hash and never intern Symbol ids (the
// PR 7 stability contract: nothing process-local may reach persisted
// state). A hit bypasses the whole analyzer and replays the stored report
// byte-identically, including the cold run's timings and its per-run
// stats.counters and audit.unmodeled_apis, which obs::RunScope makes a
// pure function of the input bytes however many analyses overlap.
//
// On-disk envelope (`extractocol.cache/v2`): one ASCII header line
//
//   extractocol.cache/v2 key=<32 hex> analyzer=<version>
//       bytes=<n> fnv=<16 hex> report_bytes=<m> report_fnv=<16 hex>
//       peak=<bytes> phases=<name>:<seconds>,... header_fnv=<16 hex>
//
// (one line on disk) followed by two sections: exactly <n> bytes of the
// lossless codec document (codec.hpp) and exactly <m> bytes of the public
// report, `report.to_json().dump()`, rendered once at store time. `peak` and
// `phases` are the telemetry a daemon request record needs; `header_fnv`
// (FNV-1a over the header text before it) covers them and every other
// field, so they are trusted without decoding the report.
//
// Integrity is checked outermost-first on every load: schema tag, header
// shape and checksum, key echo, analyzer version, section lengths summing to
// exactly the file size, each section's FNV-1a, and the rendered section's
// shape (one line, `{`…`}`). load() then parses and strictly decodes the
// codec section; load_rendered() — the daemon's hit path — stops there and
// serves the rendered bytes as they are, so no byte of a damaged entry is
// served by either. Any mismatch marks the entry corrupt — counted as
// `cache.corrupt_entries`, logged, deleted — and the lookup falls back to
// cold analysis; a *version* mismatch, and any `extractocol.cache/v1`
// entry, is a clean invalidation (counted as an eviction) rather than
// corruption. Wrong output is never an outcome.
//
// Writers build entries in a hidden temp file and publish with one atomic
// rename(), so concurrent writers (daemon + batch CLI, or two daemon
// requests racing on the same miss) are last-writer-wins and readers only
// ever see complete envelopes.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "text/json.hpp"

namespace extractocol::obs {
class Counter;
class Gauge;
}  // namespace extractocol::obs

namespace extractocol::cache {

/// On-disk envelope schema tag; bump when the envelope layout changes
/// (entries with any other tag are treated as corrupt, except the previous
/// tag below).
inline constexpr std::string_view kCacheSchema = "extractocol.cache/v2";
/// The previous envelope (one codec section, no rendering). Such entries
/// are intact but unusable, so they are invalidated like version skew.
inline constexpr std::string_view kPreviousCacheSchema = "extractocol.cache/v1";

struct CacheOptions {
    /// Cache directory; created if absent.
    std::string dir;
    /// Evict oldest entries once the directory exceeds this many bytes
    /// (0 = unbounded).
    std::uint64_t max_bytes = 0;
    /// Entries written by any other version are invalidated on load.
    std::string analyzer_version = std::string(core::kAnalyzerVersion);
};

/// Per-instance operation tally (the manifest `cache` block). The same
/// counts are mirrored into the global metrics registry as `cache.*`
/// counters, but registry counters accumulate across instances in one
/// process; these are this cache handle's own deltas.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt_entries = 0;
    std::uint64_t evictions = 0;
};

/// A daemon cache hit: the stored public rendering of the report, plus the
/// telemetry its request record needs, read from the checked header.
struct RenderedHit {
    /// Exactly the bytes of `report.to_json().dump()` the entry was stored
    /// with: one line, a JSON object.
    std::string report;
    /// The cold run's per-phase wall times, in pipeline order.
    std::vector<obs::PhaseTiming> phases;
    std::uint64_t peak_bytes = 0;
};

class ReportCache {
public:
    explicit ReportCache(CacheOptions options);

    /// Content key of one input: 32 hex chars of truncated SHA-256 over the
    /// raw bytes (collision-resistant). A pure function of the text.
    [[nodiscard]] static std::string key_for(std::string_view xapk_text);

    /// Loads and fully verifies the entry for `key`. Any integrity failure
    /// deletes the entry and returns nullopt (see file comment) — the
    /// caller always has a correct fallback: analyze cold.
    [[nodiscard]] std::optional<core::AnalysisReport> load(const std::string& key);

    /// The daemon's hit path: verifies the envelope (see file comment) and
    /// returns the rendered section without decoding the report. Same
    /// corrupt ladder and counters as load().
    [[nodiscard]] std::optional<RenderedHit> load_rendered(const std::string& key);

    /// Atomically publishes the entry for `key` (write-temp + rename,
    /// last-writer-wins). Returns false on I/O failure, which is logged and
    /// otherwise harmless: the entry simply stays cold.
    bool store(const std::string& key, const core::AnalysisReport& report);
    /// Same, with the public rendering already made by the caller, which
    /// must be exactly `report.to_json().dump()` (a daemon miss renders once
    /// for both its response and the entry).
    bool store(const std::string& key, const core::AnalysisReport& report,
               std::string_view rendered);

    [[nodiscard]] const std::string& dir() const { return options_.dir; }
    [[nodiscard]] CacheStats stats() const;
    /// Total bytes of committed entries currently on disk.
    [[nodiscard]] std::uint64_t bytes_on_disk() const;
    /// The manifest `cache` block: dir, per-instance counts, bytes on disk.
    [[nodiscard]] text::Json stats_json() const;

private:
    /// An entry whose envelope passed every check; load() goes on to
    /// decode its codec section (defined in cache.cpp).
    struct Entry;

    [[nodiscard]] std::filesystem::path entry_path(const std::string& key) const;
    /// Reads and checks the entry for `key` (see file comment). On any
    /// failure the miss is already counted, and the entry deleted unless it
    /// was simply absent.
    [[nodiscard]] std::optional<Entry> read_entry(const std::string& key);
    /// Tally one lookup outcome, per instance and in the registry.
    void count_miss();
    void count_hit();
    /// The corrupt ladder, shared by every check on both load paths:
    /// counts + logs + deletes a corrupt entry, then counts the miss.
    void reject(const Entry& entry, const std::string& key, const char* why);
    /// Deletes oldest-mtime entries until the directory fits max_bytes.
    void evict_to_limit();
    /// Applies a store/remove delta to the running total and the gauge.
    void adjust_bytes(std::int64_t delta);
    void update_bytes_gauge();

    CacheOptions options_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> temp_seq_{0};
    /// Running bytes-on-disk total: seeded by one scan at construction,
    /// adjusted per store/remove, resynced exactly by every eviction pass.
    /// Keeps cache operations O(1) in the number of entries (a rescan per
    /// store made every touch O(entries)); concurrent same-key writers can
    /// drift it slightly between resyncs, which the gauge tolerates.
    std::atomic<std::int64_t> bytes_estimate_{0};
    std::mutex evict_mutex_;
    // Registry instruments, acquired once; created only when a cache is
    // actually constructed so cacheless runs keep their counter baseline.
    obs::Counter* m_hits_;
    obs::Counter* m_misses_;
    obs::Counter* m_stores_;
    obs::Counter* m_corrupt_;
    obs::Counter* m_evictions_;
    obs::Gauge* m_bytes_;
};

/// One analyze_batch run routed through the cache.
struct CachedBatch {
    /// Per-input outcomes in input order, exactly analyze_batch's contract.
    std::vector<core::BatchItem> items;
    /// Parallel to `items`: 1 when the report was replayed from the cache.
    std::vector<char> from_cache;
    std::size_t hits = 0;
    std::size_t misses = 0;
};

/// Cache-aware analyze_batch for the batch CLI: serves hits from `cache`
/// through the strict load(), runs the misses through one
/// Analyzer::analyze_batch built from `options` (keeping the --jobs pool
/// semantics), stores every successful miss, and merges results back in
/// input order. Error items are never cached. `cache` may be null
/// (everything misses). batch_progress is re-based over the *whole* batch —
/// hits count as already done — so a --progress line over a warm run still
/// reads k/N of N inputs. (The daemon serves single requests itself, see
/// server.cpp.)
[[nodiscard]] CachedBatch analyze_batch_cached(const core::AnalyzerOptions& options,
                                               ReportCache* cache,
                                               std::vector<core::BatchInput> inputs);

}  // namespace extractocol::cache

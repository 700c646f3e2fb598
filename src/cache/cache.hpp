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
// On-disk envelope (`extractocol.cache/v1`): one ASCII header line
//
//   extractocol.cache/v1 key=<32 hex> analyzer=<version> bytes=<n> fnv=<16 hex>
//
// followed by exactly <n> bytes of compact JSON payload (the codec.hpp
// report document). Integrity is checked outermost-first on every load:
// schema tag, key echo, analyzer version, payload length, payload FNV-1a,
// JSON parse, strict decode. Any mismatch marks the entry corrupt —
// counted as `cache.corrupt_entries`, logged, deleted — and the lookup
// falls back to cold analysis; a *version* mismatch is a clean invalidation
// (counted as an eviction) rather than corruption. Wrong output is never an
// outcome.
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
#include <vector>

#include "core/analyzer.hpp"
#include "text/json.hpp"

namespace extractocol::obs {
class Counter;
class Gauge;
}  // namespace extractocol::obs

namespace extractocol::cache {

/// On-disk envelope schema tag; bump when the envelope layout changes
/// (entries with any other tag are treated as corrupt).
inline constexpr std::string_view kCacheSchema = "extractocol.cache/v1";

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

    /// Atomically publishes the entry for `key` (write-temp + rename,
    /// last-writer-wins). Returns false on I/O failure, which is logged and
    /// otherwise harmless: the entry simply stays cold.
    bool store(const std::string& key, const core::AnalysisReport& report);

    [[nodiscard]] const std::string& dir() const { return options_.dir; }
    [[nodiscard]] CacheStats stats() const;
    /// Total bytes of committed entries currently on disk.
    [[nodiscard]] std::uint64_t bytes_on_disk() const;
    /// The manifest `cache` block: dir, per-instance counts, bytes on disk.
    [[nodiscard]] text::Json stats_json() const;

private:
    [[nodiscard]] std::filesystem::path entry_path(const std::string& key) const;
    /// Counts + logs + deletes a corrupt entry (then the lookup misses).
    /// `entry_bytes` is the deleted file's size, for the running total.
    void mark_corrupt(const std::filesystem::path& path, const std::string& key,
                      const char* why, std::uint64_t entry_bytes);
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
    /// Parallel to `items`: the content key of each input (computed for the
    /// hit/miss split anyway; exposed so the daemon's per-request telemetry
    /// can attribute a request to its cache entry without re-hashing).
    std::vector<std::string> keys;
    std::size_t hits = 0;
    std::size_t misses = 0;
};

/// Cache-aware analyze_batch: serves hits from `cache`, runs the misses
/// through one Analyzer::analyze_batch (keeping the --jobs pool semantics),
/// stores every successful miss, and merges results back in input order.
/// Error items are never cached. `cache` may be null (everything misses).
/// This overload reuses a long-lived analyzer (the --serve daemon's warm
/// semantic model).
[[nodiscard]] CachedBatch analyze_batch_cached(const core::Analyzer& analyzer,
                                               ReportCache* cache,
                                               std::vector<core::BatchInput> inputs);

/// Same, constructing the analyzer from `options`. batch_progress is
/// re-based over the *whole* batch — hits count as already done — so a
/// --progress line over a warm run still reads k/N of N inputs.
[[nodiscard]] CachedBatch analyze_batch_cached(const core::AnalyzerOptions& options,
                                               ReportCache* cache,
                                               std::vector<core::BatchInput> inputs);

}  // namespace extractocol::cache

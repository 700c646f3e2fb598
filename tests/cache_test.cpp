// Persistent report cache: content-addressed keys, strict codec round-trip,
// the integrity ladder (every injected corruption must fall back to cold
// analysis and never serve wrong output), clean version-skew invalidation,
// concurrent writer/reader safety (atomic rename, last-writer-wins), size
// eviction, and the cached-batch merge contract (errors never cached, input
// order preserved, hits byte-identical to the stored cold run).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/codec.hpp"
#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/sha256.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test cache directory under the system temp root; removed on
/// destruction so reruns never see a previous run's entries.
struct TempCacheDir {
    explicit TempCacheDir(const std::string& name)
        : path(fs::temp_directory_path() /
               ("xt_cache_test_" + std::to_string(::getpid()) + "_" + name)) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempCacheDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    fs::path path;
};

cache::CacheOptions options_for(const TempCacheDir& dir) {
    cache::CacheOptions options;
    options.dir = dir.path.string();
    return options;
}

core::AnalysisReport analyze_text(const std::string& text) {
    core::AnalyzerOptions options;
    auto items = core::Analyzer(options).analyze_batch({{"app.xapk", text}});
    EXPECT_EQ(items.size(), 1u);
    EXPECT_TRUE(items[0].ok()) << items[0].error;
    return std::move(*items[0].report);
}

std::string corpus_text(const std::string& name) {
    return xapk::write_xapk(corpus::build_app(name).program);
}

std::size_t entry_count(const fs::path& dir) {
    std::size_t n = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
        std::string file = entry.path().filename().string();
        if (!file.empty() && file.front() != '.') ++n;
    }
    return n;
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

}  // namespace

TEST(CacheTest, KeyIsAPureFunctionOfContent) {
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    ASSERT_EQ(key.size(), 32u);
    for (char c : key) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
    }
    // Stable across calls and across re-serialization of the same program
    // (the key sees bytes, never process-local interning state).
    EXPECT_EQ(cache::ReportCache::key_for(text), key);
    EXPECT_EQ(cache::ReportCache::key_for(corpus_text("blippex")), key);
    // The derivation is pinned: truncated SHA-256, because the key decides
    // which app's report gets served and so must be collision-resistant
    // (FNV-style hashes have constructible collisions).
    EXPECT_EQ(key, support::sha256_hex128(text));
    // One flipped bit moves the key.
    std::string flipped = text;
    flipped[flipped.size() / 2] ^= 0x01;
    EXPECT_NE(cache::ReportCache::key_for(flipped), key);
    EXPECT_NE(cache::ReportCache::key_for(corpus_text("iFixIt")), key);
}

TEST(CacheTest, CodecRoundTripIsByteIdentical) {
    // The strict codec must reproduce EVERY rendering byte-for-byte — the
    // un-normalized JSON too, which includes measured timings (doubles are
    // printed with enough digits to round-trip binary64 exactly).
    std::vector<std::string> names = corpus::open_source_apps();
    ASSERT_GE(names.size(), 3u);
    names.resize(3);
    for (const auto& name : names) {
        core::AnalysisReport report = analyze_text(corpus_text(name));
        Result<core::AnalysisReport> decoded =
            cache::report_from_json(cache::report_to_json(report));
        ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.error().message;
        EXPECT_EQ(decoded.value().to_text(), report.to_text()) << name;
        EXPECT_EQ(decoded.value().to_json().dump_pretty(),
                  report.to_json().dump_pretty())
            << name;
        EXPECT_EQ(decoded.value().audit.to_text(), report.audit.to_text()) << name;
        EXPECT_EQ(decoded.value().audit.to_json().dump_pretty(),
                  report.audit.to_json().dump_pretty())
            << name;
        EXPECT_EQ(decoded.value().stats.counters, report.stats.counters) << name;
        ASSERT_EQ(decoded.value().transactions.size(), report.transactions.size());
        for (std::size_t t = 0; t < report.transactions.size(); ++t) {
            EXPECT_EQ(decoded.value().explain(t), report.explain(t))
                << name << " provenance tree #" << t + 1;
        }
    }
}

TEST(CacheTest, StoreThenLoadReplaysTheReport) {
    TempCacheDir dir("store_load");
    cache::ReportCache store_cache(options_for(dir));
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    core::AnalysisReport report = analyze_text(text);
    ASSERT_TRUE(store_cache.store(key, report));
    EXPECT_EQ(entry_count(dir.path), 1u);
    EXPECT_GT(store_cache.bytes_on_disk(), 0u);

    // A separate handle (a different process, morally) sees the entry.
    cache::ReportCache load_cache(options_for(dir));
    std::optional<core::AnalysisReport> loaded = load_cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->to_text(), report.to_text());
    EXPECT_EQ(loaded->to_json().dump_pretty(), report.to_json().dump_pretty());
    EXPECT_EQ(load_cache.stats().hits, 1u);
    EXPECT_EQ(load_cache.stats().misses, 0u);
    EXPECT_EQ(load_cache.stats().corrupt_entries, 0u);

    // The daemon's hit path serves the stored rendering byte for byte, with
    // the telemetry the request record needs.
    std::optional<cache::RenderedHit> hit = load_cache.load_rendered(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report, report.to_json().dump());
    EXPECT_TRUE(hit->phases == report.stats.phases);
    EXPECT_EQ(hit->peak_bytes, report.stats.peak_bytes);
    EXPECT_EQ(load_cache.stats().hits, 2u);

    // An absent key is a plain miss, not corruption.
    EXPECT_FALSE(load_cache.load(std::string(32, '0')).has_value());
    EXPECT_EQ(load_cache.stats().misses, 1u);
    EXPECT_EQ(load_cache.stats().corrupt_entries, 0u);
}

TEST(CacheTest, EveryInjectedCorruptionFallsBackCold) {
    // The integrity sweep: truncations, bit flips, garbage, wrong schema,
    // appended bytes, an empty file, through BOTH load entry points — the
    // strict decode and the daemon's rendered-bytes hit path. Every one
    // must (a) load as nullopt, (b) be counted (corrupt, or eviction for
    // clean invalidations), (c) be deleted, and (d) leave the cache able to
    // re-store and then serve the CORRECT report — wrong output is never an
    // outcome.
    TempCacheDir dir("corruption");
    cache::ReportCache report_cache(options_for(dir));
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    core::AnalysisReport report = analyze_text(text);
    std::string expected_text = report.to_text();
    std::string expected_rendered = report.to_json().dump();

    ASSERT_TRUE(report_cache.store(key, report));
    fs::path entry = dir.path / (key + ".xce");
    std::string pristine = read_file(entry);
    ASSERT_FALSE(pristine.empty());
    // The rendered section closes the entry.
    ASSERT_GT(pristine.size(), expected_rendered.size());
    const std::size_t rendered_at = pristine.size() - expected_rendered.size();
    ASSERT_EQ(pristine.substr(rendered_at), expected_rendered);

    std::vector<std::pair<std::string, std::string>> mutations;
    mutations.emplace_back("empty file", "");
    mutations.emplace_back("wrong schema tag",
                           "extractocol.cache/v0" + pristine.substr(20));
    mutations.emplace_back("garbage", "not a cache entry at all\n{}");
    mutations.emplace_back("appended bytes", pristine + "trailing garbage");
    mutations.emplace_back("header only", pristine.substr(0, pristine.find('\n') + 1));
    mutations.emplace_back("rendered section cut", pristine.substr(0, rendered_at));
    // The repo's deterministic PRNG: the mutation schedule must be
    // reproducible in a failing log (no std::random_device).
    SplitMix64 rng(0x5eed);
    for (int i = 0; i < 8; ++i) {
        // Truncation at a pseudo-random point (skip 0: that is "empty file").
        std::size_t cut = 1 + rng.next_below(pristine.size() - 1);
        mutations.emplace_back("truncated at " + std::to_string(cut),
                               pristine.substr(0, cut));
    }
    for (int i = 0; i < 8; ++i) {
        std::size_t at = rng.next_below(pristine.size());
        std::string flipped = pristine;
        flipped[at] ^= static_cast<char>(1u << rng.next_below(8));
        if (flipped == pristine) continue;
        mutations.emplace_back("bit flip at " + std::to_string(at), flipped);
    }
    // The same inside the rendered section, which the hit path serves.
    for (int i = 0; i < 8; ++i) {
        std::size_t cut = rendered_at + rng.next_below(expected_rendered.size());
        mutations.emplace_back("rendered truncated at " + std::to_string(cut),
                               pristine.substr(0, cut));
    }
    for (int i = 0; i < 8; ++i) {
        std::size_t at = rendered_at + rng.next_below(expected_rendered.size());
        std::string flipped = pristine;
        flipped[at] ^= static_cast<char>(1u << rng.next_below(8));
        mutations.emplace_back("rendered bit flip at " + std::to_string(at), flipped);
    }

    // Each entry point: load it, and say whether it served the right report.
    using Loader = std::function<std::optional<bool>()>;
    std::vector<std::pair<std::string, Loader>> entry_points = {
        {"load", [&]() -> std::optional<bool> {
             std::optional<core::AnalysisReport> loaded = report_cache.load(key);
             if (!loaded) return std::nullopt;
             return loaded->to_text() == expected_text;
         }},
        {"load_rendered", [&]() -> std::optional<bool> {
             std::optional<cache::RenderedHit> hit = report_cache.load_rendered(key);
             if (!hit) return std::nullopt;
             return hit->report == expected_rendered;
         }},
    };
    for (const auto& [via, load] : entry_points) {
        for (const auto& [mutation, bytes] : mutations) {
            const std::string what = via + ", " + mutation;
            write_file(entry, bytes);
            cache::CacheStats before = report_cache.stats();
            std::optional<bool> served = load();
            cache::CacheStats after = report_cache.stats();
            // Never wrong output: every mutation either breaks a length or
            // lands in a checksummed byte, so it must fail validation.
            ASSERT_FALSE(served.has_value()) << what;
            EXPECT_EQ(after.misses, before.misses + 1) << what;
            EXPECT_EQ(after.hits, before.hits) << what;
            EXPECT_EQ((after.corrupt_entries + after.evictions) -
                          (before.corrupt_entries + before.evictions),
                      1u)
                << what;
            EXPECT_FALSE(fs::exists(entry)) << what << ": corrupt entry not deleted";

            // The fallback path: cold analysis + re-store serves the correct
            // report again.
            ASSERT_TRUE(report_cache.store(key, report)) << what;
            served = load();
            ASSERT_TRUE(served.has_value()) << what;
            EXPECT_TRUE(*served) << what;
        }
    }
    EXPECT_GT(report_cache.stats().corrupt_entries, 0u);
}

TEST(CacheTest, RenderedSectionWithARawNewlineIsCaughtByTheShapeCheck) {
    // A raw '\n' in the rendered bytes would split the daemon's one-line
    // response. Rewrite the section's checksum (and the header's own) so
    // every length and FNV check passes: only the shape check is left to
    // catch it, on both entry points.
    TempCacheDir dir("shape");
    cache::ReportCache report_cache(options_for(dir));
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    core::AnalysisReport report = analyze_text(text);
    std::string rendered = report.to_json().dump();
    ASSERT_TRUE(report_cache.store(key, report));
    fs::path entry = dir.path / (key + ".xce");
    std::string pristine = read_file(entry);

    std::string bad_rendered = rendered;
    bad_rendered[bad_rendered.size() / 2] = '\n';
    std::size_t newline = pristine.find('\n');
    std::string header = pristine.substr(0, newline);
    std::string body = pristine.substr(newline + 1, pristine.size() - newline - 1 -
                                                        rendered.size());
    auto set_field = [&](const std::string& name, const std::string& value) {
        std::size_t at = header.find(" " + name + "=");
        ASSERT_NE(at, std::string::npos) << name;
        std::size_t start = at + name.size() + 2;
        std::size_t stop = header.find(' ', start);
        header.replace(start, (stop == std::string::npos ? header.size() : stop) - start,
                       value);
    };
    auto hex16 = [](std::uint64_t v) {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
        return std::string(buf);
    };
    set_field("report_fnv", hex16(fnv1a(bad_rendered)));
    std::size_t signed_size = header.find("header_fnv=");
    ASSERT_NE(signed_size, std::string::npos);
    set_field("header_fnv", hex16(fnv1a(std::string_view(header).substr(0, signed_size))));
    const std::string forged = header + "\n" + body + bad_rendered;
    ASSERT_EQ(forged.size(), pristine.size());

    std::vector<std::string> reasons;
    log::RecordSink previous = log::set_record_sink([&](const log::LogRecord& r) {
        for (const auto& [field, value] : r.fields) {
            if (field == "reason") reasons.push_back(value);
        }
    });
    write_file(entry, forged);
    EXPECT_FALSE(report_cache.load_rendered(key).has_value());
    EXPECT_FALSE(fs::exists(entry));
    write_file(entry, forged);
    EXPECT_FALSE(report_cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(entry));
    log::set_record_sink(previous);

    EXPECT_EQ(report_cache.stats().corrupt_entries, 2u);
    EXPECT_EQ(report_cache.stats().evictions, 0u);
    ASSERT_EQ(reasons.size(), 2u);
    for (const std::string& reason : reasons) {
        EXPECT_EQ(reason, "report section is not one JSON object line");
    }
}

TEST(CacheTest, PreviousEnvelopeIsACleanInvalidation) {
    // An intact entry in the previous envelope (one codec section, no
    // rendering) is stale, not corrupt: an eviction, deleted, and the next
    // store serves a current-envelope hit.
    TempCacheDir dir("previous_envelope");
    cache::ReportCache report_cache(options_for(dir));
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    core::AnalysisReport report = analyze_text(text);

    text::Json payload_doc = text::Json::object();
    payload_doc.set("report", cache::report_to_json(report));
    text::Json check = text::Json::object();
    check.set("transactions", text::Json(static_cast<std::int64_t>(report.transactions.size())));
    check.set("dependencies", text::Json(static_cast<std::int64_t>(report.dependencies.size())));
    payload_doc.set("check", std::move(check));
    std::string payload = payload_doc.dump();
    char fnv[17];
    std::snprintf(fnv, sizeof fnv, "%016llx",
                  static_cast<unsigned long long>(fnv1a(payload)));
    fs::path entry = dir.path / (key + ".xce");
    write_file(entry, std::string(cache::kPreviousCacheSchema) + " key=" + key +
                          " analyzer=" + std::string(core::kAnalyzerVersion) +
                          " bytes=" + std::to_string(payload.size()) + " fnv=" + fnv +
                          "\n" + payload);

    EXPECT_FALSE(report_cache.load_rendered(key).has_value());
    cache::CacheStats stats = report_cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.corrupt_entries, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_FALSE(fs::exists(entry));

    ASSERT_TRUE(report_cache.store(key, report));
    EXPECT_EQ(read_file(entry).rfind(std::string(cache::kCacheSchema) + " ", 0), 0u);
    std::optional<cache::RenderedHit> hit = report_cache.load_rendered(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report, report.to_json().dump());
    EXPECT_EQ(report_cache.stats().hits, 1u);
}

TEST(CacheTest, AnalyzerVersionSkewIsACleanInvalidation) {
    TempCacheDir dir("version_skew");
    std::string text = corpus_text("blippex");
    std::string key = cache::ReportCache::key_for(text);
    core::AnalysisReport report = analyze_text(text);
    {
        cache::CacheOptions old_options = options_for(dir);
        old_options.analyzer_version = "0-test-old";
        cache::ReportCache old_cache(old_options);
        ASSERT_TRUE(old_cache.store(key, report));
    }
    cache::ReportCache new_cache(options_for(dir));
    EXPECT_FALSE(new_cache.load(key).has_value());
    cache::CacheStats stats = new_cache.stats();
    // Intact-but-stale is an eviction, NOT corruption: the distinction keeps
    // cache.corrupt_entries a real integrity alarm.
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.corrupt_entries, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(entry_count(dir.path), 0u);
}

TEST(CacheTest, ConcurrentWritersAndReadersNeverSeeTornEntries) {
    // Two writers race store() on the SAME key with different contents while
    // readers load() continuously. Atomic rename publication means every
    // successful load is byte-identical to one of the two stored reports —
    // a torn mix would fail the checksum and show up as corruption, so
    // corrupt_entries must stay 0. Run under tsan for the data-race angle.
    TempCacheDir dir("concurrent");
    cache::ReportCache report_cache(options_for(dir));
    core::AnalysisReport report_a = analyze_text(corpus_text("blippex"));
    core::AnalysisReport report_b = analyze_text(corpus_text("iFixIt"));
    std::string text_a = report_a.to_text();
    std::string text_b = report_b.to_text();
    ASSERT_NE(text_a, text_b);
    const std::string key(32, 'a');  // shared slot both writers fight over

    constexpr int kRounds = 40;
    std::thread writer_a([&] {
        for (int i = 0; i < kRounds; ++i) (void)report_cache.store(key, report_a);
    });
    std::thread writer_b([&] {
        for (int i = 0; i < kRounds; ++i) (void)report_cache.store(key, report_b);
    });
    std::size_t loads_ok = 0;
    bool mismatch = false;
    std::atomic<bool> writers_done{false};
    std::thread reader([&] {
        // Reads until the writers have finished and then once more, so at
        // least one load must hit however the threads are scheduled.
        for (int i = 0;; ++i) {
            bool last = writers_done.load() && i >= kRounds * 2;
            if (std::optional<core::AnalysisReport> loaded = report_cache.load(key)) {
                std::string got = loaded->to_text();
                if (got != text_a && got != text_b) mismatch = true;
                ++loads_ok;
            }
            if (last) break;
        }
    });
    writer_a.join();
    writer_b.join();
    writers_done = true;
    reader.join();

    EXPECT_FALSE(mismatch) << "a load returned a report neither writer stored";
    EXPECT_EQ(report_cache.stats().corrupt_entries, 0u);
    // Last-writer-wins: the surviving entry is one of the two, whole.
    std::optional<core::AnalysisReport> final_report = report_cache.load(key);
    ASSERT_TRUE(final_report.has_value());
    std::string final_text = final_report->to_text();
    EXPECT_TRUE(final_text == text_a || final_text == text_b);
    EXPECT_GT(loads_ok, 0u);
}

TEST(CacheTest, EvictionKeepsTheDirectoryUnderMaxBytes) {
    TempCacheDir dir("eviction");
    std::string text = corpus_text("blippex");
    core::AnalysisReport report = analyze_text(text);

    // Size one entry, then cap the directory at ~2 entries and store 5.
    std::uint64_t one_entry_bytes = 0;
    {
        cache::ReportCache sizer(options_for(dir));
        ASSERT_TRUE(sizer.store(std::string(32, '0'), report));
        one_entry_bytes = sizer.bytes_on_disk();
        fs::remove(dir.path / (std::string(32, '0') + ".xce"));
    }
    ASSERT_GT(one_entry_bytes, 0u);

    cache::CacheOptions capped = options_for(dir);
    capped.max_bytes = one_entry_bytes * 2 + one_entry_bytes / 2;
    cache::ReportCache report_cache(capped);
    for (char c : {'1', '2', '3', '4', '5'}) {
        ASSERT_TRUE(report_cache.store(std::string(32, c), report));
    }
    EXPECT_LE(report_cache.bytes_on_disk(), capped.max_bytes);
    EXPECT_GE(report_cache.stats().evictions, 3u);
    // The newest entry always survives its own store.
    EXPECT_TRUE(report_cache.load(std::string(32, '5')).has_value());
}

TEST(CacheTest, CachedPathCarriesExactPerRunCounters) {
    // report.stats.counters and the counter-derived unmodeled-API table are
    // collected by the run's own obs::RunScope, so they are a pure function
    // of the input bytes even while another analysis runs in the process.
    // Cold-served, stored, warm-replayed and null-cache reports must all
    // carry exactly what a direct jobs-1 analysis of the same bytes does.
    TempCacheDir dir("exact_counters");
    std::string text = corpus_text("Letgo");  // has a non-empty unmodeled table
    core::AnalyzerOptions options;

    Result<core::AnalysisReport> direct = core::Analyzer(options).analyze_xapk(text);
    ASSERT_TRUE(direct.ok());
    const auto& expected_counters = direct.value().stats.counters;
    const std::string expected_audit = direct.value().audit.to_json().dump_pretty();
    ASSERT_FALSE(expected_counters.empty());
    ASSERT_FALSE(direct.value().audit.unmodeled_apis.empty());

    // A concurrent neighbour on another thread, bumping the same counters.
    std::atomic<bool> stop{false};
    std::thread neighbour([&stop] {
        std::string other = corpus_text("iFixIt");
        core::Analyzer analyzer;
        do {
            (void)analyzer.analyze_xapk(other);
        } while (!stop.load());
    });

    auto one_input = [&] {
        std::vector<core::BatchInput> inputs;
        inputs.push_back({"app.xapk", text});
        return inputs;
    };
    auto expect_exact = [&](const core::AnalysisReport& report, const char* what) {
        EXPECT_EQ(report.stats.counters, expected_counters) << what;
        EXPECT_EQ(report.audit.to_json().dump_pretty(), expected_audit) << what;
    };
    cache::ReportCache report_cache(options_for(dir));
    cache::CachedBatch cold =
        cache::analyze_batch_cached(options, &report_cache, one_input());
    ASSERT_TRUE(cold.items[0].ok());
    expect_exact(*cold.items[0].report, "cold-served");

    std::optional<core::AnalysisReport> stored =
        cache::ReportCache(options_for(dir)).load(cache::ReportCache::key_for(text));
    ASSERT_TRUE(stored.has_value());
    expect_exact(*stored, "stored");

    cache::CachedBatch warm =
        cache::analyze_batch_cached(options, &report_cache, one_input());
    ASSERT_TRUE(warm.items[0].ok());
    EXPECT_EQ(warm.hits, 1u);
    expect_exact(*warm.items[0].report, "warm-replayed");
    EXPECT_EQ(warm.items[0].report->to_json().dump_pretty(),
              cold.items[0].report->to_json().dump_pretty())
        << "warm replay diverged from the cold-served report";

    // Null cache (e.g. a daemon without --cache-dir).
    cache::CachedBatch uncached =
        cache::analyze_batch_cached(options, nullptr, one_input());
    ASSERT_TRUE(uncached.items[0].ok());
    expect_exact(*uncached.items[0].report, "null-cache");

    stop = true;
    neighbour.join();
}

TEST(CacheTest, CachedBatchMergesInOrderAndNeverCachesErrors) {
    TempCacheDir dir("batch");
    std::string text_a = corpus_text("blippex");
    std::string text_b = corpus_text("iFixIt");
    std::string poisoned = "not an xapk at all";

    core::AnalyzerOptions options;
    auto make_inputs = [&] {
        std::vector<core::BatchInput> inputs;
        inputs.push_back({"a.xapk", text_a});
        inputs.push_back({"poisoned.xapk", poisoned});
        inputs.push_back({"b.xapk", text_b});
        return inputs;
    };

    cache::ReportCache cold_cache(options_for(dir));
    cache::CachedBatch cold =
        cache::analyze_batch_cached(options, &cold_cache, make_inputs());
    ASSERT_EQ(cold.items.size(), 3u);
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(cold.misses, 3u);
    EXPECT_EQ(cold.items[0].file, "a.xapk");
    EXPECT_EQ(cold.items[1].file, "poisoned.xapk");
    EXPECT_EQ(cold.items[2].file, "b.xapk");
    EXPECT_TRUE(cold.items[0].ok());
    EXPECT_FALSE(cold.items[1].ok());
    EXPECT_TRUE(cold.items[2].ok());
    // Two entries on disk: the error was NOT cached.
    EXPECT_EQ(entry_count(dir.path), 2u);
    EXPECT_FALSE(
        fs::exists(dir.path / (cache::ReportCache::key_for(poisoned) + ".xce")));

    // Warm run: both healthy inputs hit; the poisoned one re-analyzes (and
    // fails identically); everything stays in input order.
    cache::ReportCache warm_cache(options_for(dir));
    cache::CachedBatch warm =
        cache::analyze_batch_cached(options, &warm_cache, make_inputs());
    ASSERT_EQ(warm.items.size(), 3u);
    EXPECT_EQ(warm.hits, 2u);
    EXPECT_EQ(warm.misses, 1u);
    EXPECT_EQ(warm.from_cache[0], 1);
    EXPECT_EQ(warm.from_cache[1], 0);
    EXPECT_EQ(warm.from_cache[2], 1);
    EXPECT_EQ(warm.items[0].report->to_text(), cold.items[0].report->to_text());
    EXPECT_EQ(warm.items[2].report->to_text(), cold.items[2].report->to_text());
    EXPECT_EQ(warm.items[1].error, cold.items[1].error);
    EXPECT_EQ(warm_cache.stats().hits, 2u);
    EXPECT_EQ(warm_cache.stats().misses, 1u);

    // Null cache: everything misses, nothing stored beyond the 2 entries.
    cache::CachedBatch uncached =
        cache::analyze_batch_cached(options, nullptr, make_inputs());
    EXPECT_EQ(uncached.hits, 0u);
    EXPECT_EQ(uncached.misses, 3u);
    EXPECT_EQ(uncached.items[0].report->to_text(), cold.items[0].report->to_text());
}

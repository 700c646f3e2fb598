#include "cache/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "cache/codec.hpp"
#include "obs/metrics.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/sha256.hpp"

namespace extractocol::cache {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kEntrySuffix = ".xce";

std::string hex16(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
}

/// Strict "name=value" token parse; returns nullopt when the prefix differs.
std::optional<std::string_view> token_value(std::string_view token,
                                            std::string_view name) {
    if (token.size() <= name.size() + 1) return std::nullopt;
    if (token.compare(0, name.size(), name) != 0) return std::nullopt;
    if (token[name.size()] != '=') return std::nullopt;
    return token.substr(name.size() + 1);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
    if (text.empty()) return false;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return false;
        if (value > (~std::uint64_t{0} - (c - '0')) / 10) return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

/// Splits the envelope header line into whitespace-separated tokens.
std::vector<std::string_view> split_tokens(std::string_view line) {
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t space = line.find(' ', pos);
        if (space == std::string_view::npos) space = line.size();
        if (space > pos) tokens.push_back(line.substr(pos, space - pos));
        pos = space + 1;
    }
    return tokens;
}

}  // namespace

ReportCache::ReportCache(CacheOptions options) : options_(std::move(options)) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (ec) {
        log::warn().kv("dir", options_.dir).kv("error", ec.message())
            << "cache: cannot create directory; every lookup will miss";
    }
    m_hits_ = &obs::counter("cache.hits");
    m_misses_ = &obs::counter("cache.misses");
    m_stores_ = &obs::counter("cache.stores");
    m_corrupt_ = &obs::counter("cache.corrupt_entries");
    m_evictions_ = &obs::counter("cache.evictions");
    m_bytes_ = &obs::gauge("cache.bytes");
    // One full scan at construction seeds the running total; after this,
    // stores/removals adjust it incrementally (a per-operation rescan would
    // make every cache touch O(entries) on large directories) and the
    // eviction pass — which must scan anyway — resyncs it exactly.
    bytes_estimate_.store(static_cast<std::int64_t>(bytes_on_disk()),
                          std::memory_order_relaxed);
    update_bytes_gauge();
}

std::string ReportCache::key_for(std::string_view xapk_text) {
    // 128 bits of truncated SHA-256. The key must be collision-resistant,
    // not just well-distributed: a key collision makes the cache serve one
    // app's report for another app's bytes, and no envelope check can catch
    // that (the key echo and payload checksum validate the entry, not the
    // input). FNV-family hashes have adversarially constructible collisions,
    // so they stay confined to the envelope checksum (accidental-corruption
    // detection) and never decide identity. Everything here is a pure
    // function of the input bytes: no std::hash, no intern Symbols, no
    // pointers — the key must mean the same thing to every process that
    // ever opens this cache directory.
    return support::sha256_hex128(xapk_text);
}

std::filesystem::path ReportCache::entry_path(const std::string& key) const {
    return fs::path(options_.dir) / (key + std::string(kEntrySuffix));
}

void ReportCache::mark_corrupt(const std::filesystem::path& path,
                               const std::string& key, const char* why,
                               std::uint64_t entry_bytes) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    m_corrupt_->add();
    log::warn()
            .kv("file", path.string())
            .kv("key", key)
            .kv("reason", why)
        << "cache: corrupt entry dropped, falling back to cold analysis";
    std::error_code ec;
    // best-effort; a locked file just stays corrupt
    if (fs::remove(path, ec) && !ec) adjust_bytes(-static_cast<std::int64_t>(entry_bytes));
}

std::optional<core::AnalysisReport> ReportCache::load(const std::string& key) {
    fs::path path = entry_path(key);
    std::string raw;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            m_misses_->add();
            return std::nullopt;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        raw = buffer.str();
    }

    // Every integrity failure funnels through here: count, delete, miss.
    auto corrupt = [&](const char* why) -> std::optional<core::AnalysisReport> {
        mark_corrupt(path, key, why, raw.size());
        misses_.fetch_add(1, std::memory_order_relaxed);
        m_misses_->add();
        return std::nullopt;
    };

    std::size_t newline = raw.find('\n');
    if (newline == std::string::npos) return corrupt("no header line");
    std::string_view header(raw.data(), newline);
    std::string_view payload(raw.data() + newline + 1, raw.size() - newline - 1);

    std::vector<std::string_view> tokens = split_tokens(header);
    if (tokens.size() != 5 || tokens[0] != kCacheSchema) {
        return corrupt("bad schema tag");
    }
    std::optional<std::string_view> key_field = token_value(tokens[1], "key");
    std::optional<std::string_view> version_field = token_value(tokens[2], "analyzer");
    std::optional<std::string_view> bytes_field = token_value(tokens[3], "bytes");
    std::optional<std::string_view> fnv_field = token_value(tokens[4], "fnv");
    if (!key_field || !version_field || !bytes_field || !fnv_field) {
        return corrupt("malformed header");
    }
    if (*key_field != key) return corrupt("key mismatch");
    if (*version_field != options_.analyzer_version) {
        // Version skew is a *clean* invalidation, not corruption: the entry
        // is intact, it just answers for a different analyzer.
        evictions_.fetch_add(1, std::memory_order_relaxed);
        m_evictions_->add();
        misses_.fetch_add(1, std::memory_order_relaxed);
        m_misses_->add();
        log::info()
                .kv("file", path.string())
                .kv("entry_version", std::string(*version_field))
                .kv("analyzer_version", options_.analyzer_version)
            << "cache: analyzer version skew, entry invalidated";
        std::error_code ec;
        if (fs::remove(path, ec) && !ec) adjust_bytes(-static_cast<std::int64_t>(raw.size()));
        return std::nullopt;
    }
    std::uint64_t expected_bytes = 0;
    if (!parse_u64(*bytes_field, expected_bytes)) return corrupt("malformed header");
    // An exact length match catches both truncation and appended garbage.
    if (payload.size() != expected_bytes) return corrupt("payload length mismatch");
    if (hex16(fnv1a(payload)) != *fnv_field) return corrupt("payload checksum mismatch");

    Result<text::Json> parsed = text::parse_json(payload);
    if (!parsed.ok()) return corrupt("payload is not valid JSON");
    const text::Json& doc = parsed.value();
    const text::Json* report_doc = doc.is_object() ? doc.find("report") : nullptr;
    const text::Json* check = doc.is_object() ? doc.find("check") : nullptr;
    if (report_doc == nullptr || check == nullptr || !check->is_object()) {
        return corrupt("payload missing report/check");
    }
    Result<core::AnalysisReport> report = report_from_json(*report_doc);
    if (!report.ok()) return corrupt(report.error().message.c_str());
    // The stored telemetry counts double as a decode cross-check: a codec
    // drift (or a JSON-valid corruption the checksum somehow missed) that
    // changes result sizes is caught before the report is served.
    const text::Json* txn_count = check->find("transactions");
    const text::Json* dep_count = check->find("dependencies");
    if (txn_count == nullptr || !txn_count->is_int() || dep_count == nullptr ||
        !dep_count->is_int() ||
        static_cast<std::uint64_t>(txn_count->as_int()) !=
            report.value().transactions.size() ||
        static_cast<std::uint64_t>(dep_count->as_int()) !=
            report.value().dependencies.size()) {
        return corrupt("telemetry cross-check failed");
    }

    hits_.fetch_add(1, std::memory_order_relaxed);
    m_hits_->add();
    return std::move(report).take();
}

bool ReportCache::store(const std::string& key, const core::AnalysisReport& report) {
    text::Json payload_doc = text::Json::object();
    payload_doc.set("report", report_to_json(report));
    text::Json check = text::Json::object();
    check.set("transactions",
              text::Json(static_cast<std::int64_t>(report.transactions.size())));
    check.set("dependencies",
              text::Json(static_cast<std::int64_t>(report.dependencies.size())));
    payload_doc.set("check", std::move(check));
    std::string payload = payload_doc.dump();

    std::string header;
    header.reserve(kCacheSchema.size() + key.size() + 96);
    header += kCacheSchema;
    header += " key=";
    header += key;
    header += " analyzer=";
    header += options_.analyzer_version;
    header += " bytes=";
    header += std::to_string(payload.size());
    header += " fnv=";
    header += hex16(fnv1a(payload));
    header += '\n';

    // Unique hidden temp name per (process, store): concurrent writers each
    // build their own file and race only on the atomic rename below.
    std::uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
    fs::path temp = fs::path(options_.dir) /
                    ("." + key + ".tmp." + std::to_string(::getpid()) + "." +
                     std::to_string(seq));
    fs::path final_path = entry_path(key);
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            log::warn().kv("file", temp.string())
                << "cache: cannot open temp file; entry not stored";
            return false;
        }
        out << header << payload;
        out.flush();
        if (!out) {
            log::warn().kv("file", temp.string())
                << "cache: short write; entry not stored";
            std::error_code ec;
            fs::remove(temp, ec);
            return false;
        }
    }
    // Replaced-entry size, sampled just before the rename: the running byte
    // total only needs the delta. A concurrent writer racing the same key
    // can skew this sample, so the total is an estimate between eviction
    // passes (which rescan and resync it exactly).
    std::error_code size_ec;
    std::uintmax_t replaced = fs::file_size(final_path, size_ec);
    std::int64_t old_bytes = size_ec ? 0 : static_cast<std::int64_t>(replaced);
    // POSIX rename is atomic and replaces any existing entry whole:
    // last-writer-wins, and a concurrent reader sees either the old
    // complete envelope or the new one, never a mix.
    std::error_code ec;
    fs::rename(temp, final_path, ec);
    if (ec) {
        log::warn().kv("file", final_path.string()).kv("error", ec.message())
            << "cache: rename failed; entry not stored";
        fs::remove(temp, ec);
        return false;
    }
    adjust_bytes(static_cast<std::int64_t>(header.size() + payload.size()) - old_bytes);
    stores_.fetch_add(1, std::memory_order_relaxed);
    m_stores_->add();
    if (options_.max_bytes > 0) evict_to_limit();
    return true;
}

std::uint64_t ReportCache::bytes_on_disk() const {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(options_.dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.empty() || name.front() == '.') continue;
        if (name.size() <= kEntrySuffix.size() ||
            name.compare(name.size() - kEntrySuffix.size(), kEntrySuffix.size(),
                         kEntrySuffix) != 0) {
            continue;
        }
        std::error_code size_ec;
        std::uintmax_t size = entry.file_size(size_ec);
        if (!size_ec) total += static_cast<std::uint64_t>(size);
    }
    return total;
}

void ReportCache::evict_to_limit() {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    struct Entry {
        fs::file_time_type mtime;
        std::string name;  // deterministic tie-break for equal mtimes
        fs::path path;
        std::uint64_t size = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry& item : fs::directory_iterator(options_.dir, ec)) {
        std::string name = item.path().filename().string();
        if (name.empty() || name.front() == '.') continue;
        if (name.size() <= kEntrySuffix.size() ||
            name.compare(name.size() - kEntrySuffix.size(), kEntrySuffix.size(),
                         kEntrySuffix) != 0) {
            continue;
        }
        std::error_code item_ec;
        std::uintmax_t size = item.file_size(item_ec);
        if (item_ec) continue;
        fs::file_time_type mtime = item.last_write_time(item_ec);
        if (item_ec) continue;
        total += static_cast<std::uint64_t>(size);
        entries.push_back({mtime, name, item.path(), static_cast<std::uint64_t>(size)});
    }
    // The pass scanned anyway — resync the running estimate to the exact
    // on-disk total (minus whatever gets evicted below).
    auto resync = [&] {
        bytes_estimate_.store(static_cast<std::int64_t>(total),
                              std::memory_order_relaxed);
        update_bytes_gauge();
    };
    if (total <= options_.max_bytes) {
        resync();
        return;
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
        if (a.mtime != b.mtime) return a.mtime < b.mtime;
        return a.name < b.name;
    });
    for (const Entry& entry : entries) {
        if (total <= options_.max_bytes) break;
        std::error_code remove_ec;
        if (!fs::remove(entry.path, remove_ec) || remove_ec) continue;
        total -= entry.size;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        m_evictions_->add();
        log::info().kv("file", entry.path.string())
            << "cache: evicted oldest entry over max_bytes";
    }
    resync();
}

void ReportCache::adjust_bytes(std::int64_t delta) {
    bytes_estimate_.fetch_add(delta, std::memory_order_relaxed);
    update_bytes_gauge();
}

void ReportCache::update_bytes_gauge() {
    std::int64_t bytes = bytes_estimate_.load(std::memory_order_relaxed);
    m_bytes_->set(bytes > 0 ? bytes : 0);
}

CacheStats ReportCache::stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.stores = stores_.load(std::memory_order_relaxed);
    out.corrupt_entries = corrupt_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    return out;
}

text::Json ReportCache::stats_json() const {
    CacheStats s = stats();
    text::Json obj = text::Json::object();
    obj.set("dir", text::Json(options_.dir));
    obj.set("hits", text::Json(static_cast<std::int64_t>(s.hits)));
    obj.set("misses", text::Json(static_cast<std::int64_t>(s.misses)));
    obj.set("stores", text::Json(static_cast<std::int64_t>(s.stores)));
    obj.set("corrupt_entries",
            text::Json(static_cast<std::int64_t>(s.corrupt_entries)));
    obj.set("evictions", text::Json(static_cast<std::int64_t>(s.evictions)));
    std::int64_t bytes = bytes_estimate_.load(std::memory_order_relaxed);
    obj.set("bytes", text::Json(bytes > 0 ? bytes : std::int64_t{0}));
    return obj;
}

// ------------------------------------------------------ cached batching --

namespace {

/// Hit-scan state shared by the two analyze_batch_cached overloads.
struct HitScan {
    CachedBatch batch;
    std::vector<std::string> keys;
    std::vector<std::size_t> miss_index;
    std::vector<core::BatchInput> miss_inputs;
};

HitScan scan_hits(ReportCache* cache, std::vector<core::BatchInput> inputs) {
    HitScan scan;
    scan.batch.items.resize(inputs.size());
    scan.batch.from_cache.assign(inputs.size(), 0);
    scan.keys.resize(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (cache != nullptr) {
            scan.keys[i] = ReportCache::key_for(inputs[i].text);
            if (std::optional<core::AnalysisReport> report = cache->load(scan.keys[i])) {
                scan.batch.items[i].file = inputs[i].file;
                scan.batch.items[i].report = std::move(*report);
                scan.batch.from_cache[i] = 1;
                scan.batch.hits += 1;
                continue;
            }
        }
        scan.miss_index.push_back(i);
    }
    scan.miss_inputs.reserve(scan.miss_index.size());
    for (std::size_t i : scan.miss_index) scan.miss_inputs.push_back(std::move(inputs[i]));
    scan.batch.misses = scan.miss_inputs.size();
    // Keys are still needed for the store step, so the batch gets a copy
    // (empty strings when running cacheless — no key was ever computed).
    scan.batch.keys = scan.keys;
    return scan;
}

void merge_misses(HitScan& scan, ReportCache* cache,
                  std::vector<core::BatchItem> analyzed) {
    for (std::size_t j = 0; j < analyzed.size(); ++j) {
        std::size_t i = scan.miss_index[j];
        scan.batch.items[i] = std::move(analyzed[j]);
        // Errors are never cached: a contained failure must re-analyze next
        // time (the failure may be environmental, and serving a stored
        // error for content that now analyzes would be wrong output).
        if (cache != nullptr && scan.batch.items[i].ok()) {
            cache->store(scan.keys[i], *scan.batch.items[i].report);
        }
    }
}

}  // namespace

CachedBatch analyze_batch_cached(const core::Analyzer& analyzer, ReportCache* cache,
                                 std::vector<core::BatchInput> inputs) {
    HitScan scan = scan_hits(cache, std::move(inputs));
    if (!scan.miss_inputs.empty()) {
        merge_misses(scan, cache, analyzer.analyze_batch(std::move(scan.miss_inputs)));
    }
    return std::move(scan.batch);
}

CachedBatch analyze_batch_cached(const core::AnalyzerOptions& options,
                                 ReportCache* cache,
                                 std::vector<core::BatchInput> inputs) {
    HitScan scan = scan_hits(cache, std::move(inputs));
    core::AnalyzerOptions opts = options;
    if (opts.batch_progress) {
        // Rebase progress over the whole batch: hits are already done.
        std::size_t base = scan.batch.hits;
        std::size_t total = scan.batch.items.size();
        auto inner = opts.batch_progress;
        if (base > 0) inner(base, total);
        opts.batch_progress = [base, total, inner](std::size_t done, std::size_t) {
            inner(base + done, total);
        };
    }
    if (!scan.miss_inputs.empty()) {
        core::Analyzer analyzer(opts);
        merge_misses(scan, cache, analyzer.analyze_batch(std::move(scan.miss_inputs)));
    }
    return std::move(scan.batch);
}

}  // namespace extractocol::cache

#include "cache/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
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
/// The value may be empty (an entry with no phases); the numeric and
/// checksum fields reject that when they parse it.
std::optional<std::string_view> token_value(std::string_view token,
                                            std::string_view name) {
    if (token.size() < name.size() + 1) return std::nullopt;
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

/// Parses `name:seconds,name:seconds,...` (empty = no phases).
bool parse_phases(std::string_view text, std::vector<obs::PhaseTiming>& out) {
    out.clear();
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string_view::npos) comma = text.size();
        std::string_view item = text.substr(pos, comma - pos);
        std::size_t colon = item.find(':');
        if (colon == std::string_view::npos || colon == 0) return false;
        double seconds = 0;
        const char* last = item.data() + item.size();
        auto [ptr, ec] = std::from_chars(item.data() + colon + 1, last, seconds);
        if (ec != std::errc() || ptr != last) return false;
        out.push_back({std::string(item.substr(0, colon)), seconds});
        // A trailing comma would leave an empty last item.
        if (comma + 1 == text.size()) return false;
        pos = comma + 1;
    }
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

struct ReportCache::Entry {
    fs::path path;
    std::string raw;
    std::size_t codec_offset = 0;
    std::size_t codec_size = 0;
    std::size_t report_offset = 0;
    std::size_t report_size = 0;
    std::vector<obs::PhaseTiming> phases;
    std::uint64_t peak_bytes = 0;

    [[nodiscard]] std::string_view codec() const {
        return std::string_view(raw).substr(codec_offset, codec_size);
    }
    [[nodiscard]] std::string_view report() const {
        return std::string_view(raw).substr(report_offset, report_size);
    }
};

void ReportCache::count_miss() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    m_misses_->add();
}

void ReportCache::count_hit() {
    hits_.fetch_add(1, std::memory_order_relaxed);
    m_hits_->add();
}

void ReportCache::reject(const Entry& entry, const std::string& key, const char* why) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    m_corrupt_->add();
    log::warn()
            .kv("file", entry.path.string())
            .kv("key", key)
            .kv("reason", why)
        << "cache: corrupt entry dropped, falling back to cold analysis";
    std::error_code ec;
    // best-effort; a locked file just stays corrupt
    if (fs::remove(entry.path, ec) && !ec) {
        adjust_bytes(-static_cast<std::int64_t>(entry.raw.size()));
    }
    count_miss();
}

std::optional<ReportCache::Entry> ReportCache::read_entry(const std::string& key) {
    Entry entry;
    entry.path = entry_path(key);
    {
        std::ifstream in(entry.path, std::ios::binary);
        if (!in) {
            count_miss();
            return std::nullopt;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        entry.raw = buffer.str();
    }
    const std::string& raw = entry.raw;

    // Every integrity failure funnels through reject(): count, delete, miss.
    auto corrupt = [&](const char* why) -> std::optional<Entry> {
        reject(entry, key, why);
        return std::nullopt;
    };
    // An intact entry this analyzer cannot use: count, delete, miss.
    // `found` is the stale field's value: the entry's schema or version.
    auto invalidate = [&](const char* why, std::string_view found) -> std::optional<Entry> {
        evictions_.fetch_add(1, std::memory_order_relaxed);
        m_evictions_->add();
        count_miss();
        log::info()
                .kv("file", entry.path.string())
                .kv("entry", std::string(found))
                .kv("analyzer_version", options_.analyzer_version)
            << why;
        std::error_code ec;
        if (fs::remove(entry.path, ec) && !ec) {
            adjust_bytes(-static_cast<std::int64_t>(raw.size()));
        }
        return std::nullopt;
    };

    std::size_t newline = raw.find('\n');
    if (newline == std::string::npos) return corrupt("no header line");
    std::string_view header(raw.data(), newline);

    std::vector<std::string_view> tokens = split_tokens(header);
    if (!tokens.empty() && tokens[0] == kPreviousCacheSchema) {
        return invalidate("cache: previous envelope schema, entry invalidated", tokens[0]);
    }
    if (tokens.size() != 10 || tokens[0] != kCacheSchema) return corrupt("bad schema tag");
    std::optional<std::string_view> key_field = token_value(tokens[1], "key");
    std::optional<std::string_view> version_field = token_value(tokens[2], "analyzer");
    std::optional<std::string_view> bytes_field = token_value(tokens[3], "bytes");
    std::optional<std::string_view> fnv_field = token_value(tokens[4], "fnv");
    std::optional<std::string_view> report_bytes_field = token_value(tokens[5], "report_bytes");
    std::optional<std::string_view> report_fnv_field = token_value(tokens[6], "report_fnv");
    std::optional<std::string_view> peak_field = token_value(tokens[7], "peak");
    std::optional<std::string_view> phases_field = token_value(tokens[8], "phases");
    std::optional<std::string_view> header_fnv_field = token_value(tokens[9], "header_fnv");
    if (!key_field || !version_field || !bytes_field || !fnv_field || !report_bytes_field ||
        !report_fnv_field || !peak_field || !phases_field || !header_fnv_field) {
        return corrupt("malformed header");
    }
    // The header checksum covers every field before it, telemetry included.
    std::string_view signed_header = header.substr(0, tokens[9].data() - header.data());
    if (hex16(fnv1a(signed_header)) != *header_fnv_field) {
        return corrupt("header checksum mismatch");
    }
    if (*key_field != key) return corrupt("key mismatch");
    if (*version_field != options_.analyzer_version) {
        // Version skew is a *clean* invalidation, not corruption: the entry
        // is intact, it just answers for a different analyzer.
        return invalidate("cache: analyzer version skew, entry invalidated", *version_field);
    }
    std::uint64_t codec_bytes = 0;
    std::uint64_t report_bytes = 0;
    if (!parse_u64(*bytes_field, codec_bytes) || !parse_u64(*report_bytes_field, report_bytes) ||
        !parse_u64(*peak_field, entry.peak_bytes) ||
        !parse_phases(*phases_field, entry.phases)) {
        return corrupt("malformed header");
    }
    // Exact lengths catch both truncation and appended garbage.
    std::size_t body = raw.size() - newline - 1;
    if (codec_bytes > body || report_bytes != body - codec_bytes) {
        return corrupt("section length mismatch");
    }
    entry.codec_offset = newline + 1;
    entry.codec_size = static_cast<std::size_t>(codec_bytes);
    entry.report_offset = entry.codec_offset + entry.codec_size;
    entry.report_size = static_cast<std::size_t>(report_bytes);
    // Both sections are checked on both paths: the hit path never reads
    // the codec section, but no byte of a damaged entry is ever served.
    if (hex16(fnv1a(entry.codec())) != *fnv_field) return corrupt("payload checksum mismatch");
    std::string_view report = entry.report();
    if (hex16(fnv1a(report)) != *report_fnv_field) return corrupt("report checksum mismatch");
    // The rendered section is spliced into a one-line response verbatim.
    if (report.size() < 2 || report.front() != '{' || report.back() != '}' ||
        report.find('\n') != std::string_view::npos) {
        return corrupt("report section is not one JSON object line");
    }
    return entry;
}

std::optional<core::AnalysisReport> ReportCache::load(const std::string& key) {
    std::optional<Entry> entry = read_entry(key);
    if (!entry) return std::nullopt;
    auto corrupt = [&](const char* why) -> std::optional<core::AnalysisReport> {
        reject(*entry, key, why);
        return std::nullopt;
    };

    Result<text::Json> parsed = text::parse_json(entry->codec());
    if (!parsed.ok()) return corrupt("payload is not valid JSON");
    const text::Json& doc = parsed.value();
    const text::Json* report_doc = doc.is_object() ? doc.find("report") : nullptr;
    const text::Json* check = doc.is_object() ? doc.find("check") : nullptr;
    if (report_doc == nullptr || check == nullptr || !check->is_object()) {
        return corrupt("payload missing report/check");
    }
    Result<core::AnalysisReport> report = report_from_json(*report_doc);
    if (!report.ok()) return corrupt(report.error().message.c_str());
    // The stored counts and the header's telemetry double as a decode
    // cross-check: a codec drift (or a JSON-valid corruption the checksum
    // somehow missed) that changes result sizes or timings is caught
    // before the report is served.
    const core::AnalysisReport& decoded = report.value();
    const text::Json* txn_count = check->find("transactions");
    const text::Json* dep_count = check->find("dependencies");
    if (txn_count == nullptr || !txn_count->is_int() || dep_count == nullptr ||
        !dep_count->is_int() ||
        static_cast<std::uint64_t>(txn_count->as_int()) != decoded.transactions.size() ||
        static_cast<std::uint64_t>(dep_count->as_int()) != decoded.dependencies.size() ||
        entry->phases != decoded.stats.phases ||
        entry->peak_bytes != decoded.stats.peak_bytes) {
        return corrupt("telemetry cross-check failed");
    }

    count_hit();
    return std::move(report).take();
}

std::optional<RenderedHit> ReportCache::load_rendered(const std::string& key) {
    std::optional<Entry> entry = read_entry(key);
    if (!entry) return std::nullopt;
    count_hit();
    // The rendered section ends the file: cut the read buffer down to it
    // in place rather than copying it out.
    RenderedHit hit;
    hit.report = std::move(entry->raw);
    hit.report.erase(0, entry->report_offset);
    hit.phases = std::move(entry->phases);
    hit.peak_bytes = entry->peak_bytes;
    return hit;
}

bool ReportCache::store(const std::string& key, const core::AnalysisReport& report) {
    return store(key, report, report.to_json().dump());
}

bool ReportCache::store(const std::string& key, const core::AnalysisReport& report,
                        std::string_view rendered) {
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
    header.reserve(kCacheSchema.size() + key.size() + 256);
    header += kCacheSchema;
    header += " key=";
    header += key;
    header += " analyzer=";
    header += options_.analyzer_version;
    header += " bytes=";
    header += std::to_string(payload.size());
    header += " fnv=";
    header += hex16(fnv1a(payload));
    header += " report_bytes=";
    header += std::to_string(rendered.size());
    header += " report_fnv=";
    header += hex16(fnv1a(rendered));
    header += " peak=";
    header += std::to_string(report.stats.peak_bytes);
    // Phase names are the analyzer's own identifiers: no space, ',' or ':'.
    header += " phases=";
    for (std::size_t i = 0; i < report.stats.phases.size(); ++i) {
        char seconds[32];
        std::snprintf(seconds, sizeof seconds, "%.17g", report.stats.phases[i].seconds);
        if (i != 0) header += ',';
        header += report.stats.phases[i].name;
        header += ':';
        header += seconds;
    }
    header += ' ';
    std::string header_fnv = hex16(fnv1a(header));
    header += "header_fnv=";
    header += header_fnv;
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
        out << header << payload << rendered;
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
    adjust_bytes(static_cast<std::int64_t>(header.size() + payload.size() + rendered.size()) -
                 old_bytes);
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

CachedBatch analyze_batch_cached(const core::AnalyzerOptions& options,
                                 ReportCache* cache,
                                 std::vector<core::BatchInput> inputs) {
    CachedBatch batch;
    batch.items.resize(inputs.size());
    batch.from_cache.assign(inputs.size(), 0);
    std::vector<std::string> keys(inputs.size());
    std::vector<std::size_t> miss_index;
    std::vector<core::BatchInput> miss_inputs;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (cache != nullptr) {
            keys[i] = ReportCache::key_for(inputs[i].text);
            if (std::optional<core::AnalysisReport> report = cache->load(keys[i])) {
                batch.items[i].file = inputs[i].file;
                batch.items[i].report = std::move(*report);
                batch.from_cache[i] = 1;
                batch.hits += 1;
                continue;
            }
        }
        miss_index.push_back(i);
        miss_inputs.push_back(std::move(inputs[i]));
    }
    batch.misses = miss_inputs.size();
    if (miss_inputs.empty()) return batch;

    core::AnalyzerOptions opts = options;
    if (opts.batch_progress) {
        // Rebase progress over the whole batch: hits are already done.
        std::size_t base = batch.hits;
        std::size_t total = batch.items.size();
        auto inner = opts.batch_progress;
        if (base > 0) inner(base, total);
        opts.batch_progress = [base, total, inner](std::size_t done, std::size_t) {
            inner(base + done, total);
        };
    }
    std::vector<core::BatchItem> analyzed =
        core::Analyzer(opts).analyze_batch(std::move(miss_inputs));
    for (std::size_t j = 0; j < analyzed.size(); ++j) {
        std::size_t i = miss_index[j];
        batch.items[i] = std::move(analyzed[j]);
        // Errors are never cached: a contained failure must re-analyze next
        // time (the failure may be environmental, and serving a stored
        // error for content that now analyzes would be wrong output).
        if (cache != nullptr && batch.items[i].ok()) {
            cache->store(keys[i], *batch.items[i].report);
        }
    }
    return batch;
}

}  // namespace extractocol::cache

#include "obs/telemetry.hpp"

#include <algorithm>

namespace extractocol::obs {

namespace {

/// Adds `n` under `name` to a name-sorted (name, count) tally.
void tally(std::vector<std::pair<std::string, std::uint64_t>>& counts,
           std::string_view name, std::uint64_t n = 1) {
    auto it = std::lower_bound(
        counts.begin(), counts.end(), name,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
    if (it != counts.end() && it->first == name) {
        it->second += n;
    } else {
        counts.emplace(it, std::string(name), n);
    }
}

text::Json phases_json(const std::vector<PhaseTiming>& phases) {
    text::Json out = text::Json::array();
    for (const PhaseTiming& phase : phases) {
        text::Json p = text::Json::object();
        p.set("name", text::Json(phase.name));
        p.set("seconds", text::Json(phase.seconds));
        out.push_back(std::move(p));
    }
    return out;
}

text::Json u64_json(std::uint64_t v) { return text::Json(static_cast<std::int64_t>(v)); }

}  // namespace

text::Json AppRunRecord::manifest_json() const {
    text::Json obj = text::Json::object();
    obj.set("file", text::Json(file));
    obj.set("outcome", text::Json(outcome));
    if (!error.empty()) obj.set("error", text::Json(error));
    obj.set("wall_seconds", text::Json(wall_seconds));
    obj.set("phases", phases_json(phases));
    obj.set("steps_used", u64_json(steps_used));
    obj.set("budget_fraction", text::Json(budget_fraction));
    obj.set("peak_bytes", u64_json(peak_bytes));
    obj.set("transactions", u64_json(transactions));
    obj.set("dependencies", u64_json(dependencies));
    // Accuracy blocks are deterministic scores, exempt from normalization
    // by the same argument as steps_used.
    if (accuracy) obj.set("accuracy", *accuracy);
    return obj;
}

text::Json AppRunRecord::journal_json() const {
    text::Json obj = text::Json::object();
    obj.set("request", u64_json(request_id));
    obj.set("connection", u64_json(connection_id));
    obj.set("op", text::Json(op));
    if (!file.empty()) obj.set("file", text::Json(file));
    if (!key.empty()) obj.set("key", text::Json(key));
    obj.set("cached", text::Json(cached));
    obj.set("outcome", text::Json(error.empty() ? "ok" : "error"));
    if (!error.empty()) obj.set("error", text::Json(error));
    obj.set("wall_seconds", text::Json(wall_seconds));
    if (!phases.empty()) obj.set("phases", phases_json(phases));
    obj.set("response_bytes", u64_json(response_bytes));
    if (peak_bytes > 0) obj.set("peak_bytes", u64_json(peak_bytes));
    return obj;
}

void RequestWindow::merge_from(const RequestWindow& other) {
    requests += other.requests;
    errors += other.errors;
    hits += other.hits;
    misses += other.misses;
    latency_ms.merge_from(other.latency_ms);
}

std::uint64_t RequestStats::counter(std::string_view name) const {
    for (const auto& [n, value] : counters) {
        if (n == name) return value;
    }
    return 0;
}

MetricsSnapshot RequestStats::merged_into(MetricsSnapshot registry,
                                          std::int64_t connections_active) const {
    registry.counters = counters;
    auto& gauges = registry.gauges;
    auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
    gauges.emplace_back("daemon.connections.active", connections_active);
    gauges.emplace_back("daemon.requests.inflight", inflight);
    // The window tallies shrink as slots expire, so they are gauges.
    gauges.emplace_back("daemon.requests.window", i64(window.requests));
    gauges.emplace_back("daemon.request_errors.window", i64(window.errors));
    gauges.emplace_back("daemon.cache.hits.window", i64(window.hits));
    gauges.emplace_back("daemon.cache.misses.window", i64(window.misses));
    registry.histograms.emplace_back("daemon.request_ms", latency_ms);
    registry.histograms.emplace_back("daemon.request_ms.window", window.latency_ms);
    auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::sort(registry.gauges.begin(), registry.gauges.end(), by_name);
    std::sort(registry.histograms.begin(), registry.histograms.end(), by_name);
    return registry;
}

std::uint64_t RequestTelemetry::next_request_id() {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::int64_t RequestTelemetry::tick_of(Clock::time_point t) const {
    if (t <= epoch_) return 0;
    return (t - epoch_) / kSlotWidth;
}

void RequestTelemetry::record_at(
    const AppRunRecord& record,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    Clock::time_point now) {
    const bool failed = !record.error.empty();
    // Hits and misses count lookups: admin ops, requests that failed before
    // reaching the cache and daemons without one carry no key.
    const bool looked_up = !record.key.empty();
    const double ms = record.wall_seconds * 1000.0;
    const std::int64_t tick = tick_of(now);

    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = ring_[static_cast<std::size_t>(tick) % kWindowSlots];
    if (slot.tick != tick) {
        // The slot last served a time slice at least one full window ago:
        // its figures have expired, so it is recycled for this slice.
        slot = Slot{tick, {}};
    }
    slot.figures.requests += 1;
    if (failed) slot.figures.errors += 1;
    if (looked_up) (record.cached ? slot.figures.hits : slot.figures.misses) += 1;
    slot.figures.latency_ms.observe(ms);
    latency_ms_.observe(ms);

    tally(ops_, record.op);
    tally(counters_, "daemon.requests");
    if (failed) tally(counters_, "daemon.request_errors");
    if (looked_up) {
        tally(counters_, record.cached ? "daemon.cache.hits" : "daemon.cache.misses");
    }
    for (const auto& [name, n] : counters) tally(counters_, name, n);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
}

RequestStats RequestTelemetry::snapshot_at(Clock::time_point now) const {
    const std::int64_t tick = tick_of(now);
    const std::int64_t oldest = tick - static_cast<std::int64_t>(kWindowSlots) + 1;
    RequestStats out;
    out.window_seconds =
        std::chrono::duration<double>(kSlotWidth).count() * static_cast<double>(kWindowSlots);
    std::lock_guard<std::mutex> lock(mutex_);
    out.ops = ops_;
    out.counters = counters_;
    out.inflight = inflight_.load(std::memory_order_relaxed);
    out.latency_ms = latency_ms_;
    for (const Slot& slot : ring_) {
        if (slot.tick >= oldest && slot.tick <= tick) out.window.merge_from(slot.figures);
    }
    return out;
}

void RunTelemetry::set_jobs(unsigned jobs) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_ = jobs;
}

void RunTelemetry::set_timestamp_unix_ms(std::uint64_t ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    timestamp_unix_ms_ = ms;
}

void RunTelemetry::set_run_wall_seconds(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    run_wall_seconds_ = seconds;
}

void RunTelemetry::set_metrics(MetricsSnapshot snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = std::move(snapshot);
}

void RunTelemetry::set_profile_summary(text::Json summary) {
    std::lock_guard<std::mutex> lock(mutex_);
    profile_summary_ = std::move(summary);
}

void RunTelemetry::set_fleet_accuracy(text::Json accuracy) {
    std::lock_guard<std::mutex> lock(mutex_);
    fleet_accuracy_ = std::move(accuracy);
}

void RunTelemetry::set_cache(text::Json cache) {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_ = std::move(cache);
}

void RunTelemetry::add(AppRunRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

std::size_t RunTelemetry::app_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

FleetStats RunTelemetry::fleet() const {
    std::lock_guard<std::mutex> lock(mutex_);
    FleetStats out;
    out.apps = records_.size();
    out.wall_seconds = run_wall_seconds_;
    if (run_wall_seconds_ > 0) {
        out.apps_per_second = static_cast<double>(records_.size()) / run_wall_seconds_;
    }
    for (const AppRunRecord& r : records_) {
        if (r.outcome == "error") out.errors += 1;
        tally(out.outcomes, r.outcome);
        // Re-derive the latency distribution from the records rather than
        // keeping a live Histogram: fleet() stays consistent with whatever
        // subset of records has been added so far.
        out.latency_ms.observe(r.wall_seconds * 1000.0);
    }
    return out;
}

text::Json RunTelemetry::manifest_json(bool normalize_resources) const {
    FleetStats fs = fleet();

    std::vector<AppRunRecord> records;
    std::optional<MetricsSnapshot> metrics;
    std::optional<text::Json> profile;
    std::optional<text::Json> fleet_accuracy;
    std::optional<text::Json> cache;
    unsigned jobs = 1;
    std::uint64_t timestamp = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records = records_;
        metrics = metrics_;
        profile = profile_summary_;
        fleet_accuracy = fleet_accuracy_;
        cache = cache_;
        jobs = jobs_;
        timestamp = timestamp_unix_ms_;
    }

    if (normalize_resources) {
        timestamp = 0;
        jobs = 0;
        fs.wall_seconds = 0;
        fs.apps_per_second = 0;
        // Keep latency count (it equals the deterministic app count); zero
        // the measured values so percentiles render as 0.
        HistogramStats latency{};
        latency.count = fs.latency_ms.count;
        fs.latency_ms = latency;
        for (AppRunRecord& r : records) {
            r.wall_seconds = 0;
            for (PhaseTiming& phase : r.phases) phase.seconds = 0;
            r.peak_bytes = 0;
        }
        if (cache && cache->is_object()) {
            // Entry payloads embed the cold run's measured timings, so the
            // on-disk byte total varies run to run; the operation counts are
            // deterministic per workload and survive normalization.
            for (auto& [key, value] : cache->members()) {
                if (key == "bytes") value = text::Json(std::int64_t{0});
            }
        }
        if (metrics) {
            // The registry is process-global: histogram counts and gauge
            // values accumulate across runs in the same process, so a
            // byte-comparable rendering must zero them entirely. Counters
            // survive because they are the run's own RunScope counts, which
            // are deterministic per run at any --jobs value.
            for (auto& [name, value] : metrics->gauges) value = 0;
            for (auto& [name, stats] : metrics->histograms) stats = HistogramStats{};
        }
    }

    text::Json apps = text::Json::array();
    for (const AppRunRecord& r : records) apps.push_back(r.manifest_json());

    text::Json outcomes = text::Json::object();
    for (const auto& [name, count] : fs.outcomes) {
        outcomes.set(name, u64_json(count));
    }
    text::Json fleet_obj = text::Json::object();
    fleet_obj.set("apps", u64_json(fs.apps));
    fleet_obj.set("errors", u64_json(fs.errors));
    fleet_obj.set("outcomes", std::move(outcomes));
    fleet_obj.set("wall_seconds", text::Json(fs.wall_seconds));
    fleet_obj.set("apps_per_second", text::Json(fs.apps_per_second));
    fleet_obj.set("latency_ms", histogram_stats_json(fs.latency_ms));
    if (fleet_accuracy) fleet_obj.set("accuracy", *fleet_accuracy);

    text::Json doc = text::Json::object();
    // v2: per-app and fleet "accuracy" blocks (optional, --eval runs only).
    // v1 consumers that only read the fields they know keep working.
    doc.set("schema", text::Json("extractocol.run_manifest/v2"));
    doc.set("generated_unix_ms", u64_json(timestamp));
    doc.set("jobs", u64_json(jobs));
    doc.set("fleet", std::move(fleet_obj));
    doc.set("apps", std::move(apps));
    // Profile totals are deterministic counts (Profiler::summary_json), so
    // they need no normalization.
    if (profile) doc.set("profile", *profile);
    // The cache block is the run's slice of the cache index: which lookups
    // hit, missed, corrupted, or evicted this run.
    if (cache) doc.set("cache", *cache);
    if (metrics) doc.set("metrics", metrics->to_json(NameStyle::kPrometheus));
    return doc;
}

}  // namespace extractocol::obs

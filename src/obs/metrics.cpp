#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace extractocol::obs {

std::size_t HistogramStats::bucket_index(double sample) {
    if (!(sample > kBucketBase)) return 0;
    // bucket i covers (base * 2^(i-1), base * 2^i]
    auto i = static_cast<std::size_t>(std::ceil(std::log2(sample / kBucketBase)));
    return std::min(i, kBucketCount - 1);
}

double HistogramStats::percentile(double q) const {
    if (count == 0) return 0.0;
    if (count == 1) return min;
    q = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            double upper = kBucketBase * std::pow(2.0, static_cast<double>(i));
            return std::clamp(upper, min, max);
        }
    }
    return max;
}

void HistogramStats::observe(double sample) {
    min = count == 0 ? sample : std::min(min, sample);
    max = count == 0 ? sample : std::max(max, sample);
    count += 1;
    sum += sample;
    buckets[bucket_index(sample)] += 1;
}

void Histogram::observe(double sample) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.observe(sample);
}

HistogramStats Histogram::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void Histogram::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = HistogramStats{};
}

void HistogramStats::merge_from(const HistogramStats& other) {
    if (other.count == 0) return;
    if (count == 0) {
        *this = other;
        return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    sum += other.sum;
    for (std::size_t i = 0; i < kBucketCount; ++i) buckets[i] += other.buckets[i];
}

// ------------------------------------------------------------- snapshot --

namespace {

template <typename T>
const T* find_named(const std::vector<std::pair<std::string, T>>& items,
                    std::string_view name) {
    for (const auto& [n, v] : items) {
        if (n == name) return &v;
    }
    return nullptr;
}

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
    std::string out;
    out.reserve(name.size() + 1);
    for (char ch : name) {
        bool valid = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                     (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
        out.push_back(valid ? ch : '_');
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
    return out;
}

text::Json histogram_stats_json(const HistogramStats& stats) {
    text::Json h = text::Json::object();
    h.set("count", text::Json(static_cast<std::int64_t>(stats.count)));
    h.set("sum", text::Json(stats.sum));
    if (stats.count == 0) {
        h.set("min", text::Json(nullptr));
        h.set("max", text::Json(nullptr));
        h.set("mean", text::Json(nullptr));
        h.set("p50", text::Json(nullptr));
        h.set("p95", text::Json(nullptr));
        h.set("p99", text::Json(nullptr));
    } else {
        h.set("min", text::Json(stats.min));
        h.set("max", text::Json(stats.max));
        h.set("mean", text::Json(stats.mean()));
        h.set("p50", text::Json(stats.p50()));
        h.set("p95", text::Json(stats.p95()));
        h.set("p99", text::Json(stats.p99()));
    }
    return h;
}

const std::uint64_t* MetricsSnapshot::counter(std::string_view name) const {
    return find_named(counters, name);
}

const HistogramStats* MetricsSnapshot::histogram(std::string_view name) const {
    return find_named(histograms, name);
}

text::Json MetricsSnapshot::to_json(NameStyle style) const {
    auto render = [style](const std::string& name) {
        return style == NameStyle::kPrometheus ? sanitize_metric_name(name) : name;
    };
    text::Json doc = text::Json::object();
    text::Json cs = text::Json::object();
    for (const auto& [name, value] : counters) {
        cs.set(render(name), text::Json(static_cast<std::int64_t>(value)));
    }
    doc.set("counters", std::move(cs));
    text::Json gs = text::Json::object();
    for (const auto& [name, value] : gauges) gs.set(render(name), text::Json(value));
    doc.set("gauges", std::move(gs));
    text::Json hs = text::Json::object();
    for (const auto& [name, stats] : histograms) {
        hs.set(render(name), histogram_stats_json(stats));
    }
    doc.set("histograms", std::move(hs));
    return doc;
}

std::string MetricsSnapshot::to_prometheus() const {
    std::string out;
    auto number = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return std::string(buf);
    };
    for (const auto& [name, value] : counters) {
        std::string prom = sanitize_metric_name(name);
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : gauges) {
        std::string prom = sanitize_metric_name(name);
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, stats] : histograms) {
        std::string prom = sanitize_metric_name(name);
        out += "# TYPE " + prom + " summary\n";
        // Quantiles of an empty summary are undefined; Prometheus convention
        // is to omit the quantile samples and let _count say "no data".
        if (stats.count > 0) {
            out += prom + "{quantile=\"0.5\"} " + number(stats.p50()) + "\n";
            out += prom + "{quantile=\"0.95\"} " + number(stats.p95()) + "\n";
            out += prom + "{quantile=\"0.99\"} " + number(stats.p99()) + "\n";
        }
        out += prom + "_sum " + number(stats.sum) + "\n";
        out += prom + "_count " + std::to_string(stats.count) + "\n";
    }
    return out;
}

std::string MetricsSnapshot::to_table() const {
    std::size_t width = 0;
    for (const auto& [name, value] : counters) width = std::max(width, name.size());
    for (const auto& [name, value] : gauges) width = std::max(width, name.size());
    for (const auto& [name, stats] : histograms) width = std::max(width, name.size());

    std::string out;
    auto pad = [width](const std::string& name) {
        return name + std::string(width - name.size() + 2, ' ');
    };
    for (const auto& [name, value] : counters) {
        out += pad(name) + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : gauges) {
        out += pad(name) + std::to_string(value) + "\n";
    }
    for (const auto& [name, stats] : histograms) {
        if (stats.count == 0) {
            out += pad(name) + "count=0 (no samples)\n";
            continue;
        }
        out += pad(name) + "count=" + std::to_string(stats.count) +
               " sum=" + format_double(stats.sum) + " min=" + format_double(stats.min) +
               " max=" + format_double(stats.max) +
               " mean=" + format_double(stats.mean()) +
               " p50=" + format_double(stats.p50()) +
               " p95=" + format_double(stats.p95()) +
               " p99=" + format_double(stats.p99()) + "\n";
    }
    return out;
}

// ------------------------------------------------------------- registry --

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

std::unique_lock<std::mutex> MetricsRegistry::acquire() const {
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
        auto start = std::chrono::steady_clock::now();
        lock.lock();
        auto waited = std::chrono::steady_clock::now() - start;
        lock_waits_.fetch_add(1, std::memory_order_relaxed);
        lock_wait_ns_.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count()),
            std::memory_order_relaxed);
    }
    return lock;
}

// Linear find-or-create; instrument acquisition is hoisted out of hot loops
// so the registry sees a handful of lookups per analysis.
Counter& MetricsRegistry::counter(std::string_view name) {
    auto lock = acquire();
    for (auto& [n, v] : counters_) {
        if (n == name) return *v;
    }
    counters_.emplace_back(std::string(name), std::unique_ptr<Counter>(new Counter(
                                                  std::string(name), this == &global())));
    return *counters_.back().second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    auto lock = acquire();
    for (auto& [n, v] : gauges_) {
        if (n == name) return *v;
    }
    gauges_.emplace_back(std::string(name), std::unique_ptr<Gauge>(new Gauge()));
    return *gauges_.back().second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    auto lock = acquire();
    for (auto& [n, v] : histograms_) {
        if (n == name) return *v;
    }
    histograms_.emplace_back(std::string(name),
                             std::unique_ptr<Histogram>(new Histogram()));
    return *histograms_.back().second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot out;
    {
        auto lock = acquire();
        for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
        for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
        for (const auto& [name, h] : histograms_) {
            out.histograms.emplace_back(name, h->stats());
        }
    }
    // Synthetic lock-contention gauges, reported even at zero so the key set
    // is scheduling-independent (gauges are normalized away by determinism
    // checks, but their *names* are compared).
    out.gauges.emplace_back(
        "obs.registry.lock_waits",
        static_cast<std::int64_t>(lock_waits_.load(std::memory_order_relaxed)));
    out.gauges.emplace_back(
        "obs.registry.lock_wait_us",
        static_cast<std::int64_t>(lock_wait_ns_.load(std::memory_order_relaxed) / 1000));
    auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::sort(out.counters.begin(), out.counters.end(), by_name);
    std::sort(out.gauges.begin(), out.gauges.end(), by_name);
    std::sort(out.histograms.begin(), out.histograms.end(), by_name);
    return out;
}

void MetricsRegistry::reset() {
    auto lock = acquire();
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
    lock_waits_.store(0, std::memory_order_relaxed);
    lock_wait_ns_.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- run scopes --

void RunScope::Unit::absorb(const Unit& other) {
    for (const auto& [counter, n] : other.counts) add(counter, n);
    for (const auto& [api, n] : other.unmodeled_apis) unmodeled_apis[api] += n;
    profile.merge(other.profile);
}

RunScope::RunScope(std::size_t max_steps, bool profile) : max_steps_(max_steps) {
    run_.profiling = profile || profiling();
    bound_.emplace(run_);
}

RunScope::Enter::Enter(Unit& unit, std::string site, Phase phase) : prev_(current_) {
    if (!site.empty()) {
        unit.site_row.site = std::move(site);
        seconds_ = phase == Phase::kSlice ? &unit.site_row.slice_seconds
                                          : &unit.site_row.sig_seconds;
        start_ = std::chrono::steady_clock::now();
    }
    current_ = &unit;
}

RunScope::Enter::~Enter() {
    current_ = prev_;
    if (seconds_ != nullptr) {
        *seconds_ +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    }
}

void RunScope::Stage::record(std::size_t index, std::size_t steps) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[index].steps = steps;
    slots_[index].done = true;
    // Stops once the limit is crossed: later units are dropped whether they
    // ran or not, so their scheduling-dependent completion changes nothing.
    while (!run_->exhausted() && frontier_ < slots_.size() && slots_[frontier_].done) {
        Slot& slot = slots_[frontier_++];
        SiteProfile& row = slot.unit.site_row;
        if (!row.site.empty()) {
            (phase_ == Phase::kSlice ? row.taint_steps : row.sig_steps) = slot.steps;
            slot.unit.profile.merge_site(row);
        }
        folded_.absorb(slot.unit);
        slot.unit = Unit{};
        run_->steps_used_ += slot.steps;
        if (run_->max_steps_ != 0 && run_->steps_used_ > run_->max_steps_) {
            run_->exhausted_.store(true, std::memory_order_relaxed);
        }
    }
}

std::size_t RunScope::Stage::finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    run_->run_.absorb(folded_);
    folded_ = Unit{};
    return frontier_;
}

RunScope::Ledger RunScope::close() {
    bound_.reset();
    // Global-registry counters live as long as the process and their names
    // never change, so no registry lock is needed here.
    Unit* outer = current_;
    if (outer != nullptr) {
        outer->absorb(run_);
    } else {
        for (const auto& [counter, n] : run_.counts) {
            counter->value_.fetch_add(n, std::memory_order_relaxed);
        }
    }
    Ledger out;
    for (const auto& [counter, n] : run_.counts) {
        if (n != 0) out.counters.emplace_back(counter->name_, n);
    }
    std::sort(out.counters.begin(), out.counters.end());
    out.unmodeled_apis = std::move(run_.unmodeled_apis);
    out.profile = std::move(run_.profile);
    return out;
}

}  // namespace extractocol::obs

// Shared pieces of the benchmark program: seeded randomness, hashing,
// exact order statistics, the metric sink, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "text/json.hpp"

namespace perfbench {

using namespace extractocol;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start, Clock::time_point end = Clock::now()) {
    return std::chrono::duration<double, std::milli>(end - start).count();
}

/// SplitMix64: every seeded choice the benchmark makes comes from one of these.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, n).
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }

private:
    std::uint64_t state_;
};

/// FNV-1a, 64 bit: fingerprints inputs, schedules and canonical reports.
class Fnv {
public:
    Fnv& add(std::string_view bytes) {
        for (unsigned char c : bytes) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }
    Fnv& add(std::uint64_t value) {
        return add(std::string_view(reinterpret_cast<const char*>(&value), sizeof value));
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Exact order statistics over raw samples (linear interpolation between
/// closest ranks). Never a histogram bucket bound.
struct Samples {
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    [[nodiscard]] std::size_t size() const { return values.size(); }
    [[nodiscard]] double quantile(double q) const {
        if (values.empty()) return 0.0;
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        double rank = q * static_cast<double>(sorted.size() - 1);
        auto lo = static_cast<std::size_t>(std::floor(rank));
        std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
    }
    [[nodiscard]] double median() const { return quantile(0.5); }
    /// Samples strictly above the q-quantile: a tail percentile is only
    /// reported when at least ten samples lie beyond it.
    [[nodiscard]] std::size_t beyond(double q) const {
        double cut = quantile(q);
        return static_cast<std::size_t>(
            std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
    }
};

inline double median_of(std::vector<double> v) {
    Samples s;
    s.values = std::move(v);
    return s.median();
}

/// Named metrics with units, printed in insertion order.
class MetricSink {
public:
    void put(const std::string& name, double value, const std::string& unit) {
        if (index_.emplace(name, entries_.size()).second) {
            entries_.push_back({name, value, unit});
        } else {
            entries_[index_[name]] = {name, value, unit};
        }
    }
    [[nodiscard]] text::Json to_json() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
};

/// One run's verdict on correctness, with the first few failures named.
struct Checks {
    bool ok = true;
    std::vector<std::string> failures;

    void fail(const std::string& what) {
        ok = false;
        if (failures.size() < 20) failures.push_back(what);
    }
    void require(bool condition, const std::string& what) {
        if (!condition) fail(what);
    }
};

/// Spans recorded by the traced run: kept in memory, written out at the
/// end. Single-threaded by construction (the traced pass runs at jobs 1).
class Tracer {
public:
    struct Span {
        std::string name;
        std::int32_t parent = -1;
        std::uint32_t subject = 0;  // app or request id the span belongs to
        double start_us = 0;
        double end_us = 0;
    };

    class Scope {
    public:
        Scope(Tracer& tracer, std::string name, std::uint32_t subject)
            : tracer_(tracer), id_(tracer.begin(std::move(name), subject)) {}
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::size_t id_;
    };

    /// A disabled tracer records nothing: the same instrumented code then
    /// runs untraced, and the difference is the tracing overhead.
    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    std::size_t begin(std::string name, std::uint32_t subject);
    void end(std::size_t id);
    [[nodiscard]] bool enabled() const { return enabled_; }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    /// Self time per span name (duration minus the time its children
    /// cover), in ms, over the spans with index >= `from`.
    [[nodiscard]] std::map<std::string, double> self_ms(std::size_t from = 0) const;
    [[nodiscard]] double duration_ms(std::size_t id) const {
        return (spans_[id].end_us - spans_[id].start_us) / 1000.0;
    }
    [[nodiscard]] text::Json to_json() const;

private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/// The report as a user sees it, minus what legitimately differs between
/// two runs over the same input: timings and counter windows ("metrics")
/// and the counter-derived unmodeled-API table, which the cache strips.
std::string canonical_report(const text::Json& report_json);
inline std::uint64_t canonical_hash(const core::AnalysisReport& report) {
    return Fnv().add(canonical_report(report.to_json())).value();
}

}  // namespace perfbench

#include "workloads.hpp"

#include <unistd.h>

#include <cstdio>
#include <optional>

#include "core/analyzer.hpp"
#include "daemon.hpp"
#include "text/json.hpp"

namespace perfbench {

namespace {

std::uint64_t resident_bytes() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0;
    unsigned long long size = 0, resident = 0;
    int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    return n == 2 ? resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

/// Whether one analysis result matches the set-up reference.
bool matches(const Result<core::AnalysisReport>& result, const Input& in) {
    return result.ok() && canonical_hash(result.value()) == in.reference;
}

/// One set-up sample after each timed operation: spread over the run, the
/// median is not at the mercy of one moment on a shared machine, and every
/// sample meets the caches as the workload leaves them.
void sample_setup(Samples& setup_s, unsigned jobs) {
    setup_s.add(analyzer_construction_s(jobs, 1).values.front());
}

// ---- fleet_batch: closed-loop passes of analyze_batch at jobs 2 ------------

RunResult run_fleet(const WorkloadInputs& w, double seconds, Checks& checks) {
    RunResult r;
    core::AnalyzerOptions options;
    options.jobs = kFleetJobs;
    core::Analyzer analyzer(options);

    const std::size_t apps = w.inputs.size();
    const std::size_t passes = w.sequence.size() / apps;
    // Throughput is the median over passes: a pass is short enough that a
    // stall of the shared machine spoils one pass, not the run.
    Samples pass_apps_per_s;
    RssSampler rss;
    auto start = Clock::now();
    for (std::size_t pass = 0; ms_since(start) < seconds * 1000; ++pass) {
        const std::uint32_t* order = &w.sequence[(pass % passes) * apps];
        std::vector<core::BatchInput> batch;
        batch.reserve(apps);
        for (std::size_t i = 0; i < apps; ++i) {
            batch.push_back({w.inputs[order[i]].label, w.inputs[order[i]].text});
        }
        auto t0 = Clock::now();
        auto items = analyzer.analyze_batch(std::move(batch));
        pass_apps_per_s.add(static_cast<double>(apps) / (ms_since(t0) / 1000));
        for (std::size_t i = 0; i < apps; ++i) {
            const Input& in = w.inputs[order[i]];
            ++r.attempted;
            if (!items[i].ok() || canonical_hash(*items[i].report) != in.reference) {
                ++r.failed;
                checks.fail("fleet_batch: wrong or failed report for " + in.label);
                continue;
            }
            r.latency_ms.add(items[i].report->stats.analysis_seconds * 1000);
        }
        sample_setup(r.setup_s, kFleetJobs);
    }
    r.peak_rss_mb = rss.stop();
    r.apps_per_s = pass_apps_per_s.median();
    return r;
}

// ---- large_app: one app in flight, in-app jobs 2 ----------------------------

RunResult run_large(const WorkloadInputs& w, double seconds, Checks& checks) {
    RunResult r;
    core::AnalyzerOptions options;
    options.jobs = kLargeJobs;
    core::Analyzer analyzer(options);

    double busy_ms = 0;
    RssSampler rss;
    auto start = Clock::now();
    for (std::size_t k = 0; ms_since(start) < seconds * 1000; ++k) {
        const Input& in = w.inputs[w.sequence[k % w.sequence.size()]];
        auto t0 = Clock::now();
        auto result = analyzer.analyze_xapk(in.text);
        double ms = ms_since(t0);
        ++r.attempted;
        if (!matches(result, in)) {
            ++r.failed;
            checks.fail("large_app: wrong or failed report for " + in.label);
            continue;
        }
        busy_ms += ms;
        r.latency_ms.add(ms);
        sample_setup(r.setup_s, kLargeJobs);
    }
    r.peak_rss_mb = rss.stop();
    r.apps_per_s = static_cast<double>(r.attempted - r.failed) / (busy_ms / 1000);
    return r;
}

// ---- daemon_mixed: open loop against an in-process daemon ------------------

/// The daemon's per-instance cache tally, read through the ping op.
std::pair<std::uint64_t, std::uint64_t> daemon_cache_counts(const std::string& socket) {
    Connection conn(socket);
    std::string response;
    if (!conn.ok() || !conn.round_trip("{\"op\":\"ping\"}\n", response)) return {0, 0};
    auto parsed = text::parse_json(response);
    if (!parsed.ok()) return {0, 0};
    const text::Json* cache = parsed.value().find("cache");
    if (cache == nullptr || !cache->is_object()) return {0, 0};
    const text::Json* hits = cache->find("hits");
    const text::Json* misses = cache->find("misses");
    if (hits == nullptr || misses == nullptr) return {0, 0};
    return {static_cast<std::uint64_t>(hits->as_int()),
            static_cast<std::uint64_t>(misses->as_int())};
}

/// True when a daemon response carries `ok`, the expected cache verdict and
/// the reference report.
bool response_matches(const std::string& response, bool cached, const Input& in) {
    auto parsed = text::parse_json(response);
    if (!parsed.ok()) return false;
    const text::Json& doc = parsed.value();
    const text::Json* ok = doc.find("ok");
    const text::Json* was_cached = doc.find("cached");
    const text::Json* report = doc.find("report");
    return ok != nullptr && ok->is_bool() && ok->as_bool() && was_cached != nullptr &&
           was_cached->is_bool() && was_cached->as_bool() == cached && report != nullptr &&
           report->is_object() && Fnv().add(canonical_report(*report)).value() == in.reference;
}

RunResult run_daemon(const WorkloadInputs& w, const std::string& dir, Checks& checks) {
    RunResult r;
    std::vector<std::string> lines;
    lines.reserve(w.inputs.size());
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        lines.push_back(xapk_request(i, w.inputs[i].text));
    }

    // Set-up, five times over: serve() start until the first ping is
    // answered, then one cold request per corpus app primes the cache. The
    // last daemon stays up for the timed phase.
    std::optional<Daemon> daemon;
    for (int attempt = 0; attempt < 5; ++attempt) {
        daemon.reset();
        std::string daemon_dir = dir + "/daemon" + std::to_string(attempt);
        auto t0 = Clock::now();
        daemon.emplace(daemon_dir, kDaemonJobs);
        checks.require(daemon->ok(), "daemon_mixed: daemon did not answer a ping");
        if (!daemon->ok()) return r;
        Connection conn(daemon->socket());
        std::string response;
        for (std::size_t i = 0; i < w.primed; ++i) {
            bool ok = conn.round_trip(lines[i], response) &&
                      response.find("\"ok\":true") != std::string::npos;
            checks.require(ok, "daemon_mixed: priming failed for " + w.inputs[i].label);
            if (!ok) return r;
        }
        r.setup_s.add(std::chrono::duration<double>(Clock::now() - t0).count());
    }

    // The exact bytes of each primed app's cache-hit response, checked once
    // against the reference; timed hits are then compared byte for byte.
    std::vector<std::string> expected(w.primed);
    {
        Connection conn(daemon->socket());
        for (std::size_t i = 0; i < w.primed; ++i) {
            bool ok = conn.round_trip(lines[i], expected[i]) &&
                      response_matches(expected[i], true, w.inputs[i]);
            checks.require(ok, "daemon_mixed: cache hit differs for " + w.inputs[i].label);
        }
    }
    auto [hits_before, misses_before] = daemon_cache_counts(daemon->socket());

    // Two connections: one resubmits primed apps, the other sends the new
    // releases, so a hit never waits behind a cold analysis on its own
    // connection. Miss responses are kept and checked after the phase, off
    // the readers' critical path.
    const std::size_t n = w.schedule.size();
    std::vector<std::string> miss_responses(n);
    std::vector<Timed> timed(n);
    RssSampler rss;
    auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 2; ++c) {
        clients.emplace_back([&, c] {
            Connection conn(daemon->socket());
            std::vector<std::size_t> slots;
            std::vector<const std::string*> conn_lines;
            std::vector<double> due;
            for (std::size_t i = 0; i < n; ++i) {
                if (w.schedule[i].miss != (c == 1)) continue;
                slots.push_back(i);
                conn_lines.push_back(&lines[w.schedule[i].input]);
                due.push_back(w.schedule[i].due_ms);
            }
            if (!conn.ok()) return;
            auto results = run_open_loop(
                conn, conn_lines, due, start, [&](std::size_t k, std::string& response) {
                    const Request& req = w.schedule[slots[k]];
                    if (req.miss) {
                        miss_responses[slots[k]] = std::move(response);
                        return true;
                    }
                    return response == expected[req.input];
                });
            for (std::size_t k = 0; k < slots.size(); ++k) timed[slots[k]] = results[k];
        });
    }
    for (auto& t : clients) t.join();
    r.peak_rss_mb = rss.stop();

    double last_done = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Request& req = w.schedule[i];
        bool ok = timed[i].ok &&
                  (!req.miss || response_matches(miss_responses[i], false, w.inputs[req.input]));
        ++r.attempted;
        if (!ok) {
            ++r.failed;
            checks.fail("daemon_mixed: request " + std::to_string(i) + " (" +
                        w.inputs[req.input].label + ") failed or differs");
            continue;
        }
        r.latency_ms.add(timed[i].done_ms - timed[i].due_ms);
        if (!req.miss) r.hit_latency_ms.add(timed[i].done_ms - timed[i].due_ms);
        r.late_ms.add(timed[i].sent_ms - timed[i].due_ms);
        last_done = std::max(last_done, timed[i].done_ms);
    }
    r.apps_per_s = static_cast<double>(r.attempted - r.failed) / (last_done / 1000);
    auto [hits_after, misses_after] = daemon_cache_counts(daemon->socket());
    r.cache_hits = hits_after - hits_before;
    r.cache_misses = misses_after - misses_before;
    // The schedule fixes the daemon's cache work exactly.
    auto releases = static_cast<std::uint64_t>(w.inputs.size() - w.primed);
    checks.require(r.cache_misses == releases && r.cache_hits == n - releases,
                   "daemon_mixed: cache hits and misses differ from the schedule");
    return r;
}

}  // namespace

Samples analyzer_construction_s(unsigned jobs, std::size_t reps) {
    Samples s;
    core::AnalyzerOptions options;
    options.jobs = jobs;
    for (std::size_t i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        core::Analyzer analyzer(options);
        s.add(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return s;
}

RssSampler::RssSampler() {
    peak_bytes_ = resident_bytes();
    thread_ = std::thread([this] {
        while (!done_.load(std::memory_order_relaxed)) {
            std::uint64_t now = resident_bytes();
            if (now > peak_bytes_.load(std::memory_order_relaxed)) peak_bytes_ = now;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
}

RssSampler::~RssSampler() { (void)stop(); }

double RssSampler::stop() {
    if (thread_.joinable()) {
        done_ = true;
        thread_.join();
        std::uint64_t now = resident_bytes();
        if (now > peak_bytes_) peak_bytes_ = now;
    }
    return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

RunResult run_workload(const WorkloadInputs& w, double seconds, const std::string& dir,
                       Checks& checks) {
    if (w.workload == "fleet_batch") return run_fleet(w, seconds, checks);
    if (w.workload == "large_app") return run_large(w, seconds, checks);
    return run_daemon(w, dir, checks);
}

}  // namespace perfbench

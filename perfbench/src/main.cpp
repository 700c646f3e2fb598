// Repository benchmark: runs one workload through the public API, checks
// every output against a cold reference computed at set-up, and prints the
// metrics as one JSON object on the last line of stdout.
//
//   xt_perfbench --workload fleet_batch|large_app|daemon_mixed --seed N
//                --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same timed phase with the parallel-contention hook installed,
// then one traced pass over the workload's distinct inputs, and prints the
// per-layer metrics; its spans go to DIR/trace-<workload>-seed<N>.json.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace extractocol;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "xt_perfbench: %s\nusage: xt_perfbench --workload "
                 "fleet_batch|large_app|daemon_mixed --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace") {
            a.trace = value == "1";
        } else if (flag == "--out") {
            a.out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    bool known = false;
    for (const char* w : kWorkloads) known = known || a.workload == w;
    if (!known) usage("unknown workload");
    if (a.seconds <= 0) usage("--seconds must be positive");
    return a;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

text::Json provenance(const Args& a) {
    text::Json p = text::Json::object();
    p.set("workload", text::Json(a.workload));
    p.set("seed", text::Json(static_cast<std::int64_t>(a.seed)));
    p.set("seconds", text::Json(a.seconds));
    p.set("trace", text::Json(a.trace));
    p.set("nproc", text::Json(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
    p.set("cpu_model", text::Json(cpu_model()));
    p.set("build_type", text::Json(XT_PERFBENCH_BUILD_TYPE));
    p.set("compiler", text::Json(XT_PERFBENCH_COMPILER));
    return p;
}

/// Count and sum deltas of the parallel.* histograms between snapshots.
struct Contention {
    obs::MetricsSnapshot before;
    void start() { before = obs::MetricsRegistry::global().snapshot(); }
    void report(MetricSink& metrics) const {
        obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
        auto mean = [&](const char* name) {
            const obs::HistogramStats* a = after.histogram(name);
            const obs::HistogramStats* b = before.histogram(name);
            double count = (a ? a->count : 0) - (b ? static_cast<double>(b->count) : 0);
            double sum = (a ? a->sum : 0) - (b ? b->sum : 0);
            return count > 0 ? sum / count : 0.0;
        };
        metrics.put("parallel.queue_wait_ms", mean("parallel.queue_wait_ms"), "ms");
        metrics.put("parallel.busy_ms", mean("parallel.busy_ms"), "ms");
        metrics.put("parallel.utilization", mean("parallel.utilization"), "ratio");
        auto gauge = [](const obs::MetricsSnapshot& s, const char* name) {
            for (const auto& [n, v] : s.gauges) {
                if (n == name) return static_cast<double>(v);
            }
            return 0.0;
        };
        metrics.put("obs.registry.lock_waits",
                    gauge(after, "obs.registry.lock_waits") -
                        gauge(before, "obs.registry.lock_waits"),
                    "count");
    }
};

text::Json sample_summary(const Samples& s) {
    text::Json j = text::Json::object();
    j.set("count", text::Json(static_cast<std::int64_t>(s.size())));
    j.set("beyond_p90", text::Json(static_cast<std::int64_t>(s.beyond(0.90))));
    j.set("beyond_p99", text::Json(static_cast<std::int64_t>(s.beyond(0.99))));
    return j;
}

int run(const Args& args) {
    const std::string dir = args.out + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    Checks checks;
    MetricSink metrics;
    text::Json details = text::Json::object();
    details.set("provenance", provenance(args));

    // Seed self-check: the same seed reproduces every input byte and the
    // whole schedule; the next seed changes them.
    auto setup_start = Clock::now();
    WorkloadInputs w = generate_inputs(args.workload, args.seed, args.seconds);
    {
        WorkloadInputs again = generate_inputs(args.workload, args.seed, args.seconds);
        WorkloadInputs other = generate_inputs(args.workload, args.seed + 1, args.seconds);
        checks.require(again.fingerprint == w.fingerprint,
                       "seed self-check: same seed gave different inputs");
        checks.require(other.fingerprint != w.fingerprint,
                       "seed self-check: another seed gave the same inputs");
    }

    // The daemon analyzes at jobs 1, so its traced run takes the contention
    // numbers from the reference batch (jobs 2) instead of the timed phase.
    Contention contention;
    const bool contention_from_setup = args.workload == "daemon_mixed";
    if (args.trace) {
        obs::install_contention_metrics();
        if (contention_from_setup) contention.start();
    }
    prepare_references(w, 2);
    if (args.trace && !contention_from_setup) contention.start();
    if (args.trace && contention_from_setup) contention.report(metrics);
    details.set("inputs_and_references_s",
                text::Json(std::chrono::duration<double>(Clock::now() - setup_start).count()));

    RunResult r = run_workload(w, args.seconds, dir, checks);
    if (args.trace) {
        if (!contention_from_setup) contention.report(metrics);
        support::set_batch_stats_hook(nullptr);
    }

    eval::Counts accuracy;
    for (const auto& in : w.inputs) accuracy += in.counts;
    text::Json samples = text::Json::object();
    samples.set("latency_ms", sample_summary(r.latency_ms));
    if (!r.hit_latency_ms.values.empty()) {
        samples.set("hit_latency_ms", sample_summary(r.hit_latency_ms));
    }
    samples.set("setup", text::Json(static_cast<std::int64_t>(r.setup_s.size())));
    if (!r.late_ms.values.empty()) {
        samples.set("late_ms_p50", text::Json(r.late_ms.median()));
        samples.set("late_ms_max", text::Json(r.late_ms.quantile(1.0)));
        samples.set("cache_hits", text::Json(static_cast<std::int64_t>(r.cache_hits)));
        samples.set("cache_misses", text::Json(static_cast<std::int64_t>(r.cache_misses)));
    }
    details.set("samples", std::move(samples));

    if (!args.trace) {
        metrics.put("setup_s", r.setup_s.median(), "s");
        metrics.put("apps_per_s", r.apps_per_s, "apps/s");
        metrics.put("latency_p50_ms", r.latency_ms.median(), "ms");
        // daemon_mixed: p50 over all requests is a hit and p99 a miss; its
        // p90 would sit on the edge between the two, so it is the hits' p90.
        const Samples& p90_samples =
            r.hit_latency_ms.values.empty() ? r.latency_ms : r.hit_latency_ms;
        metrics.put("latency_p90_ms", p90_samples.quantile(0.90), "ms");
        metrics.put("latency_p99_ms", r.latency_ms.quantile(0.99), "ms");
        metrics.put("peak_rss_mb", r.peak_rss_mb, "MB");
        metrics.put("endpoint_precision", accuracy.precision(), "ratio");
        metrics.put("endpoint_recall", accuracy.recall(), "ratio");
        metrics.put("edge_recall", accuracy.edge_recall(), "ratio");
    } else {
        // One pass over the distinct inputs; the daemon's new releases are
        // corpus apps too, so its pass covers the primed corpus.
        std::vector<std::size_t> subset;
        std::size_t distinct = w.primed != 0 ? w.primed : w.inputs.size();
        for (std::size_t i = 0; i < distinct; ++i) subset.push_back(i);
        std::size_t reps = args.workload == "large_app" ? 1 : 3;
        Tracer tracer;
        text::Json per_app = text::Json::array();
        run_layers(w, subset, reps, dir, metrics, tracer, per_app, checks);
        text::Json trace = text::Json::object();
        trace.set("provenance", provenance(args));
        trace.set("metrics", metrics.to_json());
        trace.set("inputs", std::move(per_app));
        trace.set("spans", tracer.to_json());
        std::string path = args.out + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
        std::ofstream(path) << trace.dump() << "\n";
        details.set("trace_file", text::Json(path));
    }

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    text::Json failures = text::Json::array();
    for (const auto& f : checks.failures) failures.push_back(text::Json(f));
    details.set("failures", std::move(failures));
    std::printf("%s\n", details.dump().c_str());

    if (r.attempted == 0) {  // set-up failed before the timed phase
        r.attempted = 1;
        r.failed = 1;
    }
    text::Json result = text::Json::object();
    result.set("correct", text::Json(checks.ok && r.failed == 0));
    result.set("attempted", text::Json(static_cast<std::int64_t>(r.attempted)));
    result.set("failed", text::Json(static_cast<std::int64_t>(r.failed)));
    result.set("metrics", metrics.to_json());
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        // No result line: a run that cannot finish its set-up has no metrics.
        std::fprintf(stderr, "xt_perfbench: %s\n", e.what());
        return 1;
    }
}

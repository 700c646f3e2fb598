// extractocol — command-line front end.
//
//   extractocol [options] <app.xapk> [<app2.xapk> ...]
//
// print_usage() below is the option list; --help prints it.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/server.hpp"
#include "core/analyzer.hpp"
#include "eval/eval.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/memtrack.hpp"

using namespace extractocol;

namespace {

// The one authoritative option list: --help prints it to stdout (exit 0),
// argument errors print it to stderr (exit 2). Every flag main() accepts
// must appear here — tools/cli_help.cmake greps this output against the
// parser.
void print_usage(std::FILE* out, const char* argv0) {
    std::fprintf(out,
                 "usage: %s [options] APP.xapk [APP2.xapk ...]\n"
                 "\n"
                 "output:\n"
                 "  --json                emit the machine-readable report (batch: one\n"
                 "                        array entry per input, errors included)\n"
                 "  --audit               print the analysis-quality report instead of\n"
                 "                        the transaction table\n"
                 "  --explain ID          print the provenance tree of transaction ID\n"
                 "                        (1-based; single input only)\n"
                 "analysis:\n"
                 "  --scope PREFIX        restrict analysis to classes under PREFIX\n"
                 "  --no-async-heuristic  disable the cross-event async heuristic\n"
                 "  --async-hops N        async-chain depth (default 1)\n"
                 "  --no-deobfuscation    skip library de-obfuscation pre-pass\n"
                 "  --max-steps N         per-app analysis budget in abstract steps\n"
                 "                        (0 = unlimited; exhaustion degrades, never\n"
                 "                        aborts)\n"
                 "batch:\n"
                 "  --jobs N              worker threads (1 = sequential, 0 = one per\n"
                 "                        hardware thread); output is byte-identical\n"
                 "                        for every value\n"
                 "  --keep-going          report every app even after one fails (default)\n"
                 "  --fail-fast           stop emitting after the first failed input\n"
                 "  --progress            live \"k/N apps, ETA\" line on stderr\n"
                 "caching:\n"
                 "  --cache-dir DIR       persistent content-addressed report cache;\n"
                 "                        hits skip analysis and replay the stored\n"
                 "                        report byte-identically\n"
                 "  --cache-max-bytes N   evict oldest entries past N bytes\n"
                 "                        (0 = unbounded)\n"
                 "serving:\n"
                 "  --serve SOCKET        long-lived daemon on a Unix domain socket:\n"
                 "                        newline-delimited JSON requests, report\n"
                 "                        JSON responses, warm models and cache\n"
                 "  --connect SOCKET      send each input to a --serve daemon and\n"
                 "                        print the JSON response lines\n"
                 "  --status              with --connect: print the daemon's live\n"
                 "                        status document (uptime, requests, cache,\n"
                 "                        windowed latency) as JSON\n"
                 "  --metrics-live        with --connect: print the daemon's live\n"
                 "                        metrics in Prometheus text format\n"
                 "  --journal FILE        with --serve: append one JSONL access record\n"
                 "                        per request (rotated to FILE.1 past the\n"
                 "                        size limit)\n"
                 "  --journal-max-bytes N rotate the --journal file past N bytes\n"
                 "                        (default 64 MiB, 0 = never)\n"
                 "  --slow-ms N           with --serve: log a per-phase breakdown for\n"
                 "                        requests slower than N milliseconds\n"
                 "telemetry:\n"
                 "  --stats               per-app analysis statistics on stderr\n"
                 "  --metrics             per-phase timings and metric counters on stderr\n"
                 "  --metrics-prom FILE   write the metrics registry in Prometheus text\n"
                 "                        exposition format\n"
                 "  --run-manifest FILE   write the JSON run ledger (per-app records,\n"
                 "                        fleet aggregates, run metrics)\n"
                 "  --memtrack            enable the tracking allocator (memory gauges\n"
                 "                        and per-app peak attribution)\n"
                 "  --trace FILE          write a Chrome trace-event JSON file\n"
                 "accuracy:\n"
                 "  --eval                score reports against corpus ground truth and\n"
                 "                        print the precision/recall/F1 table with\n"
                 "                        divergence triage on stderr\n"
                 "  --eval-out FILE       write the evaluation as an extractocol.eval/v1\n"
                 "                        JSON sidecar (implies scoring)\n"
                 "profiling:\n"
                 "  --profile             print the hot-DP-site / hot-method cost table\n"
                 "                        on stderr (deterministic for any --jobs)\n"
                 "  --profile-out FILE    write the full profile as JSON (timings\n"
                 "                        included; implies --profile collection)\n"
                 "  --flamegraph FILE     write the span tree as collapsed stacks for\n"
                 "                        flamegraph.pl / speedscope\n"
                 "general:\n"
                 "  -v, --verbose         lower log threshold (once: info, twice: debug)\n"
                 "  --help                print this list and exit\n",
                 argv0);
}

int usage(const char* argv0) {
    print_usage(stderr, argv0);
    return 2;
}

/// Strict unsigned parse: the whole token must be digits ("2x" and "abc"
/// are rejected rather than silently truncated or read as 0).
bool parse_unsigned(const char* text, unsigned& out) {
    if (text == nullptr || *text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    unsigned long value = std::strtoul(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0') return false;
    if (value > std::numeric_limits<unsigned>::max()) return false;
    out = static_cast<unsigned>(value);
    return true;
}

/// Strict std::size_t parse for step budgets, which may exceed 32 bits.
bool parse_size(const char* text, std::size_t& out) {
    if (text == nullptr || *text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0') return false;
    if (value > std::numeric_limits<std::size_t>::max()) return false;
    out = static_cast<std::size_t>(value);
    return true;
}

void print_stats(const core::AnalysisReport& report) {
    const auto& s = report.stats;
    std::fprintf(stderr,
                 "statements=%zu sliced=%zu (%.1f%%) dps=%zu contexts=%zu "
                 "dropped_intent_contexts=%zu time=%.0fms%s\n",
                 s.total_statements, s.slice_statements, 100 * s.slice_fraction(),
                 s.dp_sites, s.contexts, s.dropped_intent_contexts,
                 s.analysis_seconds * 1000,
                 s.budget_exhausted ? " budget_exhausted" : "");
}

void print_metrics(const core::AnalysisReport& report) {
    const auto& s = report.stats;
    std::fprintf(stderr, "-- phases --\n");
    std::size_t width = 0;
    for (const auto& p : s.phases) width = std::max(width, p.name.size());
    for (const auto& p : s.phases) {
        std::fprintf(stderr, "%-*s  %10.3f ms\n", static_cast<int>(width),
                     p.name.c_str(), p.seconds * 1000);
    }
    double total = s.phase_seconds_total();
    std::fprintf(stderr, "%-*s  %10.3f ms (analysis %.3f ms, coverage %.1f%%)\n",
                 static_cast<int>(width), "total", total * 1000,
                 s.analysis_seconds * 1000,
                 s.analysis_seconds > 0 ? 100 * total / s.analysis_seconds : 0.0);
    std::fprintf(stderr, "-- counters (this run) --\n");
    width = 0;
    for (const auto& [name, value] : s.counters) width = std::max(width, name.size());
    for (const auto& [name, value] : s.counters) {
        std::fprintf(stderr, "%-*s  %llu\n", static_cast<int>(width), name.c_str(),
                     static_cast<unsigned long long>(value));
    }
    std::fprintf(stderr, "-- registry --\n%s",
                 obs::MetricsRegistry::global().snapshot().to_table().c_str());
}

/// Writes `content` to `path`, or prints "error: cannot write <what> to
/// <path>" and returns false.
bool write_output(const char* path, const char* what, const std::string& content) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s to %s\n", what, path);
        return false;
    }
    out << content;
    return true;
}

/// The --flamegraph, --trace and --metrics-prom files (each when its path
/// is set), written once the run — batch or daemon — is over. Stops at the
/// first file that cannot be written.
bool write_run_outputs(const char* flamegraph_path, const char* trace_path,
                       const char* metrics_prom_path) {
    if (flamegraph_path &&
        !write_output(flamegraph_path, "flamegraph",
                      obs::TraceRecorder::global().to_collapsed())) {
        return false;
    }
    if (trace_path &&
        !write_output(trace_path, "trace",
                      obs::TraceRecorder::global().to_chrome_json().dump_pretty() + "\n")) {
        return false;
    }
    return !metrics_prom_path ||
           write_output(metrics_prom_path, "metrics",
                        obs::MetricsRegistry::global().snapshot().to_prometheus());
}

}  // namespace

int main(int argc, char** argv) {
    core::AnalyzerOptions options;
    bool as_json = false;
    bool stats = false;
    bool metrics = false;
    bool audit = false;
    bool explain = false;
    bool fail_fast = false;
    bool progress = false;
    bool memtrack_flag = false;
    bool profile = false;
    bool eval_flag = false;
    unsigned explain_id = 0;
    int verbosity = 0;
    unsigned jobs = 1;
    const char* trace_path = nullptr;
    const char* profile_out_path = nullptr;
    const char* flamegraph_path = nullptr;
    const char* metrics_prom_path = nullptr;
    const char* manifest_path = nullptr;
    const char* eval_out_path = nullptr;
    const char* cache_dir = nullptr;
    std::size_t cache_max_bytes = 0;
    const char* serve_path = nullptr;
    const char* connect_path = nullptr;
    bool status_flag = false;
    bool metrics_live = false;
    const char* journal_path = nullptr;
    std::size_t journal_max_bytes = 64u << 20;
    bool journal_max_bytes_set = false;
    std::size_t slow_ms = 0;
    bool slow_ms_set = false;
    std::vector<const char*> paths;

    // Options that consume a value report their own name when it is
    // missing, instead of falling through to the generic usage text.
    auto value_of = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: option '%s' requires a value\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            as_json = true;
        } else if (std::strcmp(arg, "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            metrics = true;
        } else if (std::strcmp(arg, "--audit") == 0) {
            audit = true;
        } else if (std::strcmp(arg, "--explain") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_unsigned(value, explain_id) || explain_id == 0) {
                std::fprintf(stderr,
                             "error: --explain expects a positive transaction id, "
                             "got '%s'\n",
                             value);
                return usage(argv[0]);
            }
            explain = true;
        } else if (std::strcmp(arg, "--trace") == 0) {
            if (!(trace_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(arg, "--profile-out") == 0) {
            if (!(profile_out_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--flamegraph") == 0) {
            if (!(flamegraph_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--metrics-prom") == 0) {
            if (!(metrics_prom_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--run-manifest") == 0) {
            if (!(manifest_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--eval") == 0) {
            eval_flag = true;
        } else if (std::strcmp(arg, "--eval-out") == 0) {
            if (!(eval_out_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            if (!(cache_dir = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--cache-max-bytes") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_size(value, cache_max_bytes)) {
                std::fprintf(
                    stderr,
                    "error: --cache-max-bytes expects a non-negative integer, got '%s'\n",
                    value);
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--serve") == 0) {
            if (!(serve_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--connect") == 0) {
            if (!(connect_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--status") == 0) {
            status_flag = true;
        } else if (std::strcmp(arg, "--metrics-live") == 0) {
            metrics_live = true;
        } else if (std::strcmp(arg, "--journal") == 0) {
            if (!(journal_path = value_of(i))) return usage(argv[0]);
        } else if (std::strcmp(arg, "--journal-max-bytes") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_size(value, journal_max_bytes)) {
                std::fprintf(stderr,
                             "error: --journal-max-bytes expects a non-negative "
                             "integer, got '%s'\n",
                             value);
                return usage(argv[0]);
            }
            journal_max_bytes_set = true;
        } else if (std::strcmp(arg, "--slow-ms") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_size(value, slow_ms)) {
                std::fprintf(stderr,
                             "error: --slow-ms expects a non-negative integer, "
                             "got '%s'\n",
                             value);
                return usage(argv[0]);
            }
            slow_ms_set = true;
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress = true;
        } else if (std::strcmp(arg, "--memtrack") == 0) {
            memtrack_flag = true;
        } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage(stdout, argv[0]);
            return 0;
        } else if (std::strcmp(arg, "-v") == 0 || std::strcmp(arg, "--verbose") == 0) {
            ++verbosity;
        } else if (std::strcmp(arg, "--no-async-heuristic") == 0) {
            options.async_heuristic = false;
        } else if (std::strcmp(arg, "--no-deobfuscation") == 0) {
            options.deobfuscate_libraries = false;
        } else if (std::strcmp(arg, "--scope") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            options.class_scope = value;
        } else if (std::strcmp(arg, "--async-hops") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_unsigned(value, options.max_async_hops) ||
                options.max_async_hops == 0) {
                std::fprintf(stderr,
                             "error: --async-hops expects a positive integer, got '%s'\n",
                             value);
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--jobs") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_unsigned(value, jobs)) {
                std::fprintf(stderr,
                             "error: --jobs expects a non-negative integer, got '%s'\n",
                             value);
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--max-steps") == 0) {
            const char* value = value_of(i);
            if (!value) return usage(argv[0]);
            if (!parse_size(value, options.max_total_steps)) {
                std::fprintf(
                    stderr,
                    "error: --max-steps expects a non-negative integer, got '%s'\n",
                    value);
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--keep-going") == 0) {
            fail_fast = false;
        } else if (std::strcmp(arg, "--fail-fast") == 0) {
            fail_fast = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n", arg);
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (serve_path && connect_path) {
        std::fprintf(stderr, "error: --serve and --connect are mutually exclusive\n");
        return usage(argv[0]);
    }
    if (serve_path && !paths.empty()) {
        std::fprintf(stderr,
                     "error: --serve takes no inputs (clients send them over "
                     "the socket)\n");
        return usage(argv[0]);
    }
    if ((status_flag || metrics_live) && !connect_path) {
        std::fprintf(stderr, "error: --status/--metrics-live require --connect\n");
        return usage(argv[0]);
    }
    if (status_flag && metrics_live) {
        std::fprintf(stderr, "error: --status and --metrics-live are mutually exclusive\n");
        return usage(argv[0]);
    }
    if ((status_flag || metrics_live) && !paths.empty()) {
        std::fprintf(stderr, "error: --status/--metrics-live take no inputs\n");
        return usage(argv[0]);
    }
    if ((journal_path != nullptr || journal_max_bytes_set || slow_ms_set) &&
        !serve_path) {
        std::fprintf(stderr,
                     "error: --journal/--journal-max-bytes/--slow-ms require --serve\n");
        return usage(argv[0]);
    }
    if (serve_path && (profile || profile_out_path != nullptr || manifest_path != nullptr ||
                       eval_flag || eval_out_path != nullptr)) {
        std::fprintf(stderr,
                     "error: --profile/--profile-out/--run-manifest/--eval/--eval-out "
                     "do not apply to --serve\n");
        return usage(argv[0]);
    }
    bool admin_client = status_flag || metrics_live;
    if (paths.empty() && !serve_path && !admin_client) return usage(argv[0]);
    if (explain && paths.size() != 1) {
        std::fprintf(stderr, "error: --explain requires exactly one input\n");
        return usage(argv[0]);
    }

    if (verbosity >= 2) {
        log::set_threshold(log::Level::kDebug);
    } else if (verbosity == 1) {
        log::set_threshold(log::Level::kInfo);
    }
    // The batch-stats hook is on for every run: it only costs clock reads
    // when a batch actually drains, and it is what puts parallel.queue_wait
    // / parallel.imbalance numbers behind any --metrics / --metrics-prom
    // request without a separate opt-in.
    obs::install_contention_metrics();
    // --flamegraph folds the same span tree --trace exports, so either flag
    // turns the recorder on.
    if (trace_path || flamegraph_path) obs::TraceRecorder::global().set_enabled(true);
    if (memtrack_flag) {
        // Enable before the inputs load so the gauges see the whole run's
        // heap, not just the analysis phase.
        support::memtrack::set_enabled(true);
        if (!support::memtrack::enabled()) {
            std::fprintf(stderr,
                         "warning: --memtrack unavailable on this platform "
                         "(no malloc_usable_size); memory gauges stay 0\n");
        }
    }

    if (serve_path) {
        // Daemon mode: analysis requests arrive over the socket; the batch
        // pipeline below never runs. --metrics-prom is honored on the way
        // out so an orchestrator can scrape the registry's cache and
        // analysis counters; the daemon's own daemon.* series live in its
        // telemetry and are served by the live metrics op only.
        cache::ServeOptions serve_options;
        serve_options.socket_path = serve_path;
        options.jobs = jobs;
        serve_options.analyzer = options;
        if (cache_dir) {
            cache::CacheOptions cache_options;
            cache_options.dir = cache_dir;
            cache_options.max_bytes = static_cast<std::uint64_t>(cache_max_bytes);
            serve_options.cache = std::move(cache_options);
        }
        if (journal_path) serve_options.journal_path = journal_path;
        serve_options.journal_max_bytes = static_cast<std::uint64_t>(journal_max_bytes);
        if (slow_ms_set) serve_options.slow_ms = static_cast<double>(slow_ms);
        int serve_rc = cache::serve(serve_options);
        // Request spans and the registry's counters accumulate while
        // serving; the files are written once the accept loop drains.
        if (!write_run_outputs(flamegraph_path, trace_path, metrics_prom_path)) return 1;
        return serve_rc;
    }
    if (connect_path) {
        if (admin_client) {
            return cache::connect_admin(connect_path,
                                        status_flag ? "status" : "metrics");
        }
        return cache::connect_and_analyze(
            connect_path, std::vector<std::string>(paths.begin(), paths.end()));
    }

    std::vector<core::BatchInput> inputs(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::ifstream in(paths[i]);
        if (!in) {
            std::fprintf(stderr, "error: cannot open %s\n", paths[i]);
            return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        inputs[i].file = paths[i];
        inputs[i].text = buffer.str();
    }

    // Batch mode with per-app fault isolation: analyze_batch spends jobs
    // across apps first and any remainder inside each app, contains per-app
    // loader/analysis failures as error items, and returns everything in
    // input order — output is byte-identical for every --jobs value.
    options.jobs = jobs;
    auto run_started = std::chrono::steady_clock::now();
    if (progress) {
        // Progress writes only to stderr, so stdout (the report stream)
        // keeps its determinism guarantee. The status line is routed through
        // the log sink so diagnostics emitted mid-run erase it first and
        // redraw it after — a warning never lands glued to a half-drawn
        // "k/N apps" fragment, and the line is cleared to end-of-line on
        // every redraw so a shrinking ETA leaves no stale tail.
        options.batch_progress = [run_started](std::size_t done,
                                               std::size_t total) {
            double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - run_started)
                                 .count();
            double eta =
                done > 0 ? elapsed * static_cast<double>(total - done) /
                               static_cast<double>(done)
                         : 0.0;
            char line[96];
            std::snprintf(line, sizeof(line), "%zu/%zu apps, ETA %.0fs", done,
                          total, eta);
            log::set_status_line(line);
        };
    }
    // The batch, the cache and eval count into this scope: its ledger holds
    // the manifest's counters and, under --profile/--profile-out, the rows.
    obs::RunScope run(0, profile || profile_out_path != nullptr);
    std::uint64_t run_timestamp_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    std::unique_ptr<cache::ReportCache> report_cache;
    if (cache_dir) {
        cache::CacheOptions cache_options;
        cache_options.dir = cache_dir;
        cache_options.max_bytes = static_cast<std::uint64_t>(cache_max_bytes);
        report_cache = std::make_unique<cache::ReportCache>(cache_options);
    }
    std::vector<core::BatchItem> items =
        cache::analyze_batch_cached(options, report_cache.get(), std::move(inputs)).items;
    double run_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_started)
            .count();
    // Terminates the status line on every exit from the batch — including
    // the error paths below — so the next stderr writer starts on a fresh
    // line. No-op when --progress was off or nothing was ever drawn.
    log::end_status_line();
    if (memtrack_flag && support::memtrack::enabled()) {
        // Sampled here — never from inside the allocator hooks — so the
        // gauges themselves cannot recurse into tracked allocations.
        obs::gauge("mem.live_bytes")
            .set(static_cast<std::int64_t>(support::memtrack::live_bytes()));
        obs::gauge("mem.peak_bytes")
            .set(static_cast<std::int64_t>(support::memtrack::process_peak_bytes()));
    }

    // Accuracy scoring runs sequentially in input order over the finished
    // batch (oracle interpreter runs and matching are pure functions of the
    // reports and the generated corpus), so table, sidecar, and manifest
    // accuracy blocks are byte-identical for every --jobs value.
    std::vector<eval::EvalResult> eval_results;
    eval::FleetEval eval_fleet;
    bool do_eval = eval_flag || eval_out_path != nullptr;
    if (do_eval) {
        eval_results.reserve(items.size());
        for (const auto& item : items) eval_results.push_back(eval::evaluate_item(item));
        eval_fleet = eval::aggregate(eval_results);
        eval::record_metrics(eval_results, eval_fleet);
    }
    // Closed before --metrics and --metrics-prom read the registry.
    obs::RunScope::Ledger ledger = run.close();

    int exit_code = 0;
    text::Json batch = text::Json::array();
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!items[i].ok()) {
            std::fprintf(stderr, "error: %s: %s\n", paths[i],
                         items[i].error.c_str());
            exit_code = 1;
            // The failure also lands in the report stream itself, so batch
            // consumers see every input accounted for in input order.
            if (as_json) {
                if (paths.size() > 1) {
                    text::Json entry = text::Json::object();
                    entry.set("file", text::Json(std::string(paths[i])));
                    entry.set("error", text::Json(items[i].error));
                    batch.push_back(std::move(entry));
                }
            } else if (!explain && paths.size() > 1) {
                std::printf("== %s ==\n", paths[i]);
                std::printf("error: %s\n", items[i].error.c_str());
            }
            if (fail_fast) break;
            continue;
        }
        const core::AnalysisReport& report = *items[i].report;
        if (explain) {
            if (explain_id > report.transactions.size()) {
                std::fprintf(stderr, "error: unknown transaction id '%u'\n", explain_id);
                if (report.transactions.empty()) {
                    std::fprintf(stderr, "the report has no transactions\n");
                } else {
                    std::fprintf(stderr, "valid ids:\n");
                    for (std::size_t t = 0; t < report.transactions.size(); ++t) {
                        const auto& txn = report.transactions[t];
                        std::fprintf(
                            stderr, "  %zu: %s %s\n", t + 1,
                            std::string(http::method_name(txn.signature.method)).c_str(),
                            txn.uri_regex.c_str());
                    }
                }
                exit_code = 1;
            } else {
                std::printf("%s", report.explain(explain_id - 1).c_str());
            }
        } else if (as_json) {
            if (paths.size() == 1) {
                std::printf("%s\n", report.to_json().dump_pretty().c_str());
            } else {
                text::Json entry = text::Json::object();
                entry.set("file", text::Json(std::string(paths[i])));
                entry.set("report", report.to_json());
                batch.push_back(std::move(entry));
            }
        } else if (audit) {
            if (paths.size() > 1) std::printf("== %s ==\n", paths[i]);
            std::printf("%s", report.audit.to_text().c_str());
        } else {
            if (paths.size() > 1) std::printf("== %s ==\n", paths[i]);
            std::printf("%s", report.to_text().c_str());
        }
        if (stats) print_stats(report);
        if (metrics) print_metrics(report);
    }
    if (as_json && paths.size() > 1) {
        std::printf("%s\n", batch.dump_pretty().c_str());
    }
    if (eval_flag) {
        std::fprintf(stderr, "%s", eval::render_table(eval_results, eval_fleet).c_str());
    }
    if (eval_out_path &&
        !write_output(eval_out_path, "evaluation",
                      eval::results_json(eval_results, eval_fleet).dump_pretty() + "\n")) {
        return 1;
    }
    if (profile) {
        // stderr, like --stats/--metrics: stdout stays the report stream.
        // The table is counts-only and byte-identical for any --jobs value.
        std::fprintf(stderr, "%s", ledger.profile.table().c_str());
    }
    if (profile_out_path &&
        !write_output(profile_out_path, "profile",
                      ledger.profile.to_json().dump_pretty() + "\n")) {
        return 1;
    }
    if (!write_run_outputs(flamegraph_path, trace_path, metrics_prom_path)) return 1;
    if (manifest_path) {
        obs::RunTelemetry telemetry;
        telemetry.set_jobs(jobs);
        telemetry.set_timestamp_unix_ms(run_timestamp_ms);
        telemetry.set_run_wall_seconds(run_wall_seconds);
        // The run scope's counters; the registry's gauges and histograms
        // ride along whole.
        obs::MetricsSnapshot run_metrics = obs::MetricsRegistry::global().snapshot();
        run_metrics.counters = std::move(ledger.counters);
        telemetry.set_metrics(std::move(run_metrics));
        if (profile || profile_out_path) {
            telemetry.set_profile_summary(ledger.profile.summary_json());
        }
        if (do_eval) telemetry.set_fleet_accuracy(eval_fleet.accuracy_json());
        if (report_cache) telemetry.set_cache(report_cache->stats_json());
        for (std::size_t i = 0; i < items.size(); ++i) {
            obs::AppRunRecord record = core::telemetry_record(items[i], options);
            if (do_eval && i < eval_results.size()) {
                record.accuracy = eval_results[i].accuracy_json();
            }
            telemetry.add(std::move(record));
        }
        if (!write_output(manifest_path, "run manifest",
                          telemetry.manifest_json().dump_pretty() + "\n")) {
            return 1;
        }
    }
    return exit_code;
}

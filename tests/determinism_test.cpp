// Parallel-pipeline determinism: the analysis report must be byte-identical
// for every --jobs value (workers fill pre-sized slots by index; the merge
// stays sequential). Runs the full bundled corpus at jobs 1/2/8 and compares
// the text and JSON renderings, plus the jobs-independent stats and counter
// deltas. Also covers the stats fixes: `contexts` counts post-intent-filter,
// with the dropped §5.1 coverage gap kept in `dropped_intent_contexts`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "eval/eval.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "support/memtrack.hpp"
#include "xapk/serialize.hpp"
#include "xir/ir.hpp"

#include "daemon_harness.hpp"

using namespace extractocol;

namespace {

core::AnalysisReport analyze(const xir::Program& program, bool open_source,
                             unsigned jobs) {
    core::AnalyzerOptions options;
    options.async_heuristic = !open_source;  // the paper's §5.1 configuration
    options.jobs = jobs;
    return core::Analyzer(options).analyze(program);
}

/// JSON rendering with the wall-clock fields zeroed: timings legitimately
/// vary across runs and thread counts, everything else must not.
std::string normalized_json(const core::AnalysisReport& report) {
    core::AnalysisReport copy = report;
    copy.stats.analysis_seconds = 0;
    copy.stats.phases.clear();
    return copy.to_json().dump_pretty();
}

}  // namespace

TEST(DeterminismTest, ReportsAreByteIdenticalAcrossJobCounts) {
    std::vector<std::string> names = corpus::open_source_apps();
    const auto& closed = corpus::closed_source_apps();
    names.insert(names.end(), closed.begin(), closed.end());
    ASSERT_FALSE(names.empty());

    for (const auto& name : names) {
        corpus::CorpusApp app = corpus::build_app(name);
        core::AnalysisReport baseline = analyze(app.program, app.spec.open_source, 1);
        std::string baseline_text = baseline.to_text();
        std::string baseline_json = normalized_json(baseline);

        for (unsigned jobs : {2u, 8u}) {
            core::AnalysisReport parallel =
                analyze(app.program, app.spec.open_source, jobs);
            EXPECT_EQ(parallel.to_text(), baseline_text)
                << name << " text report diverged at jobs=" << jobs;
            EXPECT_EQ(normalized_json(parallel), baseline_json)
                << name << " JSON report diverged at jobs=" << jobs;
            // Spot-check the jobs-independent stats directly so a failure
            // names the diverging quantity instead of a wall of JSON.
            EXPECT_EQ(parallel.stats.dp_sites, baseline.stats.dp_sites) << name;
            EXPECT_EQ(parallel.stats.contexts, baseline.stats.contexts) << name;
            EXPECT_EQ(parallel.stats.dropped_intent_contexts,
                      baseline.stats.dropped_intent_contexts)
                << name;
            EXPECT_EQ(parallel.stats.slice_statements, baseline.stats.slice_statements)
                << name;
            // Same total work: per-run counter deltas (taint runs, worklist
            // iterations, signature builds...) must not depend on jobs.
            EXPECT_EQ(parallel.stats.counters, baseline.stats.counters) << name;
            // Audit layer: the quality report, the counter-derived unmodeled
            // table, and every provenance tree must be byte-identical too.
            EXPECT_EQ(parallel.audit.to_text(), baseline.audit.to_text())
                << name << " audit report diverged at jobs=" << jobs;
            EXPECT_EQ(parallel.audit.to_json().dump_pretty(),
                      baseline.audit.to_json().dump_pretty())
                << name << " audit JSON diverged at jobs=" << jobs;
            ASSERT_EQ(parallel.transactions.size(), baseline.transactions.size())
                << name;
            for (std::size_t t = 0; t < baseline.transactions.size(); ++t) {
                EXPECT_EQ(parallel.explain(t), baseline.explain(t))
                    << name << " provenance tree #" << t + 1 << " diverged at jobs="
                    << jobs;
            }
        }
    }
}

TEST(DeterminismTest, StatsCountContextsAfterIntentFilter) {
    corpus::AppSpec spec;
    spec.name = "intentapp";
    spec.package = "com.intent";
    spec.open_source = true;
    spec.https = false;

    corpus::EndpointSpec feed;
    feed.name = "feed";
    feed.method = http::Method::kGet;
    feed.lib = corpus::HttpLib::kApache;
    feed.host = "api.intent.com";
    feed.path = "/v1/feed";
    spec.endpoints.push_back(feed);

    corpus::EndpointSpec push;
    push.name = "push";
    push.method = http::Method::kPost;
    push.lib = corpus::HttpLib::kApache;
    push.host = "api.intent.com";
    push.path = "/v1/push";
    push.trigger = xir::EventKind::kOnIntent;
    spec.endpoints.push_back(push);

    corpus::CorpusApp app = corpus::generate(spec);
    core::AnalysisReport report = analyze(app.program, true, 1);

    // The intent-only transaction is invisible to the analysis (§4): it must
    // be excluded from `contexts` (which previously counted it, disagreeing
    // with the emitted report) and surface in `dropped_intent_contexts`.
    EXPECT_GE(report.stats.dropped_intent_contexts, 1u) << report.to_text();
    std::size_t merged_contexts = 0;
    for (const auto& t : report.transactions) merged_contexts += t.context_count;
    EXPECT_EQ(report.stats.contexts, merged_contexts) << report.to_text();
    for (const auto& t : report.transactions) {
        EXPECT_EQ(t.uri_regex.find("push"), std::string::npos) << report.to_text();
    }
}

TEST(DeterminismTest, BudgetCutIsByteIdenticalAcrossJobCounts) {
    // A budget-limited run must degrade at the SAME point for every --jobs
    // value: the cut is computed by an index-ordered fold of per-unit costs,
    // never by which worker crossed the shared counter first.
    std::vector<std::string> names = corpus::open_source_apps();
    ASSERT_GE(names.size(), 3u);
    names.resize(3);  // the fold logic is app-independent; three apps suffice

    for (const auto& name : names) {
        corpus::CorpusApp app = corpus::build_app(name);
        core::AnalysisReport unlimited = analyze(app.program, app.spec.open_source, 1);
        ASSERT_GT(unlimited.stats.budget_steps_used, 1u) << name;

        // Exercise several cut positions, including the degenerate one.
        const std::size_t caps[] = {1, unlimited.stats.budget_steps_used / 4,
                                    unlimited.stats.budget_steps_used / 2};
        for (std::size_t cap : caps) {
            if (cap == 0) continue;
            core::AnalyzerOptions options;
            options.async_heuristic = !app.spec.open_source;
            options.max_total_steps = cap;
            options.jobs = 1;
            core::AnalysisReport baseline = core::Analyzer(options).analyze(app.program);
            std::string baseline_text = baseline.to_text();
            std::string baseline_audit = baseline.audit.to_text();
            std::string baseline_json = normalized_json(baseline);

            // A cut report still carries the exact work of the units below
            // the cut, not just the budget.* counters.
            if (baseline.stats.budget_exhausted) {
                EXPECT_TRUE(std::any_of(baseline.stats.counters.begin(),
                                        baseline.stats.counters.end(),
                                        [](const auto& c) {
                                            return c.first.rfind("budget.", 0) != 0;
                                        }))
                    << name << " budget=" << cap << " lost its work counters";
            }

            for (unsigned jobs : {2u, 8u}) {
                options.jobs = jobs;
                core::AnalysisReport parallel =
                    core::Analyzer(options).analyze(app.program);
                EXPECT_EQ(parallel.stats.counters, baseline.stats.counters)
                    << name << " budget=" << cap << " counters diverged at jobs=" << jobs;
                EXPECT_EQ(parallel.audit.to_json().dump_pretty(),
                          baseline.audit.to_json().dump_pretty())
                    << name << " budget=" << cap << " audit JSON diverged at jobs=" << jobs;
                EXPECT_EQ(parallel.to_text(), baseline_text)
                    << name << " budget=" << cap << " diverged at jobs=" << jobs;
                EXPECT_EQ(normalized_json(parallel), baseline_json)
                    << name << " budget=" << cap << " JSON diverged at jobs=" << jobs;
                EXPECT_EQ(parallel.audit.to_text(), baseline_audit)
                    << name << " budget=" << cap << " audit diverged at jobs=" << jobs;
                EXPECT_EQ(parallel.stats.budget_steps_used,
                          baseline.stats.budget_steps_used)
                    << name << " budget=" << cap;
                EXPECT_EQ(parallel.stats.budget_exhausted, baseline.stats.budget_exhausted)
                    << name << " budget=" << cap;
            }
        }
    }
}

TEST(DeterminismTest, BatchErrorIsolationIsByteIdenticalAcrossJobCounts) {
    // analyze_batch contains per-app failures: a poisoned input yields an
    // error item while every other input still reports — and the whole item
    // list (reports, per-app counters AND error strings) is identical for
    // every jobs value.
    std::vector<core::BatchInput> inputs;
    // Letgo has a non-empty unmodeled-API table.
    for (const auto& name : {"blippex", "iFixIt", "Letgo"}) {
        corpus::CorpusApp app = corpus::build_app(name);
        inputs.push_back({std::string(name) + ".xapk", xapk::write_xapk(app.program)});
    }
    // Poison one in the middle: numeric overflow in a method header (the
    // guarded-parse path) and outright garbage.
    inputs.insert(inputs.begin() + 1,
                  {"poisoned.xapk",
                   "xapk 1\napp \"p\"\nclass com.p.C\n"
                   "method go 1 99999999999999999999999 void\n"});
    inputs.push_back({"garbage.xapk", "not an xapk at all"});

    auto run = [&](unsigned jobs) {
        core::AnalyzerOptions options;
        options.jobs = jobs;
        return core::Analyzer(options).analyze_batch(inputs);
    };

    auto baseline = run(1);
    ASSERT_EQ(baseline.size(), inputs.size());
    EXPECT_TRUE(baseline[0].ok());
    EXPECT_FALSE(baseline[1].ok());
    EXPECT_NE(baseline[1].error.find("param count"), std::string::npos)
        << baseline[1].error;
    EXPECT_TRUE(baseline[2].ok());
    EXPECT_TRUE(baseline[3].ok());
    EXPECT_FALSE(baseline[4].ok());
    for (const auto& item : baseline) EXPECT_EQ(item.ok(), item.error.empty());

    // Per-app counters and audits (unmodeled-API table included) of a batch
    // are exactly those of a single-app jobs-1 run of the same input, even
    // with apps running concurrently.
    std::vector<std::optional<core::AnalysisReport>> single(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto result = core::Analyzer().analyze_xapk(inputs[i].text);
        if (result.ok()) single[i] = std::move(result).take();
    }

    for (unsigned jobs : {1u, 2u, 8u}) {
        auto items = run(jobs);
        ASSERT_EQ(items.size(), baseline.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < items.size(); ++i) {
            EXPECT_EQ(items[i].file, baseline[i].file) << "jobs=" << jobs;
            EXPECT_EQ(items[i].ok(), baseline[i].ok()) << "jobs=" << jobs;
            EXPECT_EQ(items[i].error, baseline[i].error) << "jobs=" << jobs;
            ASSERT_EQ(items[i].ok(), single[i].has_value()) << inputs[i].file;
            if (!items[i].ok()) continue;
            EXPECT_EQ(items[i].report->to_text(), baseline[i].report->to_text())
                << inputs[i].file << " diverged at jobs=" << jobs;
            EXPECT_FALSE(items[i].report->stats.counters.empty()) << inputs[i].file;
            EXPECT_EQ(items[i].report->stats.counters, single[i]->stats.counters)
                << inputs[i].file << " batch counters diverged at jobs=" << jobs;
            EXPECT_EQ(items[i].report->audit.to_json().dump_pretty(),
                      single[i]->audit.to_json().dump_pretty())
                << inputs[i].file << " batch audit diverged at jobs=" << jobs;
        }
    }
}

TEST(DeterminismTest, RunManifestAndPrometheusAreByteIdenticalAcrossJobCounts) {
    // The fleet-telemetry outputs (--run-manifest, --metrics-prom) must hold
    // the same determinism bar as the report stream: once wall-clock,
    // memory, and run-metadata fields are normalized away, the renderings
    // are byte-identical at every --jobs value — including a batch with
    // poisoned inputs, where the error records themselves are part of the
    // ledger. memtrack is switched on so jobs=1 runs record real per-app
    // peaks (which normalization must then erase).
    namespace memtrack = support::memtrack;
    std::vector<core::BatchInput> inputs;
    for (const auto& name : {"blippex", "iFixIt"}) {
        corpus::CorpusApp app = corpus::build_app(name);
        inputs.push_back({std::string(name) + ".xapk", xapk::write_xapk(app.program)});
    }
    inputs.insert(inputs.begin() + 1, {"poisoned.xapk", "not an xapk at all"});

    if (memtrack::available()) memtrack::set_enabled(true);
    auto run = [&](unsigned jobs) {
        core::AnalyzerOptions options;
        options.jobs = jobs;
        options.max_total_steps = 1'000'000;  // exercise budget_fraction too
        // The run's counters come from an outer scope over the batch, as in
        // the CLI; gauges and histograms are the registry's.
        obs::RunScope scope;
        auto items = core::Analyzer(options).analyze_batch(inputs);
        std::vector<std::pair<std::string, std::uint64_t>> counters = scope.close().counters;
        obs::MetricsSnapshot run_metrics = obs::MetricsRegistry::global().snapshot();
        run_metrics.counters = std::move(counters);

        obs::RunTelemetry telemetry;
        telemetry.set_jobs(jobs);
        telemetry.set_timestamp_unix_ms(1000 * jobs);  // erased by normalize
        telemetry.set_run_wall_seconds(static_cast<double>(jobs));
        for (const auto& item : items) {
            telemetry.add(core::telemetry_record(item, options));
        }
        telemetry.set_metrics(run_metrics);
        std::string manifest =
            telemetry.manifest_json(/*normalize_resources=*/true).dump_pretty();

        // Prometheus normalization works on the snapshot itself: gauges and
        // histograms carry absolute process-global state (they accumulate
        // across the three runs of this test), counters are true per-run
        // deltas and must match exactly.
        obs::MetricsSnapshot normalized = run_metrics;
        for (auto& [name, value] : normalized.gauges) value = 0;
        for (auto& [name, stats] : normalized.histograms) stats = obs::HistogramStats{};
        return std::make_pair(std::move(manifest), normalized.to_prometheus());
    };

    auto baseline = run(1);
    EXPECT_NE(baseline.first.find("\"outcome\": \"error\""), std::string::npos)
        << "poisoned input missing from the ledger:\n" << baseline.first;
    EXPECT_NE(baseline.first.find("extractocol.run_manifest/v2"), std::string::npos);
    EXPECT_FALSE(baseline.second.empty());
    for (unsigned jobs : {2u, 8u}) {
        auto result = run(jobs);
        EXPECT_EQ(result.first, baseline.first)
            << "run manifest diverged at jobs=" << jobs;
        EXPECT_EQ(result.second, baseline.second)
            << "prometheus export diverged at jobs=" << jobs;
    }
    memtrack::set_enabled(false);
}

TEST(DeterminismTest, EvalTableAndSidecarAreByteIdenticalAcrossJobCounts) {
    // The accuracy observatory holds the same bar as the report stream: the
    // --eval table and the eval sidecar are pure functions of the reports
    // and the regenerated corpus, so both renderings are byte-identical at
    // every --jobs value — including a batch with a poisoned input, whose
    // error record becomes a zero-score entry rather than a crash.
    std::vector<core::BatchInput> inputs;
    for (const auto& name : {"blippex", "radio reddit", "iFixIt"}) {
        corpus::CorpusApp app = corpus::build_app(name);
        inputs.push_back({std::string(name) + ".xapk", xapk::write_xapk(app.program)});
    }
    // A poisoned input named after a corpus app becomes a zero-recall
    // app_error entry; one with no ground truth comes back unscored.
    inputs.insert(inputs.begin() + 1, {"ted.xapk", "not an xapk at all"});
    inputs.push_back({"poisoned.xapk", "also not an xapk"});

    auto run = [&](unsigned jobs) {
        core::AnalyzerOptions options;
        options.jobs = jobs;
        auto items = core::Analyzer(options).analyze_batch(inputs);
        std::vector<eval::EvalResult> results;
        for (const auto& item : items) results.push_back(eval::evaluate_item(item));
        eval::FleetEval fleet = eval::aggregate(results);
        return std::make_pair(eval::render_table(results, fleet),
                              eval::results_json(results, fleet).dump_pretty());
    };

    auto baseline = run(1);
    // Both poisoned inputs must be present — as error / unscored entries,
    // not omissions (silent drops would inflate fleet scores).
    EXPECT_NE(baseline.first.find("poisoned"), std::string::npos) << baseline.first;
    EXPECT_NE(baseline.second.find("extractocol.eval/v1"), std::string::npos);
    EXPECT_NE(baseline.second.find("\"app_error\""), std::string::npos)
        << baseline.second;
    for (unsigned jobs : {2u, 8u}) {
        auto result = run(jobs);
        EXPECT_EQ(result.first, baseline.first)
            << "eval table diverged at jobs=" << jobs;
        EXPECT_EQ(result.second, baseline.second)
            << "eval sidecar diverged at jobs=" << jobs;
    }
}

TEST(DeterminismTest, WarmCacheReplayIsByteIdenticalToColdAcrossJobCounts) {
    // The persistent cache holds the report stream's determinism bar from
    // the other side: a 100%-hit warm run must reproduce the cold run's
    // outputs byte-for-byte — the UN-normalized report JSON included, since
    // a hit replays the cold run's stored timings rather than measuring new
    // ones — at every --jobs value, through a batch with a poisoned input
    // (whose error is re-derived cold each run, never cached).
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("xt_determinism_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    cache::CacheOptions cache_options;
    cache_options.dir = dir.string();

    auto make_inputs = [] {
        std::vector<core::BatchInput> inputs;
        for (const auto& name : {"blippex", "iFixIt"}) {
            corpus::CorpusApp app = corpus::build_app(name);
            inputs.push_back(
                {std::string(name) + ".xapk", xapk::write_xapk(app.program)});
        }
        inputs.insert(inputs.begin() + 1, {"poisoned.xapk", "not an xapk at all"});
        return inputs;
    };

    // One run end to end: reports, eval surfaces, and the normalized run
    // manifest with the per-run cache block attached. Each run gets its own
    // ReportCache handle so the manifest's hit/miss counts are the run's
    // deltas (deterministic per workload), not process accumulations.
    struct RunOutputs {
        cache::CachedBatch batch;
        std::string eval_table;
        std::string eval_sidecar;
        std::string manifest;
    };
    auto run = [&](unsigned jobs) {
        core::AnalyzerOptions options;
        options.jobs = jobs;
        cache::ReportCache report_cache(cache_options);
        RunOutputs out;
        out.batch = cache::analyze_batch_cached(options, &report_cache,
                                                make_inputs());
        std::vector<eval::EvalResult> results;
        for (const auto& item : out.batch.items) {
            results.push_back(eval::evaluate_item(item));
        }
        eval::FleetEval fleet = eval::aggregate(results);
        out.eval_table = eval::render_table(results, fleet);
        out.eval_sidecar = eval::results_json(results, fleet).dump_pretty();
        obs::RunTelemetry telemetry;
        telemetry.set_jobs(jobs);
        for (const auto& item : out.batch.items) {
            telemetry.add(core::telemetry_record(item, options));
        }
        telemetry.set_cache(report_cache.stats_json());
        out.manifest =
            telemetry.manifest_json(/*normalize_resources=*/true).dump_pretty();
        return out;
    };

    RunOutputs cold = run(1);
    ASSERT_EQ(cold.batch.items.size(), 3u);
    EXPECT_EQ(cold.batch.hits, 0u);
    EXPECT_FALSE(cold.batch.items[1].ok());
    {
        // Exactly the two healthy reports were persisted: errors are never
        // cached, so the poisoned input stays a cold path forever.
        std::size_t entries = 0;
        for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
            std::string name = entry.path().filename().string();
            if (!name.empty() && name.front() != '.') ++entries;
        }
        EXPECT_EQ(entries, 2u);
    }

    for (unsigned jobs : {1u, 2u, 8u}) {
        RunOutputs warm = run(jobs);
        ASSERT_EQ(warm.batch.items.size(), cold.batch.items.size())
            << "jobs=" << jobs;
        EXPECT_EQ(warm.batch.hits, 2u) << "jobs=" << jobs;
        EXPECT_EQ(warm.batch.misses, 1u) << "jobs=" << jobs;
        std::vector<char> expected_from_cache = {1, 0, 1};
        EXPECT_EQ(warm.batch.from_cache, expected_from_cache) << "jobs=" << jobs;
        for (std::size_t i = 0; i < cold.batch.items.size(); ++i) {
            const core::BatchItem& a = cold.batch.items[i];
            const core::BatchItem& b = warm.batch.items[i];
            EXPECT_EQ(b.file, a.file) << "jobs=" << jobs;
            EXPECT_EQ(b.ok(), a.ok()) << "jobs=" << jobs;
            EXPECT_EQ(b.error, a.error) << "jobs=" << jobs;
            if (!a.ok() || !b.ok()) continue;
            EXPECT_EQ(b.report->to_text(), a.report->to_text())
                << a.file << " text diverged warm at jobs=" << jobs;
            // Deliberately NOT normalized: the replay includes timings.
            EXPECT_EQ(b.report->to_json().dump_pretty(),
                      a.report->to_json().dump_pretty())
                << a.file << " full JSON diverged warm at jobs=" << jobs;
            EXPECT_EQ(b.report->audit.to_text(), a.report->audit.to_text())
                << a.file << " audit diverged warm at jobs=" << jobs;
            ASSERT_EQ(b.report->transactions.size(), a.report->transactions.size());
            for (std::size_t t = 0; t < a.report->transactions.size(); ++t) {
                EXPECT_EQ(b.report->explain(t), a.report->explain(t))
                    << a.file << " provenance #" << t + 1 << " warm jobs=" << jobs;
            }
        }
        EXPECT_EQ(warm.eval_table, cold.eval_table)
            << "eval table diverged warm at jobs=" << jobs;
        EXPECT_EQ(warm.eval_sidecar, cold.eval_sidecar)
            << "eval sidecar diverged warm at jobs=" << jobs;
        // The manifests differ only in the cache block's hit/miss split
        // (cold: 0/3, warm: 2/1) — so compare warm manifests against the
        // FIRST warm run, and check the cache block is present and stable.
        EXPECT_NE(warm.manifest.find("\"cache\""), std::string::npos);
        EXPECT_NE(warm.manifest.find("\"hits\": 2"), std::string::npos)
            << warm.manifest;
    }
    RunOutputs warm_baseline = run(1);
    for (unsigned jobs : {2u, 8u}) {
        EXPECT_EQ(run(jobs).manifest, warm_baseline.manifest)
            << "warm manifest diverged at jobs=" << jobs;
    }
    fs::remove_all(dir);
}

TEST(DeterminismTest, ProfileTableIsByteIdenticalAcrossJobCounts) {
    // The --profile hot table holds the report's determinism bar: every
    // count in it is a sum of per-item deterministic work, so the rendered
    // table (and the aggregate summary) is byte-identical at any --jobs.
    // Wall-clock attribution lives only in the --profile-out sidecar, which
    // this test deliberately does not compare.
    std::vector<std::string> names = corpus::open_source_apps();
    ASSERT_GE(names.size(), 3u);
    names.resize(3);

    // The apps run inside one profiling run, as the CLI's batch does.
    obs::Profiler profiler;
    auto run = [&](unsigned jobs) {
        obs::RunScope scope(0, /*profile=*/true);
        for (const auto& name : names) {
            corpus::CorpusApp app = corpus::build_app(name);
            (void)analyze(app.program, app.spec.open_source, jobs);
        }
        profiler = scope.close().profile;
    };

    run(1);
    std::string baseline_table = profiler.table();
    std::string baseline_summary = profiler.summary_json().dump_pretty();
    std::vector<obs::SiteProfile> baseline_sites = profiler.sites();
    std::vector<obs::MethodProfile> baseline_methods = profiler.methods();
    ASSERT_FALSE(baseline_sites.empty());
    ASSERT_FALSE(baseline_methods.empty());

    for (unsigned jobs : {2u, 8u}) {
        run(jobs);
        EXPECT_EQ(profiler.table(), baseline_table)
            << "profile table diverged at jobs=" << jobs;
        EXPECT_EQ(profiler.summary_json().dump_pretty(), baseline_summary)
            << "profile summary diverged at jobs=" << jobs;
        // Beyond the top-K rendering: the FULL attribution maps must agree
        // count-for-count (seconds excluded — they are sidecar-only).
        std::vector<obs::SiteProfile> sites = profiler.sites();
        ASSERT_EQ(sites.size(), baseline_sites.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < sites.size(); ++i) {
            EXPECT_EQ(sites[i].site, baseline_sites[i].site) << "jobs=" << jobs;
            EXPECT_EQ(sites[i].taint_steps, baseline_sites[i].taint_steps)
                << sites[i].site << " jobs=" << jobs;
            EXPECT_EQ(sites[i].sig_steps, baseline_sites[i].sig_steps)
                << sites[i].site << " jobs=" << jobs;
            EXPECT_EQ(sites[i].contexts, baseline_sites[i].contexts)
                << sites[i].site << " jobs=" << jobs;
        }
        std::vector<obs::MethodProfile> methods = profiler.methods();
        ASSERT_EQ(methods.size(), baseline_methods.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < methods.size(); ++i) {
            EXPECT_EQ(methods[i].method, baseline_methods[i].method) << "jobs=" << jobs;
            EXPECT_EQ(methods[i].taint_steps, baseline_methods[i].taint_steps)
                << methods[i].method << " jobs=" << jobs;
            EXPECT_EQ(methods[i].interp_stmts, baseline_methods[i].interp_stmts)
                << methods[i].method << " jobs=" << jobs;
        }
    }
}

TEST(DeterminismTest, DaemonStatusMetricsAndJournalSkeletonAcrossJobCounts) {
    // The admin plane holds the same determinism bar as the report stream:
    // for one driven workload, the status document (volatile fields
    // normalized), the metrics op's counter deltas, and the journal's
    // record skeleton must be byte-identical at --jobs 1/2/8. The journal
    // itself is a sidecar like --profile-out — its timings, ids, and sizes
    // are measurements — so only the (op, outcome, cached) skeleton and the
    // record count are compared.
    namespace xtest = extractocol::testing;
    namespace fs = std::filesystem;
    corpus::CorpusApp app = corpus::build_app("blippex");
    std::string text = xapk::write_xapk(app.program);

    struct DaemonOutputs {
        std::string status;      // normalized, pretty-printed
        std::string counters;    // metrics-op counter deltas (json)
        std::string prometheus;  // daemon_* counter sample lines only
        std::string journal;     // one "op outcome cached" line per record
    };

    // Normalization mirrors the manifest convention: zero what is measured
    // (pid, uptime, latency percentiles, byte sizes, temp paths); keep what
    // is a function of the driven workload (served/errors/ops, inflight,
    // connections, cache hit/miss and its window tallies: those are the
    // daemon's own, and the workload finishes well inside the 55 s the
    // window always spans).
    auto normalize_status = [](text::Json status) {
        for (auto& [key, value] : status.members()) {
            if (key == "pid") value = text::Json(std::int64_t{0});
            if (key == "uptime_seconds") value = text::Json(0.0);
            if (key == "latency_ms") value = text::Json();
            if (key == "cache" && value.is_object()) {
                for (auto& [ckey, cvalue] : value.members()) {
                    if (ckey == "dir") cvalue = text::Json(std::string());
                    if (ckey == "bytes") cvalue = text::Json(std::int64_t{0});
                }
            }
        }
        return status.dump_pretty();
    };

    auto run = [&](unsigned jobs) {
        xtest::TempDir dir("det_jobs" + std::to_string(jobs));
        cache::ServeOptions options;
        options.socket_path = (dir.path / "daemon.sock").string();
        options.analyzer.jobs = jobs;
        cache::CacheOptions cache_options;
        cache_options.dir = (dir.path / "cache").string();
        options.cache = cache_options;
        fs::path journal_path = dir.path / "access.jsonl";
        options.journal_path = journal_path.string();

        DaemonOutputs out;
        {
            xtest::DaemonFixture daemon(options);
            int fd = daemon.connect_fd();
            EXPECT_GE(fd, 0);
            if (fd < 0) return out;
            auto xapk_line = [&](int id) {
                text::Json request = text::Json::object();
                request.set("id", text::Json(static_cast<std::int64_t>(id)));
                request.set("xapk", text::Json(text));
                return request.dump();
            };
            // Fixed workload: one miss, one hit, ping, then the admin ops.
            EXPECT_TRUE(xtest::response_ok(
                xtest::DaemonFixture::request(fd, xapk_line(1))));
            EXPECT_TRUE(xtest::response_ok(
                xtest::DaemonFixture::request(fd, xapk_line(2))));
            EXPECT_TRUE(xtest::response_ok(
                xtest::DaemonFixture::request(fd, R"({"op":"ping"})")));

            text::Json status =
                xtest::DaemonFixture::request(fd, R"({"op":"status"})");
            EXPECT_TRUE(xtest::response_ok(status));
            if (const text::Json* doc = status.find("status")) {
                out.status = normalize_status(*doc);
            }

            text::Json metrics = xtest::DaemonFixture::request(
                fd, R"({"op":"metrics","format":"json"})");
            EXPECT_TRUE(xtest::response_ok(metrics));
            if (const text::Json* doc = metrics.find("metrics")) {
                // Counter deltas since daemon start are deterministic per
                // workload at any --jobs; gauges and histograms are live
                // measurements, so only the counters member is compared.
                if (const text::Json* counters = doc->find("counters")) {
                    out.counters = counters->dump_pretty();
                }
            }

            text::Json prom =
                xtest::DaemonFixture::request(fd, R"({"op":"metrics"})");
            EXPECT_TRUE(xtest::response_ok(prom));
            if (const text::Json* body = prom.find("metrics")) {
                // From the exposition text keep the daemon counter samples
                // (name + value); window gauges and latency summaries are
                // measurements and excluded.
                std::istringstream lines(body->as_string());
                std::string line;
                while (std::getline(lines, line)) {
                    for (const char* name :
                         {"daemon_requests ", "daemon_cache_hits ",
                          "daemon_cache_misses "}) {
                        if (line.rfind(name, 0) == 0) out.prometheus += line + "\n";
                    }
                }
            }
            // ~DaemonFixture drives the shutdown request.
        }
        for (const text::Json& record : xtest::read_journal_file(journal_path)) {
            out.journal += record.find("op")->as_string() + " " +
                           record.find("outcome")->as_string() + " " +
                           (record.find("cached")->as_bool() ? "1" : "0") + "\n";
        }
        return out;
    };

    DaemonOutputs baseline = run(1);
    ASSERT_FALSE(baseline.status.empty());
    ASSERT_FALSE(baseline.counters.empty());
    EXPECT_NE(baseline.prometheus.find("daemon_requests"), std::string::npos);
    // Skeleton of the fixed workload, shutdown included.
    EXPECT_EQ(baseline.journal,
              "xapk ok 0\nxapk ok 1\nping ok 0\nstatus ok 0\nmetrics ok 0\n"
              "metrics ok 0\nshutdown ok 0\n");

    for (unsigned jobs : {2u, 8u}) {
        DaemonOutputs parallel = run(jobs);
        EXPECT_EQ(parallel.status, baseline.status)
            << "status document diverged at jobs=" << jobs;
        EXPECT_EQ(parallel.counters, baseline.counters)
            << "metrics counter deltas diverged at jobs=" << jobs;
        EXPECT_EQ(parallel.prometheus, baseline.prometheus)
            << "prometheus counter samples diverged at jobs=" << jobs;
        EXPECT_EQ(parallel.journal, baseline.journal)
            << "journal skeleton diverged at jobs=" << jobs;
    }
}

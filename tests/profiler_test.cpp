// Work-attribution profiler and pool-contention observatory.
//
// Covers the three attribution layers of obs/profiler:
//   * per-DP-site and per-app-method cost attribution collected by the
//     slicer / taint engine / signature interpreter / fuzzer, with the
//     `--profile` table holding the same determinism bar as the report
//     (counts only — byte-identical for every --jobs value);
//   * the `--profile-out` sidecar JSON, which is exempt from that contract
//     and therefore carries the wall-clock self-time fields;
//   * the support::parallel batch-stats hook feeding `parallel.*`
//     contention histograms (queue wait, busy, utilization, imbalance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "support/parallel.hpp"
#include "text/json.hpp"

using namespace extractocol;

namespace {

core::AnalysisReport analyze(const xir::Program& program, bool open_source,
                             unsigned jobs) {
    core::AnalyzerOptions options;
    options.async_heuristic = !open_source;
    options.jobs = jobs;
    return core::Analyzer(options).analyze(program);
}

/// Runs one corpus app inside a profiling run and returns that run's rows.
obs::Profiler profile_app(const corpus::CorpusApp& app, unsigned jobs) {
    obs::RunScope run(0, /*profile=*/true);
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, jobs);
    EXPECT_FALSE(report.transactions.empty()) << app.spec.name;
    return run.close().profile;
}

}  // namespace

TEST(Profiler, DisabledProfilerCollectsNothing) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    obs::RunScope run;
    EXPECT_FALSE(obs::RunScope::profiling());
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, 1);
    ASSERT_FALSE(report.transactions.empty());
    // A unit run without a site key (what the analyzer does while the run
    // does not profile) must not register charges either.
    {
        obs::RunScope::Stage stage(run, 1);
        stage.run(0, [] {
            EXPECT_FALSE(obs::RunScope::profiling());
            obs::RunScope::charge_contexts(7);
            return std::size_t{7};
        });
        EXPECT_EQ(stage.finish(), 1u);
    }
    obs::Profiler profiler = run.close().profile;
    EXPECT_TRUE(profiler.sites().empty());
    EXPECT_TRUE(profiler.methods().empty());
}

TEST(Profiler, AttributesWorkToSitesAndMethods) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    obs::Profiler profiler = profile_app(app, 1);

    auto sites = profiler.sites();
    auto methods = profiler.methods();
    ASSERT_FALSE(sites.empty());
    ASSERT_FALSE(methods.empty());

    std::uint64_t taint_total = 0;
    std::uint64_t sig_total = 0;
    std::uint64_t contexts = 0;
    for (const auto& s : sites) {
        // Canonical key shape: "app|dp @ location (m:b:i)".
        EXPECT_NE(s.site.find('|'), std::string::npos) << s.site;
        EXPECT_NE(s.site.find(" @ "), std::string::npos) << s.site;
        taint_total += s.taint_steps;
        sig_total += s.sig_steps;
        contexts += s.contexts;
    }
    EXPECT_GT(taint_total, 0u) << "slicing charged no taint steps";
    EXPECT_GT(sig_total, 0u) << "signature builds charged no interpreter steps";
    EXPECT_GT(contexts, 0u);

    std::uint64_t method_interp = 0;
    for (const auto& m : methods) {
        EXPECT_NE(m.method.find('|'), std::string::npos) << m.method;
        method_interp += m.interp_stmts;
    }
    EXPECT_GT(method_interp, 0u) << "no per-method interpreter attribution";

    // The snapshot is sorted by attributed cost descending.
    for (std::size_t i = 1; i < sites.size(); ++i) {
        EXPECT_GE(sites[i - 1].total_steps(), sites[i].total_steps());
    }

    // The manifest summary reports the same aggregate totals.
    text::Json summary = profiler.summary_json();
    EXPECT_EQ(summary.find("taint_steps")->as_int(),
              static_cast<std::int64_t>(taint_total));
    EXPECT_EQ(summary.find("sig_steps")->as_int(), static_cast<std::int64_t>(sig_total));
    EXPECT_EQ(summary.find("sites")->as_int(), static_cast<std::int64_t>(sites.size()));
    EXPECT_EQ(summary.find("methods")->as_int(),
              static_cast<std::int64_t>(methods.size()));
}

TEST(Profiler, TableIsByteIdenticalAcrossJobCounts) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());

    obs::Profiler baseline = profile_app(app, 1);
    std::string baseline_table = baseline.table();
    text::Json baseline_summary = baseline.summary_json();
    EXPECT_NE(baseline_table.find("profile: hot DP sites"), std::string::npos);
    EXPECT_NE(baseline_table.find("profile: hot app methods"), std::string::npos);

    for (unsigned jobs : {2u, 8u}) {
        obs::Profiler profiler = profile_app(app, jobs);
        EXPECT_EQ(profiler.table(), baseline_table)
            << "profile table diverged at jobs=" << jobs;
        EXPECT_EQ(profiler.summary_json().dump_pretty(), baseline_summary.dump_pretty())
            << "profile summary diverged at jobs=" << jobs;
    }
}

TEST(Profiler, SidecarJsonCarriesTimings) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    obs::Profiler profiler = profile_app(app, 2);

    text::Json doc = profiler.to_json();
    EXPECT_EQ(doc.find("schema")->as_string(), "extractocol.profile/v1");
    const text::Json* totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_GT(totals->find("taint_steps")->as_int(), 0);

    const text::Json* sites = doc.find("sites");
    ASSERT_NE(sites, nullptr);
    ASSERT_TRUE(sites->is_array());
    ASSERT_FALSE(sites->items().empty());
    bool timed = false;
    for (const auto& row : sites->items()) {
        ASSERT_NE(row.find("site"), nullptr);
        ASSERT_NE(row.find("slice_seconds"), nullptr);
        ASSERT_NE(row.find("sig_seconds"), nullptr);
        if (row.find("slice_seconds")->as_double() > 0.0 ||
            row.find("sig_seconds")->as_double() > 0.0) {
            timed = true;
        }
    }
    EXPECT_TRUE(timed) << "sidecar rows carry no wall-clock attribution";

    // The deterministic table must NOT leak timings.
    std::string table = profiler.table();
    EXPECT_EQ(table.find("seconds"), std::string::npos);

    // Round-trips through the JSON parser.
    auto reparsed = text::parse_json(doc.dump_pretty());
    ASSERT_TRUE(reparsed.ok());
}

TEST(Profiler, TableIsByteIdenticalAcrossJobCountsWhenTheBudgetCutsMidStage) {
    // At 2,000 steps Pinterest exhausts its budget inside a stage, so at
    // jobs > 1 units past the cut may already be running when the frontier
    // crosses. Their site and method rows must count nowhere: the table and
    // summary equal the jobs 1 ones, however the units were scheduled.
    corpus::CorpusApp app = corpus::build_app("Pinterest");
    auto profile_at = [&](unsigned jobs) {
        obs::RunScope run(0, /*profile=*/true);
        core::AnalyzerOptions options;
        options.async_heuristic = !app.spec.open_source;
        options.jobs = jobs;
        options.max_total_steps = 2'000;
        core::AnalysisReport report = core::Analyzer(options).analyze(app.program);
        obs::Profiler profiler = run.close().profile;
        EXPECT_TRUE(report.stats.budget_exhausted) << "jobs=" << jobs;
        EXPECT_EQ(report.stats.budget_steps_used, 2'020u) << "jobs=" << jobs;
        return std::make_pair(profiler.table(), profiler.summary_json().dump_pretty());
    };

    const auto baseline = profile_at(1);
    EXPECT_NE(baseline.first.find("profile: hot app methods"), std::string::npos);
    for (unsigned jobs : {2u, 8u, 8u, 8u, 8u, 8u}) {
        const auto result = profile_at(jobs);
        EXPECT_EQ(result.first, baseline.first) << "profile table diverged at jobs=" << jobs;
        EXPECT_EQ(result.second, baseline.second)
            << "profile summary diverged at jobs=" << jobs;
    }
}

TEST(Profiler, RunScopeRowsNestAndMergeByPhaseBelowTheCut) {
    using Phase = obs::RunScope::Phase;

    // Charges outside any scope are dropped, not crashed, and nothing
    // profiles there.
    EXPECT_FALSE(obs::RunScope::profiling());
    obs::RunScope::charge_contexts(1);
    obs::RunScope::charge_method("app|Free.m", 0, 2);

    const std::string key = obs::profile_site_key("app", "URL.openConnection",
                                                  "com.a.B.run", 3, 1, 2);
    EXPECT_EQ(key, "app|URL.openConnection @ com.a.B.run (3:1:2)");
    obs::Profiler profiler;
    obs::Profiler inner_rows;
    {
        obs::RunScope run(200, /*profile=*/true);
        EXPECT_TRUE(obs::RunScope::profiling());
        obs::RunScope::charge_contexts(100);  // the run itself has no row
        obs::RunScope::charge_method("app|B.m", 0, 4);
        {
            obs::RunScope::Stage sig(run, 2, Phase::kSig);
            // Same site as the slicing unit below: merges into one row, its
            // step count in the sig column.
            sig.run(0, [] { return std::size_t{20}; }, key);
            // An empty key gives the unit no profile row at all.
            sig.run(1, [] { return std::size_t{99}; });
            EXPECT_EQ(sig.finish(), 2u);
        }
        obs::RunScope::Stage slice(run, 3, Phase::kSlice);
        slice.run(
            2,
            [] {
                // Past the cut below: none of its charges reach a row.
                obs::RunScope::charge_contexts(1000);
                obs::RunScope::charge_method("app|A.m", 1000, 0);
                obs::RunScope::charge_method("app|Cut.m", 1, 0);
                return std::size_t{1000};
            },
            "app|cut @ m (0:0:1)");
        slice.run(
            0,
            [&] {
                EXPECT_TRUE(obs::RunScope::profiling());  // units inherit it
                obs::RunScope::charge_contexts(2);
                obs::RunScope::charge_method("app|A.m", 3, 0);
                {
                    // A nested run inherits profiling; its unit captures
                    // charges until it folds, and its close hands back its
                    // own rows while the outer unit absorbs them.
                    obs::RunScope inner;
                    EXPECT_TRUE(obs::RunScope::profiling());
                    obs::RunScope::Stage nested(inner, 1);
                    nested.run(0, [] { return std::size_t{5}; }, "app|other @ m (0:0:0)");
                    EXPECT_EQ(nested.finish(), 1u);
                    inner_rows = inner.close().profile;
                }
                obs::RunScope::charge_contexts(1);
                return std::size_t{5};
            },
            key);
        slice.run(1, [] { return std::size_t{80}; });  // 119 + 5 + 80 > 200
        EXPECT_EQ(slice.finish(), 2u);
        EXPECT_EQ(run.steps_used(), 204u);
        EXPECT_TRUE(run.exhausted());
        profiler = run.close().profile;
    }
    EXPECT_FALSE(obs::RunScope::profiling());

    ASSERT_EQ(inner_rows.sites().size(), 1u);
    EXPECT_EQ(inner_rows.sites()[0].taint_steps, 5u);

    auto sites = profiler.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0].site, key);  // 5 taint + 20 sig beats the inner 5
    EXPECT_EQ(sites[0].taint_steps, 5u);
    EXPECT_EQ(sites[0].sig_steps, 20u);
    EXPECT_EQ(sites[0].contexts, 3u);
    EXPECT_GE(sites[0].slice_seconds, 0.0);
    EXPECT_GE(sites[0].sig_seconds, 0.0);
    EXPECT_EQ(sites[1].site, "app|other @ m (0:0:0)");
    EXPECT_EQ(sites[1].taint_steps, 5u);

    auto methods = profiler.methods();
    ASSERT_EQ(methods.size(), 2u);
    EXPECT_EQ(methods[0].method, "app|B.m");
    EXPECT_EQ(methods[0].interp_stmts, 4u);
    EXPECT_EQ(methods[1].method, "app|A.m");
    EXPECT_EQ(methods[1].taint_steps, 3u);
}

TEST(Profiler, ContentionHistogramsPopulateUnderParallelism) {
    obs::install_contention_metrics();
    obs::MetricsSnapshot base = obs::MetricsRegistry::global().snapshot();

    // Deliberately imbalanced batch on a real pool: index 0 does ~2ms of
    // work, the rest ~0, so busy time varies across participants.
    support::ThreadPool pool(3);
    std::atomic<unsigned> ran{0};
    pool.for_each_index(16, [&ran](std::size_t i) {
        ++ran;
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    EXPECT_EQ(ran.load(), 16u);

    obs::MetricsSnapshot now = obs::MetricsRegistry::global().snapshot();
    const obs::HistogramStats* queue_wait = now.histogram("parallel.queue_wait_ms");
    const obs::HistogramStats* busy = now.histogram("parallel.busy_ms");
    const obs::HistogramStats* claimed = now.histogram("parallel.claimed_indices");
    const obs::HistogramStats* utilization = now.histogram("parallel.utilization");
    const obs::HistogramStats* imbalance = now.histogram("parallel.imbalance");
    const obs::HistogramStats* batch_ms = now.histogram("parallel.batch_ms");
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(claimed, nullptr);
    ASSERT_NE(utilization, nullptr);
    ASSERT_NE(imbalance, nullptr);
    ASSERT_NE(batch_ms, nullptr);

    auto delta_count = [&base](const obs::HistogramStats* stats,
                               const char* name) -> std::uint64_t {
        const obs::HistogramStats* before = base.histogram(name);
        return stats->count - (before != nullptr ? before->count : 0);
    };
    // One sample per participant (4 = 3 workers + caller) for the per-worker
    // histograms, one per batch for imbalance/batch_ms. Workers that never
    // woke in time still count if they entered the batch, so >= caller-only.
    EXPECT_GE(delta_count(queue_wait, "parallel.queue_wait_ms"), 1u);
    EXPECT_GE(delta_count(busy, "parallel.busy_ms"), 1u);
    EXPECT_GE(delta_count(claimed, "parallel.claimed_indices"), 1u);
    EXPECT_GE(delta_count(utilization, "parallel.utilization"), 1u);
    EXPECT_EQ(delta_count(imbalance, "parallel.imbalance"), 1u);
    EXPECT_EQ(delta_count(batch_ms, "parallel.batch_ms"), 1u);
    EXPECT_GE(batch_ms->max, 2.0) << "batch wall time must cover the slow index";
    EXPECT_GE(imbalance->max, 1.0) << "imbalance is max/mean busy, >= 1 by definition";

    // The full end-to-end surface: an analyzer run at jobs > 1 feeds the
    // same histograms through its internal pool.
    obs::MetricsSnapshot pre = obs::MetricsRegistry::global().snapshot();
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, 4);
    ASSERT_FALSE(report.transactions.empty());
    obs::MetricsSnapshot post = obs::MetricsRegistry::global().snapshot();
    EXPECT_GT(post.histogram("parallel.queue_wait_ms")->count,
              pre.histogram("parallel.queue_wait_ms")->count);
    EXPECT_GT(post.histogram("parallel.imbalance")->count,
              pre.histogram("parallel.imbalance")->count);
}

TEST(Profiler, BatchStatsHookAccountsEveryIndex) {
    // Bypass the metrics layer: a direct hook sees per-participant claimed
    // counts that sum to exactly n, and non-negative timings.
    static std::vector<support::BatchStats> captured;
    captured.clear();
    support::set_batch_stats_hook(
        [](const support::BatchStats& stats) { captured.push_back(stats); });

    {
        support::ThreadPool pool(2);
        pool.for_each_index(9, [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
        pool.for_each_index(0, [](std::size_t) {});  // empty: no batch, no stats
    }
    // Restore the metrics observer for any later test in this binary.
    obs::install_contention_metrics();

    ASSERT_EQ(captured.size(), 1u) << "empty batches must not report stats";
    EXPECT_EQ(captured[0].n, 9u);
    EXPECT_GE(captured[0].wall_ms, 0.0);
    ASSERT_FALSE(captured[0].participants.empty());
    std::size_t claimed = 0;
    for (const auto& w : captured[0].participants) {
        EXPECT_GE(w.queue_wait_ms, 0.0);
        EXPECT_GE(w.busy_ms, 0.0);
        claimed += w.claimed;
    }
    EXPECT_EQ(claimed, 9u) << "every index must be attributed to a participant";
}

TEST(Profiler, RegistryLockMetricsAlwaysPresent) {
    // The synthetic lock-accounting gauges appear in every snapshot (even
    // contention-free ones) so the exported key set stays jobs-independent.
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    bool waits = false;
    bool wait_us = false;
    for (const auto& [name, value] : snap.gauges) {
        if (name == "obs.registry.lock_waits") waits = true;
        if (name == "obs.registry.lock_wait_us") wait_us = true;
    }
    EXPECT_TRUE(waits);
    EXPECT_TRUE(wait_us);
}

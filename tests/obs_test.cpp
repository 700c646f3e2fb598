#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/memtrack.hpp"
#include "support/parallel.hpp"
#include "text/json.hpp"
#include "xapk/serialize.hpp"

namespace obs = extractocol::obs;
using extractocol::text::Json;
using extractocol::text::parse_json;

TEST(Metrics, CounterBasics) {
    obs::MetricsRegistry registry;
    obs::Counter& c = registry.counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name -> same instrument.
    EXPECT_EQ(&registry.counter("test.counter"), &c);
    EXPECT_NE(&registry.counter("test.other"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, ConcurrentCounterIncrements) {
    obs::MetricsRegistry registry;
    obs::Counter& c = registry.counter("test.concurrent");
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncrements; ++i) c.add();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, ConcurrentRegistryAccess) {
    // Instrument acquisition and snapshotting race against increments.
    obs::MetricsRegistry registry;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&registry, t] {
            obs::Counter& mine =
                registry.counter("test.shard." + std::to_string(t % 2));
            for (int i = 0; i < 1'000; ++i) {
                mine.add();
                if (i % 100 == 0) (void)registry.snapshot();
            }
        });
    }
    for (auto& t : threads) t.join();
    auto snap = registry.snapshot();
    const std::uint64_t* a = snap.counter("test.shard.0");
    const std::uint64_t* b = snap.counter("test.shard.1");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*a + *b, 4'000u);
}

TEST(Metrics, GaugeSetAndAdd) {
    obs::MetricsRegistry registry;
    obs::Gauge& g = registry.gauge("test.gauge");
    g.set(-5);
    g.add(15);
    EXPECT_EQ(g.value(), 10);
}

TEST(Metrics, HistogramStats) {
    obs::MetricsRegistry registry;
    obs::Histogram& h = registry.histogram("test.hist");
    h.observe(2.0);
    h.observe(8.0);
    h.observe(5.0);
    auto stats = h.stats();
    EXPECT_EQ(stats.count, 3u);
    EXPECT_DOUBLE_EQ(stats.sum, 15.0);
    EXPECT_DOUBLE_EQ(stats.min, 2.0);
    EXPECT_DOUBLE_EQ(stats.max, 8.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(Metrics, HistogramPercentiles) {
    obs::MetricsRegistry registry;
    obs::Histogram& h = registry.histogram("test.pct");
    // 1..100 ms: p50/p95/p99 land in log2 buckets whose upper bounds are
    // 64/128/128 ms, clamped to the observed max of 100.
    for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
    auto stats = h.stats();
    EXPECT_GE(stats.p50(), 50.0);
    EXPECT_LE(stats.p50(), 100.0);  // <=2x overestimate bound
    EXPECT_GE(stats.p95(), 95.0);
    EXPECT_LE(stats.p95(), 100.0);  // clamped into [min, max]
    EXPECT_GE(stats.p99(), 99.0);
    EXPECT_LE(stats.p99(), 100.0);
    // Quantiles are monotone in q.
    EXPECT_LE(stats.p50(), stats.p95());
    EXPECT_LE(stats.p95(), stats.p99());
}

TEST(Metrics, HistogramPercentileEdgeCases) {
    obs::MetricsRegistry registry;
    obs::Histogram& empty = registry.histogram("test.pct.empty");
    EXPECT_DOUBLE_EQ(empty.stats().p50(), 0.0);

    obs::Histogram& one = registry.histogram("test.pct.one");
    one.observe(42.0);
    EXPECT_DOUBLE_EQ(one.stats().p50(), 42.0);
    EXPECT_DOUBLE_EQ(one.stats().p99(), 42.0);

    // Sub-base samples land in bucket 0; the estimate clamps to max.
    obs::Histogram& tiny = registry.histogram("test.pct.tiny");
    tiny.observe(0.0);
    tiny.observe(0.0005);
    auto stats = tiny.stats();
    EXPECT_LE(stats.p99(), 0.0005);
    EXPECT_GE(stats.p99(), 0.0);
}

TEST(Metrics, HistogramBucketIndexIsMonotone) {
    std::size_t prev = 0;
    for (double sample : {0.0, 0.0005, 0.001, 0.002, 0.1, 1.0, 64.0, 1e6, 1e12}) {
        std::size_t idx = obs::HistogramStats::bucket_index(sample);
        EXPECT_GE(idx, prev) << sample;
        EXPECT_LT(idx, obs::HistogramStats::kBucketCount) << sample;
        prev = idx;
    }
    // Buckets are upper-inclusive, (base*2^(k-1), base*2^k]: each boundary
    // belongs to the bucket it closes, the next double above it to the next
    // bucket. Past k = 3 the log2 rounding can keep that next double in
    // bucket k (see HistogramStats), so the boundary-crossing check stops there.
    const double base = obs::HistogramStats::kBucketBase;
    for (int k = 0; k < static_cast<int>(obs::HistogramStats::kBucketCount); ++k) {
        EXPECT_EQ(obs::HistogramStats::bucket_index(std::ldexp(base, k)),
                  static_cast<std::size_t>(k))
            << k;
    }
    for (int k = 0; k <= 3; ++k) {
        double above = std::nextafter(std::ldexp(base, k),
                                      std::numeric_limits<double>::infinity());
        EXPECT_EQ(obs::HistogramStats::bucket_index(above),
                  static_cast<std::size_t>(k + 1))
            << k;
    }
}

TEST(Metrics, PercentilesInJsonAndTable) {
    obs::MetricsRegistry registry;
    registry.histogram("h.pct").observe(3.0);
    auto snap = registry.snapshot();
    Json doc = snap.to_json();
    const Json* h = doc.find("histograms")->find("h.pct");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->find("p50")->as_double(), 3.0);
    EXPECT_DOUBLE_EQ(h->find("p99")->as_double(), 3.0);
    EXPECT_NE(snap.to_table().find("p50="), std::string::npos);
    EXPECT_NE(snap.to_table().find("p99="), std::string::npos);
}

TEST(Metrics, SnapshotSortedByName) {
    obs::MetricsRegistry registry;
    registry.counter("zeta").add(10);
    registry.counter("alpha").add(1);
    auto snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "alpha");  // sorted by name
    EXPECT_EQ(snap.counters[1].first, "zeta");
}

TEST(Metrics, SnapshotJsonAndTable) {
    obs::MetricsRegistry registry;
    registry.counter("c.one").add(3);
    registry.gauge("g.one").set(-2);
    registry.histogram("h.one").observe(1.5);
    auto snap = registry.snapshot();

    Json doc = snap.to_json();
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("counters")->find("c.one")->as_int(), 3);
    EXPECT_EQ(doc.find("gauges")->find("g.one")->as_int(), -2);
    EXPECT_EQ(doc.find("histograms")->find("h.one")->find("count")->as_int(), 1);
    // Round-trips through the JSON parser.
    auto parsed = parse_json(doc.dump());
    ASSERT_TRUE(parsed.ok());

    std::string table = snap.to_table();
    EXPECT_NE(table.find("c.one"), std::string::npos);
    EXPECT_NE(table.find("count=1"), std::string::npos);
}

TEST(Metrics, RegistryReset) {
    obs::MetricsRegistry registry;
    obs::Counter& c = registry.counter("test.reset");
    c.add(9);
    registry.reset();
    EXPECT_EQ(c.value(), 0u);  // reference stays valid
    auto snap = registry.snapshot();
    ASSERT_NE(snap.counter("test.reset"), nullptr);  // registration survives
}

TEST(Metrics, RunScopeCountsExactlyItsOwnWork) {
    // A run collects exactly the adds made on its thread and inside its
    // folded units, even while another thread bumps the same counter; the
    // registry receives both. Units past the cut count nowhere, and a
    // counter of a non-global registry bypasses scopes.
    obs::Counter& shared = obs::counter("test.run_scope.shared");
    obs::Counter& unit_only = obs::counter("test.run_scope.unit_only");
    obs::MetricsRegistry local;
    obs::Counter& local_counter = local.counter("test.run_scope.local");
    const std::uint64_t shared_before = shared.value();
    const std::uint64_t unit_before = unit_only.value();

    std::vector<std::pair<std::string, std::uint64_t>> counts;
    {
        obs::RunScope run(1);  // the second unit's step crosses the limit
        std::thread neighbour([&shared] {
            for (int i = 0; i < 1'000; ++i) shared.add();
        });
        shared.add(5);
        local_counter.add(3);
        obs::RunScope::Stage stage(run, 3);
        for (std::size_t i : {2, 0, 1}) {  // unit 2 runs first, then lies past the cut
            stage.run(i, [&] {
                unit_only.add(10 * (i + 1));  // 10, 20, 30
                shared.add(1);
                return std::size_t{1};
            });
        }
        EXPECT_EQ(stage.finish(), 2u);
        neighbour.join();
        EXPECT_EQ(shared.value(), shared_before + 1'000) << "run adds leaked early";
        counts = run.close().counters;
        shared.add(7);  // after close: straight to the registry
    }

    std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"test.run_scope.shared", 7}, {"test.run_scope.unit_only", 30}};
    EXPECT_EQ(counts, expected);
    EXPECT_EQ(shared.value(), shared_before + 1'000 + 7 + 7);
    EXPECT_EQ(unit_only.value(), unit_before + 30);
    EXPECT_EQ(local_counter.value(), 3u);
}

// --------------------------------------------------------------- stages --
// A stage's frontier folds units in index order and cuts after the unit
// whose steps cross the run's limit; the cut depends only on the per-unit
// step counts, never on the order in which units finish.

namespace {

/// Runs unit `index` of `stage`, reporting `steps`; returns whether it ran.
bool run_unit(obs::RunScope::Stage& stage, std::size_t index, std::size_t steps) {
    bool ran = false;
    stage.run(index, [&] {
        ran = true;
        return steps;
    });
    return ran;
}

}  // namespace

TEST(RunScopeStage, UnlimitedNeverExhausts) {
    obs::RunScope run;
    obs::RunScope::Stage stage(run, 2);
    EXPECT_TRUE(run_unit(stage, 0, 1'000'000));
    EXPECT_TRUE(run_unit(stage, 1, 1'000'000));
    EXPECT_EQ(stage.finish(), 2u);
    EXPECT_FALSE(run.exhausted());
    EXPECT_EQ(run.steps_used(), 2'000'000u);
    (void)run.close();
}

TEST(RunScopeStage, CrossingUnitCountsAndExhausts) {
    obs::RunScope run(10);
    obs::RunScope::Stage stage(run, 3);
    EXPECT_TRUE(run_unit(stage, 0, 10));  // exactly at the limit: not exhausted
    EXPECT_FALSE(run.exhausted());
    EXPECT_TRUE(run_unit(stage, 1, 1));   // the crossing unit still counts...
    EXPECT_TRUE(run.exhausted());
    EXPECT_FALSE(run_unit(stage, 2, 5));  // ...but nothing after it runs
    EXPECT_EQ(stage.finish(), 2u);
    EXPECT_EQ(run.steps_used(), 11u);
    (void)run.close();
}

TEST(RunScopeStage, CutIsIndexOrderedNotCompletionOrdered) {
    // Units cost 4 steps each against a limit of 10: the fold crosses the
    // limit at unit 2 (4+4+4 = 12 > 10), so the cut is 3 — the crossing unit
    // is kept — no matter in which order the units *finish*. Each unit's
    // counter add counts only below the cut.
    obs::Counter& counter = obs::counter("test.run_scope.stage_order");
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    {
        obs::RunScope run(10);
        obs::RunScope::Stage stage(run, 5);
        for (std::size_t i : {4, 1, 3, 0, 2}) {  // completion order scrambled
            stage.run(i, [&] {
                counter.add(std::uint64_t{1} << i);
                return std::size_t{4};
            });
        }
        EXPECT_EQ(stage.finish(), 3u);
        EXPECT_TRUE(run.exhausted());
        // Only the folded units are charged: 3 * 4, never the dropped tail.
        EXPECT_EQ(run.steps_used(), 12u);
        counts = run.close().counters;
    }
    using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(counts, (Counts{{"test.run_scope.stage_order", 1 + 2 + 4}}));
}

TEST(RunScopeStage, WithoutExhaustionKeepsEverything) {
    obs::RunScope run(100);
    obs::RunScope::Stage stage(run, 3);
    for (std::size_t i : {2, 0, 1}) EXPECT_TRUE(run_unit(stage, i, 10));
    EXPECT_EQ(stage.finish(), 3u);
    EXPECT_FALSE(run.exhausted());
    EXPECT_EQ(run.steps_used(), 30u);
    (void)run.close();
}

TEST(RunScopeStage, CreatedExhaustedCutsEverything) {
    obs::RunScope run(1);
    {
        obs::RunScope::Stage first(run, 1);
        EXPECT_TRUE(run_unit(first, 0, 2));
        EXPECT_EQ(first.finish(), 1u);
    }
    ASSERT_TRUE(run.exhausted());
    obs::RunScope::Stage stage(run, 4);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(run_unit(stage, i, 1));
    EXPECT_EQ(stage.finish(), 0u);
    EXPECT_EQ(run.steps_used(), 2u);
    (void)run.close();
}

TEST(RunScopeStage, FoldWaitsForTheFrontierUnit) {
    // Unit 0 missing: nothing folds, so nothing exhausts even though the
    // later units alone exceed the limit.
    obs::RunScope run(5);
    obs::RunScope::Stage stage(run, 3);
    EXPECT_TRUE(run_unit(stage, 1, 100));
    EXPECT_TRUE(run_unit(stage, 2, 100));
    EXPECT_FALSE(run.exhausted());
    EXPECT_EQ(run.steps_used(), 0u);
    EXPECT_TRUE(run_unit(stage, 0, 1));  // frontier advances: 1, then 101 > 5
    EXPECT_TRUE(run.exhausted());
    EXPECT_EQ(stage.finish(), 2u);
    EXPECT_EQ(run.steps_used(), 101u);
    (void)run.close();
}

TEST(RunScopeStage, DeterministicCutUnderConcurrentRecording) {
    // The invariant the analyzer's report determinism rests on: identical
    // per-unit costs produce an identical cut, step total and counts for
    // every worker count.
    constexpr std::size_t kUnits = 64;
    std::vector<std::size_t> costs(kUnits);
    for (std::size_t i = 0; i < kUnits; ++i) costs[i] = (i * 7) % 13 + 1;
    obs::Counter& counter = obs::counter("test.run_scope.stage_concurrent");

    struct Outcome {
        std::size_t cut;
        std::size_t steps;
        std::vector<std::pair<std::string, std::uint64_t>> counts;
    };
    auto run_at = [&](unsigned jobs) {
        obs::RunScope run(150);
        obs::RunScope::Stage stage(run, kUnits);
        extractocol::support::parallel_for(jobs, kUnits, [&](std::size_t i) {
            stage.run(i, [&] {
                counter.add(costs[i]);
                return costs[i];
            });
        });
        Outcome out{stage.finish(), run.steps_used(), {}};
        out.counts = run.close().counters;
        return out;
    };

    Outcome baseline = run_at(1);
    ASSERT_LT(baseline.cut, kUnits);
    ASSERT_EQ(baseline.counts.size(), 1u);
    EXPECT_EQ(baseline.counts[0].second, baseline.steps);
    for (unsigned jobs : {2u, 4u, 8u}) {
        Outcome result = run_at(jobs);
        EXPECT_EQ(result.cut, baseline.cut) << "cut diverged at jobs=" << jobs;
        EXPECT_EQ(result.steps, baseline.steps) << "steps diverged at jobs=" << jobs;
        EXPECT_EQ(result.counts, baseline.counts) << "counts diverged at jobs=" << jobs;
    }
}

TEST(Metrics, NestedRunScopeReachesTheRegistryOnceAtTheOutermostClose) {
    // A closing scope folds into the scope enclosing it on its thread and
    // returns only its own counts; the registry sees the total once, when
    // the outermost scope closes.
    obs::Counter& counter = obs::counter("test.run_scope.nested");
    const std::uint64_t before = counter.value();
    std::vector<std::pair<std::string, std::uint64_t>> inner_counts;
    std::vector<std::pair<std::string, std::uint64_t>> outer_counts;
    {
        obs::RunScope outer;
        counter.add(2);
        {
            obs::RunScope inner;
            counter.add(5);
            inner_counts = inner.close().counters;
        }
        EXPECT_EQ(counter.value(), before) << "the inner close reached the registry";
        counter.add(1);
        outer_counts = outer.close().counters;
    }
    using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(inner_counts, (Counts{{"test.run_scope.nested", 5}}));
    EXPECT_EQ(outer_counts, (Counts{{"test.run_scope.nested", 8}}));
    EXPECT_EQ(counter.value(), before + 8);
}

TEST(Metrics, UnmodeledApiTallyTravelsInTheLedgerNeverTheRegistry) {
    // The unmodeled-API tally nests like counters but is report data: no
    // close, however outer, turns it into a registry instrument.
    using Tally = std::map<std::string, std::uint64_t>;
    obs::RunScope::count_unmodeled_api("a.Dropped", "outside");  // no scope: dropped
    Tally inner_tally;
    Tally outer_tally;
    {
        obs::RunScope outer;
        obs::RunScope::count_unmodeled_api("a.B", "m");
        {
            obs::RunScope inner;
            obs::RunScope::Stage stage(inner, 2);
            stage.run(1, [] { obs::RunScope::count_unmodeled_api("a.B", "m"); });
            stage.run(0, [] { obs::RunScope::count_unmodeled_api("a.C", "n"); });
            EXPECT_EQ(stage.finish(), 2u);
            inner_tally = inner.close().unmodeled_apis;
        }
        outer_tally = outer.close().unmodeled_apis;
    }
    EXPECT_EQ(inner_tally, (Tally{{"a.B.m", 1}, {"a.C.n", 1}}));
    EXPECT_EQ(outer_tally, (Tally{{"a.B.m", 2}, {"a.C.n", 1}}));
    for (const auto& [name, value] : obs::MetricsRegistry::global().snapshot().counters) {
        EXPECT_EQ(name.find("a.B"), std::string::npos) << name;
        EXPECT_EQ(name.find("a.Dropped"), std::string::npos) << name;
    }
}

TEST(Metrics, ConcurrentBatchesEachCloseWithExactlyTheirOwnCounts) {
    // Two analyze_batch calls run at once on two threads, at jobs 2, each
    // inside its own outer scope. Each close() must equal that batch's
    // counts when it runs alone: analysis and parse counters made on the
    // batch's workers reach its scope and nobody else's.
    using namespace extractocol;
    auto input = [](const char* name) {
        return core::BatchInput{std::string(name) + ".xapk",
                                xapk::write_xapk(corpus::build_app(name).program)};
    };
    const std::vector<core::BatchInput> batch_a = {
        input("blippex"), {"poisoned.xapk", "not an xapk at all"}};
    const std::vector<core::BatchInput> batch_b = {input("TED"), input("radio reddit")};
    core::AnalyzerOptions options;
    options.jobs = 2;
    auto counts_of = [&options](const std::vector<core::BatchInput>& inputs) {
        obs::RunScope run;
        (void)core::Analyzer(options).analyze_batch(inputs);
        return run.close().counters;
    };
    auto value_of = [](const std::vector<std::pair<std::string, std::uint64_t>>& counts,
                       const std::string& name) -> std::uint64_t {
        for (const auto& [n, v] : counts) {
            if (n == name) return v;
        }
        return 0;
    };

    obs::Counter& parsed = obs::counter("xapk.programs_parsed");
    const std::uint64_t parsed_before = parsed.value();
    const auto alone_a = counts_of(batch_a);
    const auto alone_b = counts_of(batch_b);
    EXPECT_EQ(value_of(alone_a, "xapk.programs_parsed"), 1u);
    EXPECT_EQ(value_of(alone_a, "isolation.contained_errors"), 1u);
    EXPECT_EQ(value_of(alone_b, "xapk.programs_parsed"), 2u);
    EXPECT_GT(value_of(alone_a, "taint.runs"), 0u);
    EXPECT_GT(value_of(alone_b, "taint.runs"), 0u);
    // Outermost scopes: their counts reached the registry exactly once.
    EXPECT_EQ(parsed.value(), parsed_before + 3);

    std::vector<std::pair<std::string, std::uint64_t>> together_a;
    std::vector<std::pair<std::string, std::uint64_t>> together_b;
    std::thread thread_a([&] { together_a = counts_of(batch_a); });
    std::thread thread_b([&] { together_b = counts_of(batch_b); });
    thread_a.join();
    thread_b.join();
    EXPECT_EQ(together_a, alone_a);
    EXPECT_EQ(together_b, alone_b);
}

TEST(Trace, SpanMeasuresTime) {
    obs::Span span("test.span");
    double t0 = span.seconds();
    EXPECT_GE(t0, 0.0);
    span.finish();
    double t1 = span.seconds();
    span.finish();  // idempotent
    EXPECT_DOUBLE_EQ(span.seconds(), t1);
}

TEST(Trace, DisabledRecorderCollectsNothing) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.set_enabled(false);
    recorder.clear();
    { obs::Span span("test.invisible"); }
    EXPECT_TRUE(recorder.events().empty());
}

TEST(Trace, SpansNestIntoTree) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
        obs::Span outer("test.outer", "t");
        {
            obs::Span inner("test.inner", "t");
        }
    }
    recorder.set_enabled(false);

    auto events = recorder.events();
    ASSERT_EQ(events.size(), 2u);
    // Children close (and record) before parents.
    EXPECT_EQ(events[0].name, "test.inner");
    EXPECT_EQ(events[1].name, "test.outer");
    EXPECT_EQ(events[0].depth, events[1].depth + 1);
    EXPECT_GE(events[0].start_us, events[1].start_us);
    EXPECT_LE(events[0].duration_us, events[1].duration_us);
    recorder.clear();
}

TEST(Trace, ChromeExportIsValid) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
        obs::Span a("test.phase_a", "core");
        obs::Span b("test.phase_b", "taint");
    }
    recorder.set_enabled(false);

    Json doc = recorder.to_chrome_json();
    auto reparsed = parse_json(doc.dump());
    ASSERT_TRUE(reparsed.ok());
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // The export leads with one thread_name metadata event per registered
    // thread (registration is process-wide, so the exact count depends on
    // what ran before this test), followed by the "X" span events.
    std::size_t spans = 0;
    std::size_t metadata = 0;
    bool past_metadata = false;
    for (const auto& e : events->items()) {
        const std::string ph = e.find("ph")->as_string();
        EXPECT_EQ(e.find("pid")->as_int(), 1);
        EXPECT_NE(e.find("tid"), nullptr);
        if (ph == "M") {
            EXPECT_FALSE(past_metadata) << "metadata events must lead";
            ++metadata;
            EXPECT_EQ(e.find("name")->as_string(), "thread_name");
            const Json* args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_FALSE(args->find("name")->as_string().empty());
        } else {
            past_metadata = true;
            ++spans;
            EXPECT_EQ(ph, "X");
            EXPECT_NE(e.find("name"), nullptr);
            EXPECT_NE(e.find("cat"), nullptr);
            EXPECT_GE(e.find("ts")->as_int(), 0);
            EXPECT_GE(e.find("dur")->as_int(), 0);
        }
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_GE(metadata, 1u);  // at least the "main" registration
    recorder.clear();
}

TEST(Trace, PoolWorkersGetStableNames) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);  // installs the worker-naming hook
    {
        extractocol::support::ThreadPool pool(2);
        pool.for_each_index(4, [](std::size_t) {});
    }
    recorder.set_enabled(false);

    std::vector<std::string> names = recorder.thread_names();
    auto has = [&names](const std::string& want) {
        for (const auto& n : names) {
            if (n == want) return true;
        }
        return false;
    };
    EXPECT_TRUE(has("main"));
    EXPECT_TRUE(has("worker-0"));
    EXPECT_TRUE(has("worker-1"));

    // The Chrome export labels each registered thread's row.
    Json doc = recorder.to_chrome_json();
    std::string dumped = doc.dump();
    EXPECT_NE(dumped.find("thread_name"), std::string::npos);
    EXPECT_NE(dumped.find("worker-0"), std::string::npos);
    recorder.clear();
}

TEST(Trace, ThreadNumbersAreDense) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    std::uint32_t main_id = recorder.thread_number();
    EXPECT_EQ(recorder.thread_number(), main_id);  // stable per thread
    std::uint32_t other_id = main_id;
    std::thread([&recorder, &other_id] { other_id = recorder.thread_number(); })
        .join();
    EXPECT_NE(other_id, main_id);
}

TEST(Metrics, SanitizeMetricName) {
    // The shared helper behind both the Prometheus exposition and the
    // sanitized JSON rendering.
    EXPECT_EQ(obs::sanitize_metric_name("taint.worklist_iterations"),
              "taint_worklist_iterations");
    EXPECT_EQ(obs::sanitize_metric_name("already_valid:name"), "already_valid:name");
    EXPECT_EQ(obs::sanitize_metric_name("weird-chars %$"), "weird_chars___");
    EXPECT_EQ(obs::sanitize_metric_name("9starts.with.digit"), "_9starts_with_digit");
    EXPECT_EQ(obs::sanitize_metric_name(""), "_");
}

TEST(Metrics, PrometheusExposition) {
    obs::MetricsRegistry registry;
    registry.counter("taint.runs").add(7);
    registry.gauge("mem.live_bytes").set(1024);
    registry.histogram("slicer.slice_ms").observe(3.0);
    std::string prom = registry.snapshot().to_prometheus();

    EXPECT_NE(prom.find("# TYPE mem_live_bytes gauge\nmem_live_bytes 1024\n"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE taint_runs counter\ntaint_runs 7\n"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE slicer_slice_ms summary\n"), std::string::npos);
    EXPECT_NE(prom.find("slicer_slice_ms{quantile=\"0.5\"} 3\n"), std::string::npos);
    EXPECT_NE(prom.find("slicer_slice_ms{quantile=\"0.99\"} 3\n"), std::string::npos);
    EXPECT_NE(prom.find("slicer_slice_ms_sum 3\n"), std::string::npos);
    EXPECT_NE(prom.find("slicer_slice_ms_count 1\n"), std::string::npos);
    // No dotted name may survive into the exposition.
    EXPECT_EQ(prom.find("taint.runs"), std::string::npos);
    EXPECT_EQ(prom.find("mem.live_bytes"), std::string::npos);
}

TEST(Metrics, JsonNameStyles) {
    obs::MetricsRegistry registry;
    registry.counter("taint.runs").add(1);
    auto snap = registry.snapshot();
    // Default rendering keeps the repo's dotted convention (the committed
    // bench baseline depends on it); kPrometheus applies the sanitizer.
    Json dotted = snap.to_json();
    EXPECT_NE(dotted.find("counters")->find("taint.runs"), nullptr);
    Json prom = snap.to_json(obs::NameStyle::kPrometheus);
    EXPECT_EQ(prom.find("counters")->find("taint.runs"), nullptr);
    EXPECT_NE(prom.find("counters")->find("taint_runs"), nullptr);
}

namespace {

obs::AppRunRecord make_record(const std::string& file, const std::string& outcome,
                              double wall_seconds) {
    obs::AppRunRecord r;
    r.file = file;
    r.outcome = outcome;
    if (outcome == "error") r.error = "boom";
    r.wall_seconds = wall_seconds;
    r.phases = {{"slicing", wall_seconds / 2}, {"sig", wall_seconds / 2}};
    r.steps_used = 100;
    r.budget_fraction = 0.25;
    r.peak_bytes = 4096;
    r.transactions = 3;
    r.dependencies = 1;
    return r;
}

}  // namespace

TEST(Telemetry, FleetAggregation) {
    obs::RunTelemetry telemetry;
    telemetry.set_run_wall_seconds(2.0);
    telemetry.add(make_record("a.xapk", "complete", 0.010));
    telemetry.add(make_record("b.xapk", "partial", 0.020));
    telemetry.add(make_record("c.xapk", "error", 0.0));
    telemetry.add(make_record("d.xapk", "complete", 0.040));
    EXPECT_EQ(telemetry.app_count(), 4u);

    obs::FleetStats fleet = telemetry.fleet();
    EXPECT_EQ(fleet.apps, 4u);
    EXPECT_EQ(fleet.errors, 1u);
    EXPECT_DOUBLE_EQ(fleet.apps_per_second, 2.0);
    ASSERT_EQ(fleet.outcomes.size(), 3u);  // sorted by outcome name
    EXPECT_EQ(fleet.outcomes[0].first, "complete");
    EXPECT_EQ(fleet.outcomes[0].second, 2u);
    EXPECT_EQ(fleet.outcomes[1].first, "error");
    EXPECT_EQ(fleet.outcomes[2].first, "partial");
    EXPECT_EQ(fleet.latency_ms.count, 4u);
    EXPECT_DOUBLE_EQ(fleet.latency_ms.max, 40.0);
    EXPECT_GE(fleet.latency_ms.p95(), fleet.latency_ms.p50());
}

TEST(Telemetry, ManifestJsonShape) {
    obs::RunTelemetry telemetry;
    telemetry.set_jobs(4);
    telemetry.set_timestamp_unix_ms(1234);
    telemetry.set_run_wall_seconds(1.0);
    telemetry.add(make_record("a.xapk", "complete", 0.010));
    telemetry.add(make_record("bad.xapk", "error", 0.0));
    obs::MetricsRegistry registry;
    registry.counter("taint.runs").add(5);
    telemetry.set_metrics(registry.snapshot());

    Json doc = telemetry.manifest_json();
    ASSERT_TRUE(parse_json(doc.dump()).ok());
    EXPECT_EQ(doc.find("schema")->as_string(), "extractocol.run_manifest/v2");
    EXPECT_EQ(doc.find("generated_unix_ms")->as_int(), 1234);
    EXPECT_EQ(doc.find("jobs")->as_int(), 4);
    const Json* fleet = doc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    EXPECT_EQ(fleet->find("apps")->as_int(), 2);
    EXPECT_EQ(fleet->find("errors")->as_int(), 1);
    const Json* apps = doc.find("apps");
    ASSERT_NE(apps, nullptr);
    ASSERT_EQ(apps->items().size(), 2u);
    const Json& first = apps->items()[0];
    EXPECT_EQ(first.find("file")->as_string(), "a.xapk");
    EXPECT_EQ(first.find("outcome")->as_string(), "complete");
    EXPECT_EQ(first.find("error"), nullptr);  // only error records carry it
    EXPECT_EQ(first.find("peak_bytes")->as_int(), 4096);
    EXPECT_EQ(first.find("phases")->items().size(), 2u);
    const Json& second = apps->items()[1];
    EXPECT_EQ(second.find("error")->as_string(), "boom");
    // Metrics ride along with Prometheus-sanitized names.
    EXPECT_NE(doc.find("metrics")->find("counters")->find("taint_runs"), nullptr);
}

TEST(Telemetry, NormalizedManifestsAreByteIdentical) {
    // Two runs over the same inputs that differ ONLY in resource
    // measurements (timings, memory, jobs, timestamp) must render
    // byte-identically once normalized — the property the determinism suite
    // relies on at --jobs 1/2/8.
    auto build = [](double scale, unsigned jobs, std::uint64_t stamp) {
        auto telemetry = std::make_unique<obs::RunTelemetry>();
        telemetry->set_jobs(jobs);
        telemetry->set_timestamp_unix_ms(stamp);
        telemetry->set_run_wall_seconds(scale);
        obs::AppRunRecord a = make_record("a.xapk", "complete", 0.010 * scale);
        a.peak_bytes = static_cast<std::uint64_t>(1000 * scale);
        telemetry->add(a);
        telemetry->add(make_record("bad.xapk", "error", 0.0));
        return telemetry;
    };
    auto one = build(1.0, 1, 111);
    auto two = build(3.0, 8, 222);
    EXPECT_NE(one->manifest_json().dump_pretty(), two->manifest_json().dump_pretty());
    EXPECT_EQ(one->manifest_json(/*normalize_resources=*/true).dump_pretty(),
              two->manifest_json(/*normalize_resources=*/true).dump_pretty());
    // Normalization keeps the deterministic payload: outcomes, steps,
    // budget fractions, transaction counts all survive.
    Json normalized = one->manifest_json(true);
    const Json& app = normalized.find("apps")->items()[0];
    EXPECT_EQ(app.find("steps_used")->as_int(), 100);
    EXPECT_DOUBLE_EQ(app.find("budget_fraction")->as_double(), 0.25);
    EXPECT_EQ(app.find("wall_seconds")->as_double(), 0.0);
    EXPECT_EQ(app.find("peak_bytes")->as_int(), 0);
}

TEST(Metrics, ZeroSampleHistogramRendering) {
    // An instrument that exists but never observed a sample must say so:
    // percentiles of an empty distribution are undefined, and rendering
    // them as 0.0 (the old behavior) is indistinguishable from real zeros.
    obs::MetricsRegistry registry;
    registry.histogram("test.empty");                // registered, no samples
    registry.histogram("test.full").observe(5.0);
    obs::MetricsSnapshot snap = registry.snapshot();

    Json doc = snap.to_json();
    const Json* empty = doc.find("histograms")->find("test.empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->find("count")->as_int(), 0);
    EXPECT_TRUE(empty->find("p50")->is_null());
    EXPECT_TRUE(empty->find("p95")->is_null());
    EXPECT_TRUE(empty->find("p99")->is_null());
    EXPECT_TRUE(empty->find("min")->is_null());
    EXPECT_TRUE(empty->find("max")->is_null());
    EXPECT_TRUE(empty->find("mean")->is_null());
    const Json* full = doc.find("histograms")->find("test.full");
    EXPECT_EQ(full->find("count")->as_int(), 1);
    EXPECT_DOUBLE_EQ(full->find("p50")->as_double(), 5.0);

    // Prometheus: quantile samples omitted, _sum/_count still exported so
    // the series exists and dashboards can alert on count == 0.
    std::string prom = snap.to_prometheus();
    EXPECT_EQ(prom.find("test_empty{quantile"), std::string::npos) << prom;
    EXPECT_NE(prom.find("test_empty_count 0"), std::string::npos) << prom;
    EXPECT_NE(prom.find("test_empty_sum 0"), std::string::npos) << prom;
    EXPECT_NE(prom.find("test_full{quantile=\"0.5\"} 5"), std::string::npos) << prom;

    // Table: an explicit marker instead of a row of fake zeros.
    std::string table = snap.to_table();
    EXPECT_NE(table.find("count=0 (no samples)"), std::string::npos) << table;
}

TEST(Trace, CollapsedStackExport) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
        obs::Span outer("test.fold_outer", "t");
        {
            obs::Span inner("test.fold_inner", "t");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    recorder.set_enabled(false);

    std::string collapsed = recorder.to_collapsed();
    // Every line is `stack;frames <self_us>` — frame names, one space, an
    // integer — and lines are sorted by stack so the export is stable.
    std::istringstream lines(collapsed);
    std::string line;
    std::string prev;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_GT(space, 0u) << line;
        const std::string value = line.substr(space + 1);
        ASSERT_FALSE(value.empty()) << line;
        EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos) << line;
        EXPECT_GT(std::stoull(value), 0u) << "zero-self stacks must be dropped";
        EXPECT_LT(prev, line) << "collapsed lines must be sorted";
        prev = line;
    }
    ASSERT_EQ(n, 2u) << collapsed;
    // The child folds under its parent; the parent keeps only self time
    // (~2ms each, so both survive the zero-self filter).
    EXPECT_NE(collapsed.find("test.fold_outer;test.fold_inner "), std::string::npos)
        << collapsed;
    EXPECT_NE(collapsed.find("test.fold_outer "), std::string::npos) << collapsed;
    recorder.clear();
}

TEST(Trace, CollapsedStacksMergeAcrossThreads) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
        extractocol::support::ThreadPool pool(2);
        pool.for_each_index(6, [](std::size_t) {
            obs::Span span("test.merge_work", "t");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    }
    recorder.set_enabled(false);

    ASSERT_EQ(recorder.events().size(), 6u);
    std::string collapsed = recorder.to_collapsed();
    // Identical stacks from different threads fold into ONE line whose self
    // time is the sum over all six spans (>= 6ms).
    std::istringstream lines(collapsed);
    std::string line;
    std::size_t merge_lines = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("test.merge_work ", 0) == 0) {
            ++merge_lines;
            EXPECT_GE(std::stoull(line.substr(line.rfind(' ') + 1)), 6000u) << line;
        }
    }
    EXPECT_EQ(merge_lines, 1u) << collapsed;
    recorder.clear();
}

TEST(Trace, ConcurrentPoolSpansKeepDepthAndThread) {
    // Nested spans opened on pool workers must keep per-thread depth intact:
    // the inner span sits exactly one level below its outer span, on the
    // same thread, inside its parent's time window — for every index, no
    // matter which worker claimed it.
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
        extractocol::support::ThreadPool pool(3);
        pool.for_each_index(12, [](std::size_t) {
            obs::Span outer("test.nest_outer", "t");
            std::this_thread::sleep_for(std::chrono::microseconds(300));
            obs::Span inner("test.nest_inner", "t");
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        });
    }
    recorder.set_enabled(false);

    auto events = recorder.events();
    std::vector<obs::TraceEvent> outers;
    std::vector<obs::TraceEvent> inners;
    for (const auto& e : events) {
        if (e.name == "test.nest_outer") outers.push_back(e);
        if (e.name == "test.nest_inner") inners.push_back(e);
    }
    ASSERT_EQ(outers.size(), 12u);
    ASSERT_EQ(inners.size(), 12u);
    for (const auto& inner : inners) {
        bool parented = false;
        for (const auto& outer : outers) {
            // Timestamps truncate to whole microseconds, so an inner span
            // closing nanoseconds before its parent can overshoot the
            // parent's recorded end by 1us — allow that much slack.
            if (outer.thread == inner.thread && outer.depth + 1 == inner.depth &&
                inner.start_us >= outer.start_us &&
                inner.start_us + inner.duration_us <=
                    outer.start_us + outer.duration_us + 1) {
                parented = true;
                break;
            }
        }
        EXPECT_TRUE(parented) << "inner span with no enclosing outer on thread "
                              << inner.thread;
    }
    // The fold then attributes all inner self time under the outer frame.
    std::string collapsed = recorder.to_collapsed();
    EXPECT_NE(collapsed.find("test.nest_outer;test.nest_inner "), std::string::npos)
        << collapsed;
    recorder.clear();
}

TEST(Trace, SpanAttributesMemoryToPhase) {
    namespace memtrack = extractocol::support::memtrack;
    if (!memtrack::available()) GTEST_SKIP() << "allocator hooks unavailable";
    memtrack::set_enabled(true);
    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    const obs::HistogramStats* before_hist = before.histogram("mem.phase.test.mem_span");
    const std::uint64_t count_before = before_hist != nullptr ? before_hist->count : 0;
    {
        obs::Span span("test.mem_span", "t");
        std::vector<char> block(1 << 20, 'x');  // ~1 MiB net growth
        // Close while the block is still alive so the delta is positive.
        span.finish();
        obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
        const obs::HistogramStats* hist = after.histogram("mem.phase.test.mem_span");
        ASSERT_NE(hist, nullptr);
        EXPECT_EQ(hist->count, count_before + 1);
        EXPECT_GE(hist->max, static_cast<double>(1 << 20));
    }
    memtrack::set_enabled(false);
}

TEST(Metrics, HistogramStatsMergeFrom) {
    obs::HistogramStats a;
    obs::HistogramStats b;
    auto observe = [](obs::HistogramStats& h, double v) {
        if (h.count == 0) {
            h.min = v;
            h.max = v;
        } else {
            h.min = std::min(h.min, v);
            h.max = std::max(h.max, v);
        }
        h.count += 1;
        h.sum += v;
        h.buckets[obs::HistogramStats::bucket_index(v)] += 1;
    };
    observe(a, 2.0);
    observe(a, 8.0);
    observe(b, 100.0);

    obs::HistogramStats merged = a;
    merged.merge_from(b);
    EXPECT_EQ(merged.count, 3u);
    EXPECT_DOUBLE_EQ(merged.sum, 110.0);
    EXPECT_DOUBLE_EQ(merged.min, 2.0);
    EXPECT_DOUBLE_EQ(merged.max, 100.0);

    // Merging an empty summary changes nothing; merging INTO an empty one
    // copies (including min/max, which have no samples to widen from).
    obs::HistogramStats empty;
    merged.merge_from(empty);
    EXPECT_EQ(merged.count, 3u);
    obs::HistogramStats target;
    target.merge_from(a);
    EXPECT_EQ(target.count, a.count);
    EXPECT_DOUBLE_EQ(target.min, a.min);
    EXPECT_DOUBLE_EQ(target.max, a.max);
}

namespace {

/// A request record for driving RequestTelemetry directly.
obs::AppRunRecord request_record(const char* op, double ms, const char* key = "",
                                 bool cached = false, const char* error = "") {
    obs::AppRunRecord record;
    record.op = op;
    record.key = key;
    record.cached = cached;
    record.error = error;
    record.wall_seconds = ms / 1000.0;
    return record;
}

}  // namespace

TEST(Telemetry, RequestWindowMergesOnlyLiveSlots) {
    using Clock = obs::RequestTelemetry::Clock;
    obs::RequestTelemetry telemetry;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 3; ++i) telemetry.record_at(request_record("ping", 1), {}, t0);
    for (int i = 0; i < 4; ++i) {
        // Lands in the next slot.
        telemetry.record_at(request_record("ping", 1), {}, t0 + std::chrono::seconds(7));
    }
    obs::RequestStats now = telemetry.snapshot_at(t0 + std::chrono::seconds(7));
    EXPECT_EQ(now.counter("daemon.requests"), 7u);
    EXPECT_EQ(now.window.requests, 7u);
    // The window is 12 slots x 5s = 60s: far enough out it is empty, but
    // the lifetime tally survives.
    obs::RequestStats later = telemetry.snapshot_at(t0 + std::chrono::seconds(120));
    EXPECT_EQ(later.window.requests, 0u);
    EXPECT_EQ(later.counter("daemon.requests"), 7u);
    EXPECT_EQ(later.latency_ms.count, 7u);
    EXPECT_DOUBLE_EQ(later.window_seconds, 60.0);
}

TEST(Telemetry, RequestWindowRecyclesSlots) {
    using Clock = obs::RequestTelemetry::Clock;
    obs::RequestTelemetry telemetry;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 5; ++i) {
        telemetry.record_at(request_record("xapk", 1, "k", true), {}, t0);
    }
    // One full ring later the same slot comes around again; its old
    // figures must be recycled, not added to.
    telemetry.record_at(request_record("xapk", 1, "k", false), {},
                        t0 + std::chrono::seconds(60));
    obs::RequestStats stats = telemetry.snapshot_at(t0 + std::chrono::seconds(60));
    EXPECT_EQ(stats.window.requests, 1u);
    EXPECT_EQ(stats.window.hits, 0u);
    EXPECT_EQ(stats.window.misses, 1u);
    EXPECT_EQ(stats.window.latency_ms.count, 1u);
    EXPECT_EQ(stats.counter("daemon.requests"), 6u);
    EXPECT_EQ(stats.counter("daemon.cache.hits"), 5u);
}

TEST(Telemetry, RequestWindowLatencyAndZeroSampleContract) {
    using Clock = obs::RequestTelemetry::Clock;
    obs::RequestTelemetry telemetry;
    Clock::time_point t0 = Clock::now();
    telemetry.record_at(request_record("ping", 10.0), {}, t0);
    telemetry.record_at(request_record("ping", 30.0), {}, t0 + std::chrono::seconds(6));

    obs::RequestStats stats = telemetry.snapshot_at(t0 + std::chrono::seconds(6));
    EXPECT_EQ(stats.latency_ms.count, 2u);
    EXPECT_DOUBLE_EQ(stats.latency_ms.min, 10.0);
    EXPECT_DOUBLE_EQ(stats.latency_ms.max, 30.0);
    EXPECT_EQ(stats.window.latency_ms.count, 2u);
    EXPECT_DOUBLE_EQ(stats.window.latency_ms.sum, 40.0);

    // Past the window, the merge has zero samples and must honor the
    // zero-sample rendering contract: null percentiles, not 0.0.
    obs::RequestStats empty = telemetry.snapshot_at(t0 + std::chrono::seconds(200));
    EXPECT_EQ(empty.window.latency_ms.count, 0u);
    EXPECT_EQ(empty.latency_ms.count, 2u);
    Json rendered = obs::histogram_stats_json(empty.window.latency_ms);
    EXPECT_TRUE(rendered.find("p95")->is_null());
    EXPECT_TRUE(rendered.find("min")->is_null());
}

TEST(Telemetry, MetricsSnapshotCarriesLifetimeAndWindowSeries) {
    using Clock = obs::RequestTelemetry::Clock;
    obs::RequestTelemetry telemetry;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 9; ++i) {
        (void)telemetry.next_request_id();
        telemetry.record_at(request_record("xapk", 5.0, "k", i > 0), {{"cache.hits", 1}},
                            t0);
    }
    (void)telemetry.next_request_id();  // one request still in flight

    obs::MetricsSnapshot registry;
    registry.gauges = {{"a.gauge", 1}, {"z.gauge", 2}};
    registry.histograms = {{"z.hist_ms", obs::HistogramStats{}}};
    registry.counters = {{"registry.only", 4}};
    obs::MetricsSnapshot merged = telemetry.snapshot_at(t0).merged_into(registry, 3);

    // Counters are the daemon's tally, lifetime totals under their own names.
    using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(merged.counters, (Counts{{"cache.hits", 9},
                                       {"daemon.cache.hits", 8},
                                       {"daemon.cache.misses", 1},
                                       {"daemon.requests", 9}}));
    // The window rides under "<name>.window" as a gauge (the window total
    // can shrink, which a counter must never do), merged in name order.
    using Gauges = std::vector<std::pair<std::string, std::int64_t>>;
    EXPECT_EQ(merged.gauges, (Gauges{{"a.gauge", 1},
                                     {"daemon.cache.hits.window", 8},
                                     {"daemon.cache.misses.window", 1},
                                     {"daemon.connections.active", 3},
                                     {"daemon.request_errors.window", 0},
                                     {"daemon.requests.inflight", 1},
                                     {"daemon.requests.window", 9},
                                     {"z.gauge", 2}}));
    ASSERT_EQ(merged.histograms.size(), 3u);
    EXPECT_EQ(merged.histograms[0].first, "daemon.request_ms");
    EXPECT_EQ(merged.histograms[1].first, "daemon.request_ms.window");
    EXPECT_EQ(merged.histograms[2].first, "z.hist_ms");
    EXPECT_EQ(merged.histogram("daemon.request_ms")->count, 9u);
    EXPECT_EQ(merged.histogram("daemon.request_ms.window")->count, 9u);
    // Once the window has slid past, only the lifetime series keep counts.
    obs::MetricsSnapshot later = telemetry.snapshot_at(t0 + std::chrono::seconds(120))
                                     .merged_into(registry, 0);
    EXPECT_EQ(later.histogram("daemon.request_ms")->count, 9u);
    EXPECT_EQ(later.histogram("daemon.request_ms.window")->count, 0u);
    EXPECT_NE(later.to_prometheus().find("daemon_request_ms_window_count 0\n"),
              std::string::npos);
}

TEST(Telemetry, RequestTelemetryTalliesAndWindows) {
    obs::RequestTelemetry telemetry;
    EXPECT_EQ(telemetry.next_request_id(), 1u);
    EXPECT_EQ(telemetry.next_request_id(), 2u);
    EXPECT_EQ(telemetry.next_request_id(), 3u);
    EXPECT_EQ(telemetry.snapshot().inflight, 3);

    obs::AppRunRecord hit = request_record("file", 2.0, "deadbeef", true);
    hit.request_id = 1;
    telemetry.record(hit, {{"cache.hits", 1}});

    obs::AppRunRecord err = request_record("ping", 1.0, "", false, "boom");
    err.request_id = 2;
    telemetry.record(err, {});

    // A file request that failed before its lookup has no key: no miss.
    obs::AppRunRecord unread =
        request_record("file", 0.0, "", false, "cannot open /nonexistent");
    unread.request_id = 3;
    telemetry.record(unread, {});

    obs::RequestStats stats = telemetry.snapshot();
    EXPECT_EQ(stats.counter("daemon.requests"), 3u);
    EXPECT_EQ(stats.counter("daemon.request_errors"), 2u);
    EXPECT_EQ(stats.counter("daemon.never_bumped"), 0u);
    ASSERT_EQ(stats.ops.size(), 2u);
    EXPECT_EQ(stats.ops[0].first, "file");  // sorted by op name
    EXPECT_EQ(stats.ops[0].second, 2u);
    EXPECT_EQ(stats.ops[1].first, "ping");
    using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(stats.counters, (Counts{{"cache.hits", 1},
                                      {"daemon.cache.hits", 1},
                                      {"daemon.request_errors", 2},
                                      {"daemon.requests", 3}}));
    EXPECT_EQ(stats.inflight, 0);
    EXPECT_EQ(stats.latency_ms.count, 3u);
    EXPECT_EQ(stats.window.latency_ms.count, 3u);
    EXPECT_EQ(stats.window.requests, 3u);
    EXPECT_EQ(stats.window.errors, 2u);
    EXPECT_DOUBLE_EQ(stats.window_seconds, 60.0);
    // Only requests that looked the cache up count toward hits/misses.
    EXPECT_EQ(stats.window.hits, 1u);
    EXPECT_EQ(stats.window.misses, 0u);
}

TEST(Telemetry, JournalLineJsonShape) {
    obs::AppRunRecord record;
    record.request_id = 7;
    record.connection_id = 2;
    record.op = "file";
    record.file = "app.xapk";
    record.key = "deadbeef";
    record.cached = true;
    record.outcome = "complete";  // the analysis outcome: manifest only
    record.wall_seconds = 0.25;
    record.phases = {{"parse", 0.1}, {"taint", 0.15}};
    record.response_bytes = 512;

    Json doc = record.journal_json();
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("request")->as_int(), 7);
    EXPECT_EQ(doc.find("op")->as_string(), "file");
    EXPECT_EQ(doc.find("key")->as_string(), "deadbeef");
    EXPECT_TRUE(doc.find("cached")->as_bool());
    EXPECT_EQ(doc.find("outcome")->as_string(), "ok");
    ASSERT_NE(doc.find("phases"), nullptr);
    EXPECT_EQ(doc.find("phases")->items().size(), 2u);
    // Optional fields stay absent rather than rendering empty: the journal
    // line is grep-fodder, not a fixed-width table.
    EXPECT_EQ(doc.find("error"), nullptr);
    EXPECT_EQ(doc.find("peak_bytes"), nullptr);
    // The journal keeps its members and their order; manifest-only fields
    // (the analysis outcome, steps, counts) stay out of it.
    std::vector<std::string> keys;
    for (const auto& [key, value] : doc.members()) keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"request", "connection", "op", "file", "key",
                                              "cached", "outcome", "wall_seconds", "phases",
                                              "response_bytes"}));

    // A failed request renders outcome "error" from its error message.
    record.error = "boom";
    EXPECT_EQ(record.journal_json().find("outcome")->as_string(), "error");

    // A full round-trip through dump/parse survives.
    auto parsed = parse_json(doc.dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), doc);
}

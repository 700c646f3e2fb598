#include "layers.hpp"

#include <array>
#include <optional>
#include <set>

#include "cache/cache.hpp"
#include "cache/codec.hpp"
#include "core/analyzer.hpp"
#include "daemon.hpp"
#include "obs/metrics.hpp"
#include "semantics/deobfuscate.hpp"
#include "sig/builder.hpp"
#include "slicing/slicer.hpp"
#include "support/strings.hpp"
#include "txn/dependency.hpp"
#include "workloads.hpp"
#include "xapk/serialize.hpp"

namespace perfbench {

namespace {

/// Layer spans of one analysis, in pipeline order. Their self times plus
/// core.residual (dedup, audit, bookkeeping) make up the untraced wall.
constexpr std::array<const char*, 8> kLayers = {
    "xapk.parse", "semantics.deobfuscate", "slicing.setup", "slicing.slice",
    "sig.build",  "sig.regex",             "txn.analyze",   "txn.tags"};

/// How far (as a share of the untraced wall) the layer spans may overshoot
/// it before the traced pass is called wrong.
constexpr double kResidualBound = 0.10;

const std::size_t kMaxSigSteps = core::AnalyzerOptions{}.max_sig_steps;

/// Deterministic work of one analysis; must repeat exactly run to run.
struct Work {
    std::uint64_t sites = 0;
    std::uint64_t contexts = 0;
    std::uint64_t slicing_taint_runs = 0;
    std::uint64_t taint_runs = 0;
    std::uint64_t worklist_iterations = 0;
    std::uint64_t slice_statements = 0;
    std::uint64_t builds = 0;
    std::uint64_t response_taps = 0;
    std::uint64_t edges = 0;
    bool operator==(const Work&) const = default;
    Work& operator+=(const Work& o) {
        sites += o.sites;
        contexts += o.contexts;
        slicing_taint_runs += o.slicing_taint_runs;
        taint_runs += o.taint_runs;
        worklist_iterations += o.worklist_iterations;
        slice_statements += o.slice_statements;
        builds += o.builds;
        response_taps += o.response_taps;
        edges += o.edges;
        return *this;
    }
};

/// Registry counters read around the layer calls (acquired once).
struct Counters {
    obs::Counter& taint_runs = obs::counter("taint.runs");
    obs::Counter& worklist = obs::counter("taint.worklist_iterations");
    obs::Counter& slice_statements = obs::counter("taint.slice_statements");
    obs::Counter& contexts = obs::counter("slicer.contexts");
    obs::Counter& taps = obs::counter("txn.response_taps");
};

struct Traced {
    std::map<std::string, double> layer_ms;
    double app_ms = 0;  // the whole traced analysis
    Work work;
    std::set<std::string> uri_regexes;
};

/// The pipeline of core::Analyzer::analyze_xapk at jobs 1, driven from
/// here through each module's public functions so every layer call gets
/// its own span. Dedup and the audit are left out: they are the residual.
Traced traced_analyze(const std::string& text, std::uint32_t subject, Tracer& tracer,
                      const semantics::SemanticModel& model, Counters& c) {
    using Scope = Tracer::Scope;
    Traced out;
    auto start = Clock::now();
    std::size_t first_span = tracer.spans().size();
    std::size_t app_span = tracer.begin("app", subject);

    xir::Program input;
    {
        Scope s(tracer, "xapk.parse", subject);
        auto parsed = xapk::parse_xapk(text);
        if (parsed.ok()) input = std::move(parsed).take();
    }
    const xir::Program* program = &input;
    xir::Program deobfuscated;
    {
        Scope s(tracer, "semantics.deobfuscate", subject);
        auto mapping = semantics::infer_deobfuscation(input, model);
        if (!mapping.classes.empty()) {
            deobfuscated = input;
            semantics::apply_deobfuscation(deobfuscated, mapping);
            program = &deobfuscated;
        }
    }

    std::uint64_t runs0 = c.taint_runs.value(), work0 = c.worklist.value(),
                  stmts0 = c.slice_statements.value(), ctx0 = c.contexts.value();
    std::optional<slicing::Slicer> slicer;
    std::vector<xir::StmtRef> sites;
    {
        Scope s(tracer, "slicing.setup", subject);
        slicer.emplace(*program, model, slicing::SlicerOptions{});
        sites = slicer->demarcation_sites();
    }
    std::vector<slicing::SlicedTransaction> sliced;
    for (const auto& site : sites) {
        Scope s(tracer, "slicing.slice", subject);
        auto txns = slicer->slice_site(site);
        sliced.insert(sliced.end(), std::make_move_iterator(txns.begin()),
                      std::make_move_iterator(txns.end()));
    }
    out.work.sites = sites.size();
    out.work.slicing_taint_runs = c.taint_runs.value() - runs0;
    out.work.contexts = c.contexts.value() - ctx0;

    // The analyzer's intent filter (§5.1 coverage gap), untraced glue.
    std::erase_if(sliced, [](const slicing::SlicedTransaction& t) {
        return t.trigger_kind == xir::EventKind::kOnIntent &&
               !strings::starts_with(t.trigger, "unknown:");
    });

    sig::SignatureBuilder builder(*program, slicer->callgraph(), model);
    std::vector<sig::TransactionSignature> signatures;
    std::vector<slicing::SlicedTransaction> built;
    for (auto& t : sliced) {
        std::optional<sig::TransactionSignature> signature;
        {
            Scope s(tracer, "sig.build", subject);
            sig::BuildRequest request;
            request.dp_site = t.dp_site;
            request.dp = t.dp;
            request.context = t.context;
            request.slice = &t.combined_slice;
            request.max_steps = kMaxSigSteps;
            signature = builder.build(request);
        }
        ++out.work.builds;
        if (!signature) continue;
        signatures.push_back(std::move(*signature));
        built.push_back(std::move(t));
    }

    std::uint64_t taps0 = c.taps.value();
    txn::DependencyAnalyzer deps(*program, slicer->callgraph(), model, slicer->engine());
    {
        Scope s(tracer, "txn.analyze", subject);
        out.work.edges = deps.analyze(built).size();
    }
    out.work.response_taps = c.taps.value() - taps0;
    for (std::size_t i = 0; i < built.size(); ++i) {
        {
            Scope s(tracer, "sig.regex", subject);
            out.uri_regexes.insert(signatures[i].uri.to_regex());
            if (signatures[i].has_body) (void)signatures[i].body.to_regex();
            if (signatures[i].has_response_body) (void)signatures[i].response_body.to_regex();
        }
        Scope s(tracer, "txn.tags", subject);
        (void)deps.tags(built[i]);
    }
    out.work.taint_runs = c.taint_runs.value() - runs0;
    out.work.worklist_iterations = c.worklist.value() - work0;
    out.work.slice_statements = c.slice_statements.value() - stmts0;

    tracer.end(app_span);
    out.app_ms = ms_since(start);
    if (tracer.enabled()) {
        auto self = tracer.self_ms(first_span);
        for (const char* layer : kLayers) out.layer_ms[layer] = self[layer];
    }
    return out;
}

/// Median over reps of one per-rep quantity.
template <typename Fn>
double median_over(std::size_t reps, Fn&& fn) {
    std::vector<double> v;
    for (std::size_t r = 0; r < reps; ++r) v.push_back(fn(r));
    return median_of(std::move(v));
}

double time_ms(const std::function<void()>& fn) {
    auto t0 = Clock::now();
    fn();
    return ms_since(t0);
}

/// What the cache layer and the daemon's request path cost for one input.
struct InputCosts {
    double key_ms = 0;
    double load_ms = 0;
    double encode_ms = 0;    // cache codec: report_to_json + dump
    double response_ms = 0;  // daemon response: to_json + dump
    double parse_ms = 0;     // request line through text::parse_json
};

}  // namespace

void run_layers(const WorkloadInputs& w, const std::vector<std::size_t>& subset,
                std::size_t reps, const std::string& dir, MetricSink& metrics,
                Tracer& tracer, text::Json& per_app, Checks& checks) {
    Counters counters;
    Tracer untraced_replay(false);
    core::Analyzer analyzer;  // jobs 1, default options: what is traced
    const semantics::SemanticModel& model = analyzer.model();

    // ---- analysis layers -------------------------------------------------
    std::map<std::string, double> layer_total;
    Work work_total;
    double untraced_total = 0, overhead_total = 0, residual_total = 0, bytes = 0;
    std::vector<core::AnalysisReport> reports(subset.size());
    for (std::size_t k = 0; k < subset.size(); ++k) {
        const Input& in = w.inputs[subset[k]];
        std::vector<double> untraced, replayed;
        std::vector<Traced> traced;
        for (std::size_t r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            auto result = analyzer.analyze_xapk(in.text);
            untraced.push_back(ms_since(t0));
            if (!result.ok() || canonical_hash(result.value()) != in.reference) {
                checks.fail("traced pass: wrong report for " + in.label);
                return;
            }
            // The same replay with spans off: the difference is the overhead.
            Traced replay = traced_analyze(in.text, 0, untraced_replay, model, counters);
            replayed.push_back(replay.app_ms);
            traced.push_back(traced_analyze(in.text, static_cast<std::uint32_t>(k), tracer,
                                            model, counters));
            std::set<std::string> uris;
            for (const auto& t : result.value().transactions) uris.insert(t.uri_regex);
            checks.require(traced.back().uri_regexes == uris,
                           "traced pass: replayed pipeline differs for " + in.label);
            checks.require(replay.work == traced.back().work &&
                               traced.back().work == traced.front().work,
                           "traced pass: work counts differ between replays of " + in.label);
            reports[k] = std::move(result).take();
        }
        double wall = median_of(untraced);
        double app = median_over(reps, [&](std::size_t r) { return traced[r].app_ms; });
        double replay = median_of(replayed);
        text::Json entry = text::Json::object();
        entry.set("input", text::Json(in.label));
        entry.set("untraced_ms", text::Json(wall));
        entry.set("replay_untraced_ms", text::Json(replay));
        entry.set("replay_traced_ms", text::Json(app));
        double layer_sum = 0;
        text::Json layers = text::Json::object();
        for (const char* layer : kLayers) {
            double ms = median_over(reps, [&](std::size_t r) { return traced[r].layer_ms[layer]; });
            layers.set(layer, text::Json(ms));
            layer_total[layer] += ms;
            layer_sum += ms;
        }
        entry.set("layers_ms", std::move(layers));
        entry.set("layer_sum_ms", text::Json(layer_sum));
        entry.set("residual_ms", text::Json(wall - layer_sum));
        per_app.push_back(std::move(entry));

        work_total += traced.front().work;
        untraced_total += wall;
        overhead_total += app - replay;
        residual_total += wall - layer_sum;
        bytes += static_cast<double>(in.text.size());
    }

    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics.put("xapk.parse_ms", layer_total["xapk.parse"], "ms");
    metrics.put("xapk.bytes", bytes, "bytes");
    metrics.put("xapk.parse_mb_per_s", bytes / 1e6 / (layer_total["xapk.parse"] / 1000), "MB/s");
    metrics.put("semantics.deobfuscate_ms", layer_total["semantics.deobfuscate"], "ms");
    metrics.put("core.analyzer_construct_ms",
                analyzer_construction_s(1, 101).median() * 1000, "ms");
    metrics.put("slicing.setup_ms", layer_total["slicing.setup"], "ms");
    metrics.put("slicing.slice_ms", layer_total["slicing.slice"], "ms");
    metrics.put("slicing.sites", count(work_total.sites), "count");
    metrics.put("slicing.contexts", count(work_total.contexts), "count");
    metrics.put("taint.runs", count(work_total.taint_runs), "count");
    metrics.put("taint.worklist_iterations", count(work_total.worklist_iterations), "count");
    metrics.put("taint.slice_statements", count(work_total.slice_statements), "count");
    metrics.put("slicing.ns_per_taint_run",
                layer_total["slicing.slice"] * 1e6 / count(work_total.slicing_taint_runs), "ns");
    metrics.put("sig.build_ms", layer_total["sig.build"], "ms");
    metrics.put("sig.builds", count(work_total.builds), "count");
    metrics.put("sig.ns_per_build", layer_total["sig.build"] * 1e6 / count(work_total.builds),
                "ns");
    metrics.put("sig.regex_ms", layer_total["sig.regex"], "ms");
    metrics.put("txn.analyze_ms", layer_total["txn.analyze"], "ms");
    metrics.put("txn.tags_ms", layer_total["txn.tags"], "ms");
    metrics.put("txn.response_taps", count(work_total.response_taps), "count");
    metrics.put("txn.edges", count(work_total.edges), "count");
    metrics.put("txn.ns_per_tap",
                layer_total["txn.analyze"] * 1e6 / count(work_total.response_taps), "ns");
    metrics.put("core.residual_ms", residual_total, "ms");
    metrics.put("trace.untraced_ms", untraced_total, "ms");
    metrics.put("trace.layer_share", (untraced_total - residual_total) / untraced_total, "ratio");
    metrics.put("trace.overhead_ms", overhead_total, "ms");
    // The layer spans are the analysis minus dedup, audit and bookkeeping,
    // so they may not exceed the untraced wall by more than noise.
    checks.require(residual_total >= -kResidualBound * untraced_total,
                   "traced pass: layer spans exceed the untraced wall");

    // ---- cache layer -----------------------------------------------------
    // Reports go in as the cache path stores them: without the per-run
    // counter window. The same directory then backs the daemon below.
    const std::string server_dir = dir + "/server";
    cache::CacheOptions cache_options;
    cache_options.dir = Daemon::cache_dir(server_dir);
    std::vector<InputCosts> costs(subset.size());
    double key_ms = 0, store_ms = 0, encode_ms = 0, decode_ms = 0, load_ms = 0;
    cache::CacheStats cache_stats;
    {
        cache::ReportCache report_cache(cache_options);
        for (std::size_t k = 0; k < subset.size(); ++k) {
            const Input& in = w.inputs[subset[k]];
            core::AnalysisReport& report = reports[k];
            report.stats.counters.clear();
            report.audit.unmodeled_apis.clear();
            InputCosts& cost = costs[k];
            std::string key;
            cost.key_ms = median_over(reps, [&](std::size_t) {
                return time_ms([&] { key = cache::ReportCache::key_for(in.text); });
            });
            std::string payload;
            cost.encode_ms = median_over(reps, [&](std::size_t) {
                return time_ms([&] { payload = cache::report_to_json(report).dump(); });
            });
            bool decoded = true;
            decode_ms += median_over(reps, [&](std::size_t) {
                return time_ms([&] {
                    auto doc = text::parse_json(payload);
                    decoded = decoded && doc.ok() && cache::report_from_json(doc.value()).ok();
                });
            });
            checks.require(decoded, "cache layer: codec round trip failed for " + in.label);
            checks.require(!report_cache.load(key).has_value(),
                           "cache layer: unexpected entry for " + in.label);
            store_ms += time_ms([&] { report_cache.store(key, report); });
            std::optional<core::AnalysisReport> loaded;
            cost.load_ms = median_over(reps, [&](std::size_t) {
                return time_ms([&] { loaded = report_cache.load(key); });
            });
            checks.require(loaded && canonical_hash(*loaded) == in.reference,
                           "cache layer: loaded report differs for " + in.label);
            cost.response_ms = median_over(reps, [&](std::size_t) {
                return time_ms([&] { (void)loaded->to_json().dump(); });
            });
            key_ms += cost.key_ms;
            encode_ms += cost.encode_ms;
            load_ms += cost.load_ms;
        }
        cache_stats = report_cache.stats();
    }
    metrics.put("cache.key_mb_per_s", bytes / 1e6 / (key_ms / 1000), "MB/s");
    metrics.put("cache.load_ms", load_ms, "ms");
    metrics.put("cache.store_ms", store_ms, "ms");
    metrics.put("cache.encode_ms", encode_ms, "ms");
    metrics.put("cache.decode_ms", decode_ms, "ms");
    metrics.put("cache.hits", count(cache_stats.hits), "count");
    metrics.put("cache.misses", count(cache_stats.misses), "count");

    // ---- daemon request path -------------------------------------------
    // The daemon serves every input from the cache filled above. One
    // connection, open loop at one request per 10 ms: three hits per input,
    // each followed by a ping. Responses are kept for checking afterwards.
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < subset.size(); ++k) {
        lines.push_back(xapk_request(subset[k], w.inputs[subset[k]].text));
        costs[k].parse_ms = median_over(reps, [&](std::size_t) {
            return time_ms([&] { (void)text::parse_json(lines.back()); });
        });
    }
    const std::string ping = "{\"op\":\"ping\"}\n";
    std::vector<const std::string*> schedule;
    std::vector<double> due;
    for (std::size_t rep = 0; rep < 3; ++rep) {
        for (std::size_t k = 0; k < subset.size(); ++k) {
            schedule.push_back(&lines[k]);
            schedule.push_back(&ping);
        }
    }
    for (std::size_t i = 0; i < schedule.size(); ++i) due.push_back(10.0 * static_cast<double>(i));
    std::vector<std::string> first_response(subset.size());
    std::vector<Timed> timed;
    {
        Daemon daemon(server_dir, kDaemonJobs);
        checks.require(daemon.ok(), "server layer: daemon did not answer a ping");
        if (!daemon.ok()) return;
        Connection conn(daemon.socket());
        timed = run_open_loop(conn, schedule, due, Clock::now(),
                              [&](std::size_t i, std::string& response) {
                                  if (i % 2 == 1) return response.find("\"pong\":true") != std::string::npos;
                                  std::string& first = first_response[(i / 2) % subset.size()];
                                  if (first.empty()) {
                                      first = std::move(response);
                                      return true;
                                  }
                                  return response == first;
                              });
    }
    Samples ping_rtt, late;
    std::vector<std::vector<double>> hit_rtt(subset.size());
    for (std::size_t i = 0; i < timed.size(); ++i) {
        checks.require(timed[i].ok, "server layer: request " + std::to_string(i) + " failed");
        double rtt = timed[i].done_ms - timed[i].sent_ms;
        late.add(timed[i].sent_ms - timed[i].due_ms);
        if (i % 2 == 1) {
            ping_rtt.add(rtt);
        } else {
            hit_rtt[(i / 2) % subset.size()].push_back(rtt);
        }
    }
    double hit_total = 0, parse_total = 0, residual = 0;
    for (std::size_t k = 0; k < subset.size(); ++k) {
        auto parsed = text::parse_json(first_response[k]);
        const text::Json* report = parsed.ok() ? parsed.value().find("report") : nullptr;
        const text::Json* cached = parsed.ok() ? parsed.value().find("cached") : nullptr;
        checks.require(report != nullptr && cached != nullptr && cached->is_bool() &&
                           cached->as_bool() &&
                           Fnv().add(canonical_report(*report)).value() ==
                               w.inputs[subset[k]].reference,
                       "server layer: hit differs for " + w.inputs[subset[k]].label);
        double rtt = median_of(hit_rtt[k]);
        const InputCosts& c = costs[k];
        hit_total += rtt;
        parse_total += c.parse_ms;
        residual += rtt - (c.parse_ms + c.key_ms + c.load_ms + c.response_ms);
    }
    const double n = static_cast<double>(subset.size());
    metrics.put("server.ping_rtt_ms", ping_rtt.median(), "ms");
    metrics.put("server.hit_rtt_ms", hit_total / n, "ms");
    metrics.put("server.request_parse_ms", parse_total / n, "ms");
    metrics.put("server.residual_ms", residual / n, "ms");
    metrics.put("server.late_ms", late.median(), "ms");
}

}  // namespace perfbench

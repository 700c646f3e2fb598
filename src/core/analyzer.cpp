#include "core/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "semantics/deobfuscate.hpp"
#include "slicing/slicer.hpp"
#include "support/log.hpp"
#include "support/memtrack.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "xapk/serialize.hpp"

namespace extractocol::core {

using namespace xir;

namespace {

// '\x1f' (ASCII unit separator) never occurs in regex renderings or numeric
// renderings, so joined keys cannot collide across field boundaries.
constexpr char kSep = '\x1f';

std::string transaction_key(const sig::TransactionSignature& signature,
                            const std::string& uri_regex, const std::string& body_regex,
                            const std::string& response_regex, const StmtRef& dp_site) {
    std::string key;
    key.reserve(uri_regex.size() + body_regex.size() + response_regex.size() + 32);
    key += std::to_string(static_cast<int>(signature.method));
    key += kSep;
    key += uri_regex;
    key += kSep;
    key += body_regex;
    key += kSep;
    key += response_regex;
    key += kSep;
    key += std::to_string(static_cast<int>(signature.consumer));
    key += kSep;
    key += std::to_string(dp_site.method_index);
    key += kSep;
    key += std::to_string(dp_site.block);
    key += kSep;
    key += std::to_string(dp_site.index);
    return key;
}

void merge_unique(std::vector<std::string>& into, std::vector<std::string>&& from) {
    for (auto& value : from) {
        if (std::find(into.begin(), into.end(), value) == into.end()) {
            into.push_back(std::move(value));
        }
    }
}

}  // namespace

Analyzer::Analyzer(AnalyzerOptions options)
    : options_(std::move(options)), model_(semantics::SemanticModel::standard()) {}

AnalysisReport Analyzer::analyze(const Program& input_program) const {
    auto start = std::chrono::steady_clock::now();
    // Every counter this run bumps — on this thread, or on a pool worker
    // inside one of its units — lands in `run`, so stats.counters is exact
    // however many other analyses share the process. The run also holds the
    // app's step limit, shared by the slicing and signature stages: their
    // units fold in site/context order, so the exhaustion point — and the
    // degraded report — is identical for every `jobs` value.
    obs::RunScope run(options_.max_total_steps);
    obs::Span analyze_span("analyze", "core");

    // One pool serves the three data-parallel stages (per-site slicing,
    // per-transaction signature building, per-tap dependency probes). The
    // caller participates, so the pool holds jobs-1 workers; jobs <= 1
    // keeps everything on this thread.
    unsigned jobs = support::resolve_jobs(options_.jobs);
    support::ThreadPool pool(jobs > 1 ? jobs - 1 : 0);

    AnalysisReport report;
    auto end_phase = [&report](const char* name, obs::Span& span) {
        span.finish();
        report.stats.phases.push_back({name, span.seconds()});
    };

    // Library de-obfuscation pre-pass (§3.4): map renamed bundled libraries
    // back to canonical API names so the semantic model applies.
    obs::Span deobf_span("deobfuscate", "core");
    const Program* program = &input_program;
    Program deobfuscated;
    if (options_.deobfuscate_libraries) {
        auto mapping = semantics::infer_deobfuscation(input_program, model_);
        if (!mapping.classes.empty()) {
            deobfuscated = input_program;  // deep copy, then rewrite in place
            semantics::apply_deobfuscation(deobfuscated, mapping);
            program = &deobfuscated;
            log::info().kv("classes", mapping.classes.size())
                    .kv("unresolved", mapping.unresolved.size())
                << "de-obfuscated bundled library classes";
        }
    }
    end_phase("deobfuscate", deobf_span);

    report.app_name = program->app_name;
    report.stats.total_statements = program->total_statements();

    obs::Span slicing_span("slicing", "core");
    slicing::SlicerOptions slicer_options;
    slicer_options.async_heuristic = options_.async_heuristic;
    slicer_options.max_async_hops = options_.max_async_hops;
    slicer_options.max_taint_steps = options_.max_taint_steps;
    slicing::Slicer slicer(*program, model_, slicer_options);

    std::vector<StmtRef> sites;
    for (const StmtRef& site : slicer.demarcation_sites()) {
        if (!options_.class_scope.empty()) {
            const Method& method = program->method_at(site.method_index);
            if (!strings::starts_with(method.class_name, options_.class_scope)) continue;
        }
        sites.push_back(site);
    }
    report.stats.dp_sites = sites.size();

    // Audit scaffolding: one record per DP site, in site order (which is
    // jobs-independent); the per-site counts fill in as the pipeline runs.
    std::unordered_map<StmtRef, std::size_t, StmtRefHash> audit_index;
    audit_index.reserve(sites.size());
    report.audit.dp_sites.reserve(sites.size());
    for (const StmtRef& site : sites) {
        DpSiteAudit a;
        a.site = site;
        const Method& method = program->method_at(site.method_index);
        a.location = method.class_name + "." + method.name;
        if (const auto* inv = std::get_if<Invoke>(&program->statement(site))) {
            a.dp = inv->callee.class_name + "." + inv->callee.method_name;
        }
        audit_index.emplace(site, report.audit.dp_sites.size());
        report.audit.dp_sites.push_back(std::move(a));
    }

    // --profile row key of a DP site (empty unless the run profiles). The
    // slicing unit and the signature units of one site share it, so both
    // stages merge into one table row.
    const bool profiling = obs::RunScope::profiling();
    auto profile_key = [&](const StmtRef& site) {
        auto it = audit_index.find(site);
        if (!profiling || it == audit_index.end()) return std::string();
        const DpSiteAudit& a = report.audit.dp_sites[it->second];
        return obs::profile_site_key(program->app_name, a.dp, a.location,
                                     site.method_index, site.block, site.index);
    };

    // Each site slices independently into its own slot (and its own stage
    // unit); the flatten below is sequential and in site order, so the
    // transaction order (and therefore the report) is identical for any
    // thread count.
    //
    // Sites past the budget cut lose their results, and none of their
    // steps, counters or --profile rows count: the cut depends only on the
    // deterministic per-site costs.
    std::vector<char> site_budget_hit(sites.size(), 0);
    std::vector<std::vector<slicing::SlicedTransaction>> per_site(sites.size());
    {
        obs::RunScope::Stage stage(run, sites.size(), obs::RunScope::Phase::kSlice);
        pool.for_each_index(sites.size(), [&](std::size_t i) {
            stage.run(
                i,
                [&] {
                    std::size_t steps = 0;
                    per_site[i] = slicer.slice_site(sites[i], &steps);
                    return steps;
                },
                profile_key(sites[i]));
        });
        std::size_t cut = stage.finish();
        for (std::size_t i = cut; i < sites.size(); ++i) {
            per_site[i].clear();
            site_budget_hit[i] = 1;
        }
    }
    std::vector<slicing::SlicedTransaction> sliced;
    for (auto& txns : per_site) {
        sliced.insert(sliced.end(), std::make_move_iterator(txns.begin()),
                      std::make_move_iterator(txns.end()));
    }
    per_site.clear();
    {
        std::vector<StmtRef> all;
        for (const auto& txn : sliced) {
            all.insert(all.end(), txn.combined_slice.begin(), txn.combined_slice.end());
        }
        std::sort(all.begin(), all.end());
        report.stats.slice_statements =
            static_cast<std::size_t>(std::unique(all.begin(), all.end()) - all.begin());
    }
    end_phase("slicing", slicing_span);

    // Signature extraction per transaction context.
    obs::Span sig_span("sig", "core");
    sig::SignatureBuilder builder(*program, slicer.callgraph(), model_);

    // Pre-filter context totals per site: the audit outcome distinguishes
    // "slicing found nothing" from "everything was filtered away".
    std::vector<std::size_t> site_total_contexts(sites.size(), 0);
    for (const auto& txn : sliced) {
        auto it = audit_index.find(txn.dp_site);
        if (it != audit_index.end()) ++site_total_contexts[it->second];
    }

    // Extractocol does not model Android intents (§4): transactions whose
    // only entry is an intent handler are invisible to the analysis. Drop
    // them here — they still appear in fuzzing traces, reproducing the
    // coverage gap of §5.1.
    std::size_t contexts_before_filter = sliced.size();
    {
        std::vector<slicing::SlicedTransaction> kept;
        kept.reserve(sliced.size());
        for (auto& t : sliced) {
            if (t.trigger_kind == EventKind::kOnIntent &&
                !strings::starts_with(t.trigger, "unknown:")) {
                auto it = audit_index.find(t.dp_site);
                if (it != audit_index.end()) {
                    ++report.audit.dp_sites[it->second].dropped_intent_contexts;
                }
                continue;
            }
            kept.push_back(std::move(t));
        }
        sliced = std::move(kept);
    }
    // Count contexts only after the intent filter so the stat agrees with
    // the transactions actually reported; the filtered-out §5.1 coverage gap
    // is kept as its own stat.
    report.stats.contexts = sliced.size();
    report.stats.dropped_intent_contexts = contexts_before_filter - sliced.size();

    std::vector<std::optional<sig::TransactionSignature>> built(sliced.size());
    std::vector<char> build_capped(sliced.size(), 0);
    {
        obs::RunScope::Stage stage(run, sliced.size(), obs::RunScope::Phase::kSig);
        pool.for_each_index(sliced.size(), [&](std::size_t i) {
            stage.run(
                i,
                [&] {
                    sig::BuildRequest request;
                    request.dp_site = sliced[i].dp_site;
                    request.dp = sliced[i].dp;
                    request.context = sliced[i].context;
                    request.slice = &sliced[i].combined_slice;
                    request.max_steps = options_.max_sig_steps;
                    sig::BuildStats build_stats;
                    built[i] = builder.build(request, &build_stats);
                    build_capped[i] = build_stats.step_capped ? 1 : 0;
                    return build_stats.steps;
                },
                profile_key(sliced[i].dp_site));
        });
        std::size_t cut = stage.finish();
        // Contexts past the cut lose their signatures; their DP sites degrade
        // to the budget_exhausted outcome. A context *kept* but step-capped
        // (per-build cap) keeps its partial signature — its unknown leaves
        // carry the budget_exhausted reason — and flags its site too.
        for (std::size_t i = cut; i < sliced.size(); ++i) built[i].reset();
        for (std::size_t i = 0; i < sliced.size(); ++i) {
            if (i >= cut || build_capped[i]) {
                auto it = audit_index.find(sliced[i].dp_site);
                if (it != audit_index.end()) site_budget_hit[it->second] = 1;
            }
        }
    }
    // Keep the built transactions: compact them, in order, to the front of
    // `sliced`; signatures[i] belongs to sliced[i] from here on.
    std::vector<sig::TransactionSignature> signatures;
    for (std::size_t i = 0; i < sliced.size(); ++i) {
        if (!built[i]) continue;
        if (signatures.size() != i) sliced[signatures.size()] = std::move(sliced[i]);
        signatures.push_back(std::move(*built[i]));
    }
    sliced.resize(signatures.size());
    built.clear();

    for (const auto& t : sliced) {
        auto it = audit_index.find(t.dp_site);
        if (it != audit_index.end()) ++report.audit.dp_sites[it->second].built;
    }
    for (std::size_t i = 0; i < report.audit.dp_sites.size(); ++i) {
        DpSiteAudit& a = report.audit.dp_sites[i];
        a.contexts = site_total_contexts[i] - a.dropped_intent_contexts;
        if (site_budget_hit[i]) {
            // Budget exhaustion takes precedence: the site's results were
            // dropped or truncated, so any other outcome would be misleading.
            a.outcome = "budget_exhausted";
        } else if (site_total_contexts[i] == 0) {
            a.outcome = "empty_slice";
        } else if (a.contexts == 0) {
            a.outcome = "dropped_intent";
        } else if (a.built == 0) {
            a.outcome = "build_failed";
        } else if (a.built < a.contexts) {
            a.outcome = "partial";
        } else {
            a.outcome = "complete";
        }
    }
    end_phase("sig", sig_span);

    // Dependencies are computed over the sliced transactions, then remapped
    // onto the deduplicated report records.
    obs::Span txn_span("txn", "core");
    txn::DependencyAnalyzer deps(*program, slicer.callgraph(), model_, slicer.engine());
    // An exhausted budget skips dependency analysis outright: the surviving
    // transaction set is already partial, and the phase's taint runs would
    // charge nothing (keeping the degraded report cheap is the point).
    std::vector<txn::Dependency> raw_edges;
    if (!run.exhausted()) raw_edges = deps.analyze(sliced, &pool);
    end_phase("txn", txn_span);

    // Deduplicate: one report transaction per distinct signature. The merge
    // stays sequential (it fixes the report order), so it is keyed by hash —
    // an O(n²) scan here would become the serial bottleneck of the parallel
    // pipeline.
    obs::Span dedup_span("dedup", "core");
    std::vector<std::size_t> report_index_of(sliced.size());
    std::unordered_map<std::string, std::size_t> index_by_key;
    index_by_key.reserve(sliced.size());
    for (std::size_t bi = 0; bi < sliced.size(); ++bi) {
        const auto& signature = signatures[bi];
        const auto& source = sliced[bi];
        std::string uri_regex = signature.uri.to_regex();
        std::string body_regex = signature.has_body ? signature.body.to_regex() : "";
        std::string response_regex =
            signature.has_response_body ? signature.response_body.to_regex() : "";

        std::string key =
            transaction_key(signature, uri_regex, body_regex, response_regex,
                            source.dp_site);
        auto [slot, inserted] = index_by_key.emplace(std::move(key),
                                                     report.transactions.size());
        std::size_t found = slot->second;
        auto tags = deps.tags(source);
        if (inserted) {
            ReportTransaction record;
            record.signature = signature;
            record.uri_regex = std::move(uri_regex);
            record.body_regex = std::move(body_regex);
            record.response_regex = std::move(response_regex);
            record.dp_site = source.dp_site;
            record.triggers.push_back(source.trigger);
            record.trigger_kinds.push_back(source.trigger_kind);
            for (auto& c : tags.consumers) record.consumers.push_back(std::move(c));
            if (record.signature.consumer != semantics::ConsumerKind::kNone) {
                std::string name =
                    record.signature.consumer == semantics::ConsumerKind::kMediaPlayer
                        ? "media_player"
                        : "image_view";
                if (std::find(record.consumers.begin(), record.consumers.end(), name) ==
                    record.consumers.end()) {
                    record.consumers.push_back(std::move(name));
                }
            }
            record.sources = std::move(tags.sources);
            report.transactions.push_back(std::move(record));
        } else {
            ReportTransaction& record = report.transactions[found];
            record.context_count += 1;
            // Duplicate contexts still contribute their behavior tags: a
            // context reached from a different event may feed the request
            // from new origins or consume the response in a new sink.
            merge_unique(record.consumers, std::move(tags.consumers));
            merge_unique(record.sources, std::move(tags.sources));
            // triggers/trigger_kinds are parallel vectors; the same trigger
            // string can arrive with a different EventKind, so uniqueness is
            // over the (trigger, kind) pair or the two would desynchronize.
            bool seen = false;
            for (std::size_t ti = 0; ti < record.triggers.size(); ++ti) {
                if (record.triggers[ti] == source.trigger &&
                    record.trigger_kinds[ti] == source.trigger_kind) {
                    seen = true;
                    break;
                }
            }
            if (!seen) {
                record.triggers.push_back(source.trigger);
                record.trigger_kinds.push_back(source.trigger_kind);
            }
        }
        report_index_of[bi] = found;
    }

    std::unordered_set<txn::Dependency, txn::DependencyHash> seen_edges;
    seen_edges.reserve(raw_edges.size());
    for (const auto& edge : raw_edges) {
        txn::Dependency mapped = edge;
        mapped.from = report_index_of[edge.from];
        mapped.to = report_index_of[edge.to];
        if (mapped.from == mapped.to) continue;
        if (seen_edges.insert(mapped).second) {
            report.dependencies.push_back(std::move(mapped));
        }
    }
    end_phase("dedup", dedup_span);

    // Imprecision taxonomy over the final report: count unknown leaves by
    // reason in the signature trees actually emitted. Walking the report
    // (rather than reading counters) keeps the tally deterministic under
    // concurrent analyses and exact after deduplication.
    for (const auto& t : report.transactions) {
        auto tally = [&report](const sig::Sig& s) {
            report.audit.unknown_total +=
                s.count_unknown_reasons(report.audit.unknown_reasons);
        };
        tally(t.signature.uri);
        for (const auto& [hname, hvalue] : t.signature.headers) {
            tally(hname);
            tally(hvalue);
        }
        if (t.signature.has_body) tally(t.signature.body);
        if (t.signature.has_response_body) tally(t.signature.response_body);
    }
    std::sort(report.audit.unknown_reasons.begin(), report.audit.unknown_reasons.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    report.stats.budget_steps_used = run.steps_used();
    report.stats.budget_exhausted = run.exhausted();
    // Budget counters exist only when a budget is set: default runs emit no
    // new counter names, so the committed bench baseline stays valid.
    if (options_.max_total_steps != 0) {
        static obs::Counter& steps_used = obs::counter("budget.steps_used");
        steps_used.add(run.steps_used());
        if (run.exhausted()) {
            static obs::Counter& exhausted_apps = obs::counter("budget.exhausted_apps");
            exhausted_apps.add(1);
            log::warn().kv("max_total_steps", options_.max_total_steps)
                    .kv("steps_used", run.steps_used())
                << "analysis budget exhausted; report is partial";
        }
    }

    analyze_span.finish();
    report.stats.analysis_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    obs::RunScope::Ledger ledger = run.close();
    report.stats.counters = std::move(ledger.counters);
    report.audit.unmodeled_apis.assign(ledger.unmodeled_apis.begin(),
                                       ledger.unmodeled_apis.end());
    std::sort(report.audit.unmodeled_apis.begin(), report.audit.unmodeled_apis.end(),
              [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
              });
    return report;
}

Result<AnalysisReport> Analyzer::analyze_xapk(std::string_view xapk_text) const {
    obs::Span parse_span("xapk.parse", "xapk");
    auto program = xapk::parse_xapk(xapk_text);
    parse_span.finish();
    if (!program.ok()) return program.error();
    AnalysisReport report = analyze(program.value());
    // Fold the parse into the report's timing view so the phase table covers
    // the whole .xapk-to-report path.
    report.stats.phases.insert(report.stats.phases.begin(),
                               {"xapk.parse", parse_span.seconds()});
    report.stats.analysis_seconds += parse_span.seconds();
    return report;
}

std::vector<BatchItem> Analyzer::analyze_batch(std::vector<BatchInput> inputs) const {
    std::vector<BatchItem> items(inputs.size());
    if (inputs.empty()) return items;

    // Split the thread budget across apps first, then inside each app:
    // app-level parallelism scales better than intra-app (few DP sites per
    // app), and the per-slot item fill keeps the output in input order.
    unsigned jobs = support::resolve_jobs(options_.jobs);
    auto app_jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, inputs.size()));
    AnalyzerOptions inner_options = options_;
    inner_options.jobs = std::max(1u, jobs / std::max(1u, app_jobs));
    Analyzer inner(std::move(inner_options));

    // Per-app peak attribution needs non-overlapping measurement windows, so
    // it is only meaningful when apps run one at a time: heap bytes have no
    // run scope (per-app counters do, and stay exact at any jobs).
    namespace memtrack = support::memtrack;
    const bool track_per_app = app_jobs == 1 && memtrack::enabled();

    // One unit per input, folded in input order: everything an input
    // counts, its parse included, reaches the caller's scope.
    obs::RunScope run;
    obs::RunScope::Stage stage(run, inputs.size());
    std::atomic<std::size_t> done{0};
    auto analyze_input = [&](std::size_t i) {
        items[i].file = inputs[i].file;
        std::uint64_t mem_base = 0;
        if (track_per_app) {
            memtrack::reset_peak();
            mem_base = memtrack::live_bytes();
        }
        // The exception boundary of batch mode: without it the thread pool
        // rethrows the lowest-index error and one bad app kills the batch.
        try {
            auto result = inner.analyze_xapk(inputs[i].text);
            if (result.ok()) {
                items[i].report = std::move(result).take();
            } else {
                items[i].error = result.error().message;
            }
        } catch (const std::exception& e) {
            items[i].error = std::string("analysis failed: ") + e.what();
        } catch (...) {
            items[i].error = "analysis failed: unknown error";
        }
        // The text was only needed for the parse; release it now so the
        // batch's resident set shrinks as it drains instead of holding
        // every input until the end (workers each touch their own slot).
        std::string().swap(inputs[i].text);
        if (!items[i].ok() && items[i].error.empty()) {
            items[i].error = "analysis failed";
        }
        if (track_per_app && items[i].report) {
            std::uint64_t peak = memtrack::peak_bytes();
            items[i].report->stats.peak_bytes = peak > mem_base ? peak - mem_base : 0;
        }
        if (options_.batch_progress) {
            options_.batch_progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                                    inputs.size());
        }
    };
    support::parallel_for(app_jobs, inputs.size(), [&](std::size_t i) {
        stage.run(i, [&] { analyze_input(i); });
    });
    (void)stage.finish();
    for (const auto& item : items) {
        if (!item.ok()) {
            static obs::Counter& contained = obs::counter("isolation.contained_errors");
            contained.add(1);
        }
    }
    (void)run.close();
    return items;
}

obs::AppRunRecord telemetry_record(const BatchItem& item,
                                   const AnalyzerOptions& options,
                                   obs::AppRunRecord rec) {
    rec.file = item.file;
    if (!item.ok()) {
        rec.outcome = "error";
        rec.error = item.error;
        return rec;
    }
    const AnalysisReport& report = *item.report;
    if (report.stats.budget_exhausted) {
        rec.outcome = "budget_exhausted";
    } else {
        rec.outcome = "complete";
        for (const DpSiteAudit& a : report.audit.dp_sites) {
            if (a.outcome != "complete") {
                rec.outcome = "partial";
                break;
            }
        }
    }
    rec.wall_seconds = report.stats.analysis_seconds;
    rec.phases = report.stats.phases;
    rec.steps_used = report.stats.budget_steps_used;
    if (options.max_total_steps > 0) {
        rec.budget_fraction = static_cast<double>(report.stats.budget_steps_used) /
                              static_cast<double>(options.max_total_steps);
    }
    rec.peak_bytes = report.stats.peak_bytes;
    rec.transactions = report.transactions.size();
    rec.dependencies = report.dependencies.size();
    return rec;
}

// ------------------------------------------------------------ tabulation --

std::size_t AnalysisReport::count_method(http::Method method) const {
    return static_cast<std::size_t>(
        std::count_if(transactions.begin(), transactions.end(),
                      [method](const ReportTransaction& t) {
                          return t.signature.method == method;
                      }));
}

std::size_t AnalysisReport::count_body_kind(http::BodyKind kind, bool response) const {
    std::size_t n = 0;
    for (const auto& t : transactions) {
        if (response) {
            if (t.signature.has_response_body && t.signature.response_kind == kind) ++n;
        } else {
            if (t.signature.has_body && t.signature.body_kind == kind) ++n;
        }
    }
    return n;
}

std::size_t AnalysisReport::pair_count() const {
    return static_cast<std::size_t>(
        std::count_if(transactions.begin(), transactions.end(),
                      [](const ReportTransaction& t) { return t.is_paired(); }));
}

std::size_t AnalysisReport::request_payload_count() const {
    std::set<std::string> unique;
    for (const auto& t : transactions) {
        if (t.signature.has_body) unique.insert(t.body_regex);
    }
    return unique.size();
}

std::vector<std::string> AnalysisReport::keywords(bool response) const {
    std::set<std::string> unique;
    for (const auto& t : transactions) {
        if (response) {
            if (t.signature.has_response_body) {
                for (auto& k : t.signature.response_body.keywords()) {
                    unique.insert(std::move(k));
                }
            }
        } else {
            if (t.signature.has_body) {
                for (auto& k : t.signature.body.keywords()) unique.insert(std::move(k));
            }
            // Query-string keys embedded in the URI count as request keywords.
            for (auto& k : t.signature.uri.keywords()) unique.insert(std::move(k));
        }
    }
    return {unique.begin(), unique.end()};
}

std::string AnalysisReport::to_text() const {
    std::string out;
    out += "App: " + app_name + "\n";
    out += "Transactions: " + std::to_string(transactions.size()) +
           "  (pairs: " + std::to_string(pair_count()) + ")\n";
    for (std::size_t i = 0; i < transactions.size(); ++i) {
        const auto& t = transactions[i];
        out += "#" + std::to_string(i + 1) + " " +
               std::string(http::method_name(t.signature.method)) + " " + t.uri_regex +
               "\n";
        if (t.signature.has_body) {
            out += "    body[" + std::string(http::body_kind_name(t.signature.body_kind)) +
                   "]: " + t.body_regex + "\n";
        }
        for (const auto& [name, value] : t.signature.headers) {
            out += "    header: " + name.to_regex() + ": " + value.to_regex() + "\n";
        }
        if (t.signature.has_response_body) {
            out += "    response[" +
                   std::string(http::body_kind_name(t.signature.response_kind)) +
                   "]: " + t.response_regex + "\n";
        }
        if (!t.consumers.empty()) {
            out += "    consumed-by: " + strings::join(t.consumers, ", ") + "\n";
        }
        if (!t.sources.empty()) {
            out += "    originates-from: " + strings::join(t.sources, ", ") + "\n";
        }
        if (!t.triggers.empty()) {
            out += "    triggers: " + strings::join(t.triggers, ", ") + "\n";
        }
    }
    if (!dependencies.empty()) {
        out += "Dependency graph:\n";
        for (const auto& d : dependencies) {
            out += "  #" + std::to_string(d.from + 1) + "." +
                   (d.response_field.empty() ? "<body>" : d.response_field) + " -> #" +
                   std::to_string(d.to + 1) + "." + d.request_field;
            if (!d.via.empty()) out += " (via " + d.via + ")";
            out += "\n";
        }
    }
    return out;
}

text::Json AnalysisReport::to_json() const {
    text::Json doc = text::Json::object();
    doc.set("app", text::Json(app_name));
    text::Json txns = text::Json::array();
    for (const auto& t : transactions) {
        text::Json obj = text::Json::object();
        obj.set("method", text::Json(std::string(http::method_name(t.signature.method))));
        obj.set("uri", text::Json(t.uri_regex));
        if (t.signature.has_body) {
            obj.set("body_kind",
                    text::Json(std::string(http::body_kind_name(t.signature.body_kind))));
            obj.set("body", text::Json(t.body_regex));
        }
        if (t.signature.has_response_body) {
            obj.set("response_kind", text::Json(std::string(http::body_kind_name(
                                         t.signature.response_kind))));
            obj.set("response", text::Json(t.response_regex));
            obj.set("response_schema", t.signature.response_body.to_json_schema());
        }
        if (!t.consumers.empty()) {
            text::Json arr = text::Json::array();
            for (const auto& c : t.consumers) arr.push_back(text::Json(c));
            obj.set("consumers", std::move(arr));
        }
        text::Json prov = text::Json::object();
        prov.set("uri", t.signature.uri.to_provenance_json());
        if (!t.signature.headers.empty()) {
            text::Json headers = text::Json::array();
            for (const auto& [hname, hvalue] : t.signature.headers) {
                text::Json h = text::Json::object();
                h.set("name", hname.to_provenance_json());
                h.set("value", hvalue.to_provenance_json());
                headers.push_back(std::move(h));
            }
            prov.set("headers", std::move(headers));
        }
        if (t.signature.has_body) {
            prov.set("body", t.signature.body.to_provenance_json());
        }
        if (t.signature.has_response_body) {
            prov.set("response", t.signature.response_body.to_provenance_json());
        }
        obj.set("provenance", std::move(prov));
        txns.push_back(std::move(obj));
    }
    doc.set("transactions", std::move(txns));
    text::Json edges = text::Json::array();
    for (const auto& d : dependencies) {
        text::Json obj = text::Json::object();
        obj.set("from", text::Json(static_cast<std::int64_t>(d.from)));
        obj.set("response_field", text::Json(d.response_field));
        obj.set("to", text::Json(static_cast<std::int64_t>(d.to)));
        obj.set("request_field", text::Json(d.request_field));
        if (!d.via.empty()) obj.set("via", text::Json(d.via));
        edges.push_back(std::move(obj));
    }
    doc.set("dependencies", std::move(edges));

    text::Json metrics = text::Json::object();
    metrics.set("analysis_seconds", text::Json(stats.analysis_seconds));
    metrics.set("total_statements",
                text::Json(static_cast<std::int64_t>(stats.total_statements)));
    metrics.set("slice_statements",
                text::Json(static_cast<std::int64_t>(stats.slice_statements)));
    metrics.set("dp_sites", text::Json(static_cast<std::int64_t>(stats.dp_sites)));
    metrics.set("contexts", text::Json(static_cast<std::int64_t>(stats.contexts)));
    metrics.set("dropped_intent_contexts",
                text::Json(static_cast<std::int64_t>(stats.dropped_intent_contexts)));
    metrics.set("budget_steps_used",
                text::Json(static_cast<std::int64_t>(stats.budget_steps_used)));
    metrics.set("budget_exhausted", text::Json(stats.budget_exhausted));
    text::Json phases = text::Json::object();
    for (const auto& p : stats.phases) phases.set(p.name, text::Json(p.seconds));
    metrics.set("phases", std::move(phases));
    text::Json counter_obj = text::Json::object();
    for (const auto& [name, value] : stats.counters) {
        counter_obj.set(name, text::Json(static_cast<std::int64_t>(value)));
    }
    metrics.set("counters", std::move(counter_obj));
    doc.set("metrics", std::move(metrics));
    doc.set("audit", audit.to_json());
    return doc;
}

// ----------------------------------------------------------------- audit --

namespace {

const char* value_type_name(sig::Sig::ValueType type) {
    switch (type) {
        case sig::Sig::ValueType::kString: return "string";
        case sig::Sig::ValueType::kInt: return "int";
        case sig::Sig::ValueType::kBool: return "bool";
        case sig::Sig::ValueType::kAny: return "any";
    }
    return "any";
}

/// Indented provenance-tree rendering of one signature (--explain).
void append_sig_tree(std::string& out, const sig::Sig& s, int indent) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    auto origin_suffix = [&s]() {
        return s.origin.empty() ? std::string() : "  <- " + s.origin;
    };
    switch (s.kind) {
        case sig::Sig::Kind::kConst:
            out += "const \"" + s.text + "\"" + origin_suffix() + "\n";
            return;
        case sig::Sig::Kind::kUnknown:
            out += std::string("unknown[") + value_type_name(s.value_type) + "]";
            if (s.reason != sig::UnknownReason::kUnspecified) {
                out += std::string(" reason=") + sig::unknown_reason_name(s.reason);
            }
            out += origin_suffix() + "\n";
            return;
        case sig::Sig::Kind::kConcat: out += "concat" + origin_suffix() + "\n"; break;
        case sig::Sig::Kind::kAlt: out += "alt" + origin_suffix() + "\n"; break;
        case sig::Sig::Kind::kRep: out += "rep" + origin_suffix() + "\n"; break;
        case sig::Sig::Kind::kJsonObject: {
            out += "json_object" + origin_suffix() + "\n";
            for (const auto& [key, value] : s.members) {
                out.append(static_cast<std::size_t>(indent + 1) * 2, ' ');
                out += "\"" + key + "\":\n";
                append_sig_tree(out, value, indent + 2);
            }
            return;
        }
        case sig::Sig::Kind::kJsonArray:
            out += std::string("json_array") + (s.repeated ? " repeated" : "") +
                   origin_suffix() + "\n";
            break;
        case sig::Sig::Kind::kXmlElement: {
            out += "xml <" + s.text + ">" + origin_suffix() + "\n";
            for (const auto& [name, value] : s.members) {
                out.append(static_cast<std::size_t>(indent + 1) * 2, ' ');
                out += "@" + name + ":\n";
                append_sig_tree(out, value, indent + 2);
            }
            for (const auto& child : s.children) append_sig_tree(out, child, indent + 1);
            for (const auto& txt : s.xml_text) append_sig_tree(out, txt, indent + 1);
            return;
        }
    }
    for (const auto& child : s.children) append_sig_tree(out, child, indent + 1);
}

std::string site_label(const StmtRef& site) {
    return std::to_string(site.method_index) + ":" + std::to_string(site.block) + ":" +
           std::to_string(site.index);
}

}  // namespace

std::size_t AnalysisAudit::count_outcome(std::string_view outcome) const {
    return static_cast<std::size_t>(
        std::count_if(dp_sites.begin(), dp_sites.end(),
                      [outcome](const DpSiteAudit& a) { return a.outcome == outcome; }));
}

text::Json AnalysisAudit::to_json() const {
    text::Json doc = text::Json::object();
    doc.set("unknown_total", text::Json(static_cast<std::int64_t>(unknown_total)));
    text::Json reasons = text::Json::object();
    for (const auto& [name, count] : unknown_reasons) {
        reasons.set(name, text::Json(static_cast<std::int64_t>(count)));
    }
    doc.set("unknown_reasons", std::move(reasons));
    text::Json sites = text::Json::array();
    for (const auto& a : dp_sites) {
        text::Json obj = text::Json::object();
        obj.set("dp", text::Json(a.dp));
        obj.set("location", text::Json(a.location));
        obj.set("site", text::Json(site_label(a.site)));
        obj.set("outcome", text::Json(a.outcome));
        obj.set("contexts", text::Json(static_cast<std::int64_t>(a.contexts)));
        obj.set("dropped_intent_contexts",
                text::Json(static_cast<std::int64_t>(a.dropped_intent_contexts)));
        obj.set("built", text::Json(static_cast<std::int64_t>(a.built)));
        sites.push_back(std::move(obj));
    }
    doc.set("dp_sites", std::move(sites));
    text::Json apis = text::Json::array();
    for (const auto& [name, calls] : unmodeled_apis) {
        text::Json obj = text::Json::object();
        obj.set("api", text::Json(name));
        obj.set("calls", text::Json(static_cast<std::int64_t>(calls)));
        apis.push_back(std::move(obj));
    }
    doc.set("unmodeled_apis", std::move(apis));
    return doc;
}

std::string AnalysisAudit::to_text() const {
    std::string out = "Audit: analysis quality\n";
    out += "DP sites: " + std::to_string(dp_sites.size());
    const char* kOutcomes[] = {"complete",       "partial",     "build_failed",
                               "dropped_intent", "empty_slice", "budget_exhausted"};
    std::string breakdown;
    for (const char* outcome : kOutcomes) {
        std::size_t n = count_outcome(outcome);
        if (n == 0) continue;
        if (!breakdown.empty()) breakdown += ", ";
        breakdown += std::string(outcome) + " " + std::to_string(n);
    }
    if (!breakdown.empty()) out += "  (" + breakdown + ")";
    out += "\n";
    for (const auto& a : dp_sites) {
        out += "  " + a.dp + " at " + a.location + ": " + a.outcome +
               " (contexts=" + std::to_string(a.contexts) +
               ", built=" + std::to_string(a.built);
        if (a.dropped_intent_contexts > 0) {
            out += ", dropped_intent=" + std::to_string(a.dropped_intent_contexts);
        }
        out += ")\n";
    }
    out += "Unknown signature segments: " + std::to_string(unknown_total) + "\n";
    std::size_t reason_width = 0;
    for (const auto& [name, count] : unknown_reasons) {
        reason_width = std::max(reason_width, name.size());
    }
    for (const auto& [name, count] : unknown_reasons) {
        out += "  " + name + std::string(reason_width - name.size() + 2, ' ') +
               std::to_string(count) + "\n";
    }
    out += "Top unmodeled APIs:\n";
    if (unmodeled_apis.empty()) {
        out += "  (none)\n";
        return out;
    }
    constexpr std::size_t kTop = 20;
    std::size_t shown = std::min(unmodeled_apis.size(), kTop);
    std::size_t api_width = 0;
    for (std::size_t i = 0; i < shown; ++i) {
        api_width = std::max(api_width, unmodeled_apis[i].first.size());
    }
    for (std::size_t i = 0; i < shown; ++i) {
        const auto& [name, calls] = unmodeled_apis[i];
        out += "  " + name + std::string(api_width - name.size() + 2, ' ') +
               std::to_string(calls) + "\n";
    }
    if (unmodeled_apis.size() > kTop) {
        out += "  (+" + std::to_string(unmodeled_apis.size() - kTop) + " more)\n";
    }
    return out;
}

std::string AnalysisReport::explain(std::size_t index) const {
    if (index >= transactions.size()) return {};
    const ReportTransaction& t = transactions[index];
    std::string out = "Transaction #" + std::to_string(index + 1) + ": " +
                      std::string(http::method_name(t.signature.method)) + " " +
                      t.uri_regex + "\n";
    out += "uri:\n";
    append_sig_tree(out, t.signature.uri, 1);
    for (const auto& [hname, hvalue] : t.signature.headers) {
        out += "header " + hname.to_regex() + ":\n";
        append_sig_tree(out, hvalue, 1);
    }
    if (t.signature.has_body) {
        out += "body[" + std::string(http::body_kind_name(t.signature.body_kind)) + "]:\n";
        append_sig_tree(out, t.signature.body, 1);
    }
    if (t.signature.has_response_body) {
        out += "response[" +
               std::string(http::body_kind_name(t.signature.response_kind)) + "]:\n";
        append_sig_tree(out, t.signature.response_body, 1);
    }
    return out;
}

}  // namespace extractocol::core

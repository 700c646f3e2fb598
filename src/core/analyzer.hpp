// extractocol::core — the public facade. Give it an app (an xir::Program or
// .xapk text) and it runs the full pipeline of Fig. 2:
//
//   program slicing  ->  signature extraction  ->  transaction
//   (src/slicing)        (src/sig)                 reconstruction +
//                                                  dependency analysis
//                                                  (src/txn)
//
// and returns an AnalysisReport: the deduplicated HTTP transactions with
// regex signatures, their pairings, the inter-transaction dependency graph,
// and behavior tags.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/message.hpp"
#include "obs/telemetry.hpp"
#include "semantics/model.hpp"
#include "sig/builder.hpp"
#include "support/result.hpp"
#include "text/json.hpp"
#include "txn/dependency.hpp"
#include "xir/ir.hpp"

namespace extractocol::core {

/// Analyzer implementation version, embedded in every persistent cache
/// entry (src/cache). Entries written by a different version are cleanly
/// invalidated instead of served — bump this whenever a pipeline or report
/// change can alter output bytes for the same input.
inline constexpr std::string_view kAnalyzerVersion = "10";

struct ReportTransaction {
    sig::TransactionSignature signature;
    /// Cached regex renderings.
    std::string uri_regex;
    std::string body_regex;
    std::string response_regex;

    /// Events that can trigger this transaction.
    std::vector<std::string> triggers;
    std::vector<xir::EventKind> trigger_kinds;
    /// Behavior tags (§2): consumption sinks / data origins.
    std::vector<std::string> consumers;
    std::vector<std::string> sources;
    /// Demarcation-point site (first occurrence).
    xir::StmtRef dp_site;
    /// Number of calling contexts merged into this record.
    std::size_t context_count = 1;

    [[nodiscard]] bool is_paired() const { return signature.has_response_body; }
};

struct AnalysisStats {
    std::size_t total_statements = 0;
    std::size_t slice_statements = 0;
    std::size_t dp_sites = 0;
    /// Calling contexts that survive the intent filter — the contexts the
    /// report's transactions are built from.
    std::size_t contexts = 0;
    /// Intent-only contexts dropped before signature extraction (the §5.1
    /// coverage gap: Extractocol does not model Android intents).
    std::size_t dropped_intent_contexts = 0;
    double analysis_seconds = 0;
    /// Per-phase wall times in pipeline order. `xapk.parse` is present only
    /// when the analysis started from .xapk text. The remaining phases
    /// partition analyze(), so their sum tracks `analysis_seconds`.
    std::vector<obs::PhaseTiming> phases;
    /// Counters bumped by this run (named per DESIGN.md "Observability"),
    /// name-sorted, zeros dropped. Collected by the run's obs::RunScope, so
    /// exact under any concurrency and identical for every --jobs value.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /// Abstract analysis steps charged against the per-app budget (taint
    /// worklist iterations + signature-builder statement executions). Folded
    /// in site order, so identical for every --jobs value.
    std::size_t budget_steps_used = 0;
    /// True when AnalyzerOptions::max_total_steps ran out and the report is
    /// the degraded partial (budget_exhausted outcomes in the audit).
    bool budget_exhausted = false;
    /// Peak tracked heap bytes attributed to this app's analysis. Filled by
    /// analyze_batch only when support::memtrack is enabled AND apps run
    /// sequentially (app-level concurrency would overlap the peak windows);
    /// 0 otherwise.
    std::uint64_t peak_bytes = 0;

    [[nodiscard]] double phase_seconds_total() const {
        double total = 0;
        for (const auto& p : phases) total += p.seconds;
        return total;
    }

    [[nodiscard]] double slice_fraction() const {
        return total_statements == 0
                   ? 0.0
                   : static_cast<double>(slice_statements) /
                         static_cast<double>(total_statements);
    }
};

/// Terminal outcome of one demarcation-point site (coverage audit):
///   complete         — every surviving context produced a signature;
///   partial          — some contexts built, some did not;
///   build_failed     — contexts survived the filters but none built;
///   dropped_intent   — every context arrived via an unmodeled intent (§5.1);
///   empty_slice      — slicing found no calling context at all;
///   budget_exhausted — the per-app step budget ran out at or before this
///                      site (its results were dropped or truncated).
struct DpSiteAudit {
    xir::StmtRef site;
    std::string dp;        // demarcation API, "Cls.method"
    std::string location;  // containing app method, "Cls.method"
    std::string outcome;
    std::size_t contexts = 0;  // contexts surviving the intent filter
    std::size_t dropped_intent_contexts = 0;
    std::size_t built = 0;  // contexts that produced a signature
};

/// Analysis-quality report (`--audit`): how much of each signature is
/// wildcard and why, how every DP site terminated, and which APIs the
/// semantic model is missing. Deterministic for any --jobs value.
struct AnalysisAudit {
    /// Unknown-leaf counts by reason over the report's signature trees,
    /// sorted by reason name.
    std::vector<std::pair<std::string, std::size_t>> unknown_reasons;
    std::size_t unknown_total = 0;
    /// Per-site outcomes, in demarcation-site order.
    std::vector<DpSiteAudit> dp_sites;
    /// Calls to APIs with no semantics/model entry observed during this run
    /// ("Cls.method" -> calls), count descending then name ascending. The
    /// run's obs::RunScope tallies them; they are never registry metrics.
    std::vector<std::pair<std::string, std::uint64_t>> unmodeled_apis;

    [[nodiscard]] std::size_t count_outcome(std::string_view outcome) const;
    [[nodiscard]] text::Json to_json() const;
    /// Human-readable quality report (the `--audit` CLI output).
    [[nodiscard]] std::string to_text() const;
};

struct AnalysisReport {
    std::string app_name;
    std::vector<ReportTransaction> transactions;
    std::vector<txn::Dependency> dependencies;  // indices into `transactions`
    AnalysisStats stats;
    AnalysisAudit audit;

    // ----------------------------------------------------- tabulations --
    [[nodiscard]] std::size_t count_method(http::Method method) const;
    [[nodiscard]] std::size_t count_body_kind(http::BodyKind kind, bool response) const;
    /// Transactions whose response body is processed by the app (Table 1's
    /// #Pair column).
    [[nodiscard]] std::size_t pair_count() const;
    /// Unique request body / query-string signatures.
    [[nodiscard]] std::size_t request_payload_count() const;
    /// Constant keywords across request (or response) signatures (Fig. 7).
    [[nodiscard]] std::vector<std::string> keywords(bool response) const;

    /// Paper-style text rendering (transaction table + dependency graph).
    [[nodiscard]] std::string to_text() const;
    [[nodiscard]] text::Json to_json() const;

    /// Provenance tree of one transaction (0-based index): every signature
    /// segment with its origin tag and — for unknowns — the reason code.
    /// The `--explain <id>` CLI output.
    [[nodiscard]] std::string explain(std::size_t index) const;
};

struct AnalyzerOptions {
    /// §3.4 async-event heuristic; the paper disables it for open-source
    /// apps and enables it for closed-source apps (§5.1).
    bool async_heuristic = true;
    /// Attempt semantic-model de-obfuscation of renamed bundled libraries.
    bool deobfuscate_libraries = true;
    /// Async-chain depth (paper default: one hop, §4). Raising it implements
    /// the "multiple iterations" extension the paper proposes.
    unsigned max_async_hops = 1;
    /// Restrict analysis to DPs inside classes with this prefix (the §5.3
    /// Kayak study scopes to "com.kayak"). Empty = whole app.
    std::string class_scope;
    /// Worker threads for the data-parallel stages (per-site slicing and
    /// per-transaction signature building). 1 = sequential, 0 = one per
    /// hardware thread. Reports are byte-identical for every value: workers
    /// fill pre-sized slots by index and the merge stays sequential.
    unsigned jobs = 1;
    /// Per-app analysis budget in abstract steps, shared across slicing,
    /// taint, and signature building (0 = unlimited). Exhaustion degrades
    /// the app to a partial report (budget_exhausted audit outcomes), never
    /// an abort, and the cut point is identical for every `jobs` value.
    std::size_t max_total_steps = 0;
    /// Per-taint-run worklist cap (safety valve; 0 = unlimited).
    std::size_t max_taint_steps = 2'000'000;
    /// Per-signature-build executed-statement cap (safety valve; 0 =
    /// unlimited). A capped build keeps its partial signature with residual
    /// unknowns tagged budget_exhausted.
    std::size_t max_sig_steps = 1'000'000;
    /// Invoked by analyze_batch each time an input finishes, with the number
    /// completed so far and the batch size. Called from whichever worker
    /// finished the input, so the callback must be thread-safe when jobs > 1
    /// (the CLI's --progress line serializes with a mutex). Null disables.
    std::function<void(std::size_t done, std::size_t total)> batch_progress;
};

/// One input to analyze_batch: a file label (echoed into per-app report /
/// error entries) plus its serialized .xapk text.
struct BatchInput {
    std::string file;
    std::string text;
};

/// One per-input outcome of analyze_batch: either a report or a contained
/// per-app failure — parse errors and escaped analysis exceptions land here
/// instead of killing the batch.
struct BatchItem {
    std::string file;
    std::optional<AnalysisReport> report;
    std::string error;  // non-empty iff `report` is absent

    [[nodiscard]] bool ok() const { return report.has_value(); }
};

/// Fills the analysis fields of `record` from one batch outcome: outcome
/// classification (error > budget_exhausted > partial > complete, where
/// "partial" means any DP site terminated short of "complete"), per-phase
/// wall times, budget consumption (fraction of `options.max_total_steps`; 0
/// when unlimited), peak memory, and result sizes. The bridge between
/// core's batch results and the obs-layer record: the CLI starts from an
/// empty record, the daemon's miss path passes its request record in.
[[nodiscard]] obs::AppRunRecord telemetry_record(const BatchItem& item,
                                                const AnalyzerOptions& options,
                                                obs::AppRunRecord record = {});

class Analyzer {
public:
    explicit Analyzer(AnalyzerOptions options = {});

    /// Runs the full pipeline on a program.
    [[nodiscard]] AnalysisReport analyze(const xir::Program& program) const;

    /// Parses .xapk text and analyzes it (the binary-only entry point).
    [[nodiscard]] Result<AnalysisReport> analyze_xapk(std::string_view xapk_text) const;

    /// Analyzes every input with per-app fault isolation: a parse error or an
    /// exception thrown mid-analysis becomes that input's BatchItem::error
    /// while every other input still reports. Inputs are analyzed
    /// concurrently (`jobs` split across apps, remainder inside each app) and
    /// results are returned in input order — the item list is byte-identical
    /// for every `jobs` value. One RunScope covers the batch, with one unit
    /// per input folded in input order, so every counter the inputs bump
    /// (their parses included) reaches the caller's scope.
    ///
    /// Takes the inputs by value: each input's serialized text is released
    /// as soon as that app has been analyzed, so a large batch's peak memory
    /// holds only the not-yet-processed texts instead of all of them.
    [[nodiscard]] std::vector<BatchItem> analyze_batch(
        std::vector<BatchInput> inputs) const;

    [[nodiscard]] const semantics::SemanticModel& model() const { return model_; }

private:
    AnalyzerOptions options_;
    semantics::SemanticModel model_;
};

}  // namespace extractocol::core

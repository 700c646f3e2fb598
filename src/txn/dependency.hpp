// Message dependency analysis (§3.3): request-response pairing falls out of
// the (DP, calling-context) transaction identity established by the slicer
// (the disjoint-sub-slice construction of Fig. 5); this module infers the
// *inter-transaction* dependencies — which request fields originate from
// which earlier response fields — at field granularity, through direct data
// flow, heap objects, statics, SQLite tables, and preferences.
//
// Each response field tap runs one forward taint. The taps are probed in
// (transaction, tap) order on the analysis pool, slicing and signature
// building being the other parallel stages (DESIGN.md §8). A probe
// checks only the request transactions whose slice statements or DP site
// its tainted calls hit, looked up in a statement index built once per
// analyze() call; a flow that crossed a global channel checks them all.
// Each probe writes its edges into its own slot and counts into its own
// obs::RunScope stage unit, in an unlimited scope nested in the caller's;
// both fold in probe order, edges deduplicated by DependencyHash, so the
// edges and counters are the same at any thread count.
//
// It also characterizes behavior: how response data is consumed (media
// player / image view / file / DB) and where request data originates
// (microphone / location / user input) — §2's application-aware knobs.
#pragma once

#include <string>
#include <vector>

#include "semantics/model.hpp"
#include "support/hash.hpp"
#include "slicing/slicer.hpp"
#include "taint/engine.hpp"
#include "xir/callgraph.hpp"

namespace extractocol::support {
class ThreadPool;
}  // namespace extractocol::support

namespace extractocol::txn {

/// One field-granular dependency edge: `response_field` of transaction
/// `from` feeds `request_field` of transaction `to`.
struct Dependency {
    std::size_t from = 0;  // index into the analyzed transaction vector
    std::size_t to = 0;
    /// Dot-joined JSON path of the response field ("" = whole body).
    std::string response_field;
    /// Where it lands: "uri", "body:<key>", "query:<key>", "header:<name>".
    std::string request_field;
    /// Mediating channel when indirect: "static:...", "db:...", "prefs:...";
    /// empty for direct flow.
    std::string via;

    bool operator==(const Dependency&) const = default;
};

/// Stable hash over every field, for the edge dedup sets: the probe fold
/// here and the post-remap dedup in core::Analyzer.
struct DependencyHash {
    std::size_t operator()(const Dependency& d) const {
        std::size_t seed = 0;
        hash_combine(seed, d.from);
        hash_combine(seed, d.to);
        hash_combine(seed, d.response_field);
        hash_combine(seed, d.request_field);
        hash_combine(seed, d.via);
        return seed;
    }
};

struct BehaviorTags {
    /// Consumption sinks the response data reaches ("media_player", ...).
    std::vector<std::string> consumers;
    /// Origins feeding the request ("user_input", "location", ...).
    std::vector<std::string> sources;
};

class DependencyAnalyzer {
public:
    DependencyAnalyzer(const xir::Program& program, const xir::CallGraph& callgraph,
                       const semantics::SemanticModel& model, taint::TaintEngine& engine);

    /// Infers all dependency edges among the given transactions. The
    /// response taps run on `pool` when one is given, inline otherwise;
    /// the edges and counters are the same either way.
    [[nodiscard]] std::vector<Dependency> analyze(
        const std::vector<slicing::SlicedTransaction>& txns,
        support::ThreadPool* pool = nullptr);

    /// Behavior characterization for one transaction.
    [[nodiscard]] BehaviorTags tags(const slicing::SlicedTransaction& txn) const;

private:
    struct FieldTap {
        xir::StmtRef stmt;          // the getter statement
        xir::LocalId value = 0;     // its destination local
        std::string field;          // response field name
    };

    [[nodiscard]] std::vector<FieldTap> response_taps(
        const slicing::SlicedTransaction& txn) const;
    /// Tag of the XML element held in `element_local` (def-chain lookup).
    [[nodiscard]] const std::string* element_tag_of(std::uint32_t method_index,
                                                    xir::LocalId element_local) const;

    const xir::Program* program_;
    const xir::CallGraph* callgraph_;
    const semantics::SemanticModel* model_;
    taint::TaintEngine* engine_;
};

}  // namespace extractocol::txn

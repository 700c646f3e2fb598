// Network-aware program slicing (§3.1): finds demarcation points, derives
// the transaction set (one per DP site × calling context — the paper's
// disjoint sub-slices, Fig. 5), and computes request/response slices via
// bidirectional taint propagation, with object-aware augmentation and the
// async-event heuristic.
// A slice is a sorted, duplicate-free statement vector, stored once
// (DESIGN.md §13): request/response slices are the taint results'
// `statements`; the combined slice is built once per DP site.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "semantics/model.hpp"
#include "taint/engine.hpp"
#include "xir/callgraph.hpp"
#include "xir/ir.hpp"

namespace extractocol::slicing {

/// One reconstructed transaction skeleton: a demarcation-point occurrence
/// reached through one calling context, with its slices.
struct SlicedTransaction {
    xir::StmtRef dp_site;
    const semantics::DemarcationSpec* dp = nullptr;
    std::vector<xir::CallEdge> context;
    /// Event that triggers this transaction (label of the context root).
    std::string trigger;
    xir::EventKind trigger_kind = xir::EventKind::kOnClick;

    /// request ∪ response ∪ object-aware augmentation ∪ {dp_site}, sorted
    /// and duplicate-free; what the signature builder interprets.
    std::vector<xir::StmtRef> combined_slice;

    /// The request (backward) and response (forward) taint runs: their
    /// `statements` are the two slices; txn reads their globals and events.
    taint::TaintResult request_taint;
    taint::TaintResult response_taint;
};

struct SlicerOptions {
    /// §3.4 async-event heuristic (cross-event flows through statics/db/
    /// prefs). The paper disables it for open-source apps (§5.1).
    bool async_heuristic = true;
    /// Cap on calling contexts explored per DP site.
    std::size_t max_contexts = 64;
    /// Async-chain depth (taint::EngineOptions::max_global_hops). The paper's
    /// implementation stops at one hop (§4); higher values implement its
    /// "multiple iterations" extension.
    unsigned max_async_hops = 1;
    /// Per-taint-run worklist cap (taint::EngineOptions::max_steps);
    /// 0 = unlimited.
    std::size_t max_taint_steps = 2'000'000;
};

class Slicer {
public:
    Slicer(const xir::Program& program, const semantics::SemanticModel& model,
           SlicerOptions options = {});

    /// All demarcation-point statements in the program.
    [[nodiscard]] std::vector<xir::StmtRef> demarcation_sites() const;

    /// Slices every transaction in the program.
    [[nodiscard]] std::vector<SlicedTransaction> slice_all();

    /// Slices one DP site (all contexts). When `steps_used` is non-null it
    /// receives the total taint-worklist iterations the site consumed (the
    /// deterministic cost the budget layer charges).
    [[nodiscard]] std::vector<SlicedTransaction> slice_site(
        const xir::StmtRef& site, std::size_t* steps_used = nullptr);

    [[nodiscard]] const xir::CallGraph& callgraph() const { return *callgraph_; }
    [[nodiscard]] const xir::Program& program() const { return *program_; }
    [[nodiscard]] taint::TaintEngine& engine() { return *engine_; }

    /// Fraction of all program statements covered by the union of all slices
    /// (the Fig. 3 "6.3% of all code" metric).
    [[nodiscard]] static double slice_fraction(const xir::Program& program,
                                               const std::vector<SlicedTransaction>& txns);

private:
    void resolve_trigger(SlicedTransaction& txn) const;
    std::vector<xir::StmtRef> augment(const std::vector<xir::StmtRef>& response_slice,
                                      std::size_t& steps_used);

    const xir::Program* program_;
    const semantics::SemanticModel* model_;
    SlicerOptions options_;
    std::unique_ptr<xir::CallGraph> callgraph_;
    std::unique_ptr<taint::TaintEngine> engine_;
};

}  // namespace extractocol::slicing

// The signature builder (§3.2): a flow-sensitive abstract interpretation of
// the program slice over the SigValue domain, walking basic blocks in
// topological (reverse post-) order, merging signature databases at
// confluence points with disjunction, and widening loop-variant string /
// array growth with rep{} at loop boundaries.
//
// One build() call reconstructs one transaction: it interprets the calling
// context from its event-handler root down to the demarcation point,
// captures the request object's state there (method, URI, headers, body),
// plants a demand-tree root for the response, and keeps interpreting to
// discover the response signature (including async listener delivery).
// Before the walk, a producer pre-pass interprets every other event handler
// from which the call graph reaches a method holding a slice statement
// (§3.1's async heuristic). A build's cost follows its slice: the handlers
// are resolved once per builder, the producers are found by one reverse
// BFS over the slice methods' callers, and no per-build state is sized by
// the program. The slice is read in place: membership is a binary search
// in the sorted vector the slicer built.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "semantics/model.hpp"
#include "sig/sig.hpp"
#include "sig/value.hpp"
#include "xir/callgraph.hpp"
#include "xir/ir.hpp"

namespace extractocol::sig {

struct TransactionSignature {
    http::Method method = http::Method::kGet;
    Sig uri;
    std::vector<std::pair<Sig, Sig>> headers;

    bool has_body = false;
    Sig body;
    http::BodyKind body_kind = http::BodyKind::kNone;

    bool has_response_body = false;
    Sig response_body;
    http::BodyKind response_kind = http::BodyKind::kNone;

    std::string library;  // DP provenance ("org.apache.http", "okhttp3"...)
    semantics::ConsumerKind consumer = semantics::ConsumerKind::kNone;
    /// Resource-table ids whose values feed the request (TED's api-key).
    std::vector<std::string> resource_refs;

    [[nodiscard]] std::string uri_regex() const { return uri.to_regex(); }
};

struct BuildRequest {
    xir::StmtRef dp_site;
    const semantics::DemarcationSpec* dp = nullptr;
    /// Calling context: chain of call edges from an event-handler root to the
    /// method containing the DP (empty when the DP sits in the root itself).
    std::vector<xir::CallEdge> context;
    /// Statements the interpreter may execute: the transaction's combined
    /// slice, sorted and duplicate-free. Null = interpret all.
    const std::vector<xir::StmtRef>* slice = nullptr;
    /// Cap on executed statements (0 = unlimited). When hit, the build stops
    /// early and residual unknown leaves are tagged kBudgetExhausted.
    std::size_t max_steps = 0;
};

/// Deterministic cost of one build() call (the budget layer's currency).
struct BuildStats {
    std::size_t steps = 0;
    bool step_capped = false;
};

class SignatureBuilder {
public:
    SignatureBuilder(const xir::Program& program, const xir::CallGraph& callgraph,
                     const semantics::SemanticModel& model);

    /// Builds the signature for one transaction context. Returns nullopt if
    /// the DP was never reached along the given context. `stats`, when
    /// non-null, receives the executed-statement count and whether the
    /// BuildRequest::max_steps cap fired.
    [[nodiscard]] std::optional<TransactionSignature> build(const BuildRequest& request,
                                                            BuildStats* stats = nullptr);

private:
    const xir::Program* program_;
    const xir::CallGraph* callgraph_;
    const semantics::SemanticModel* model_;
    /// Event-handler method indices in event order, resolved once: the
    /// candidates of every build's producer pre-pass.
    std::vector<std::uint32_t> handlers_;
};

}  // namespace extractocol::sig

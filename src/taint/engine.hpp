// Bi-directional inter-procedural taint engine (§3.1).
//
// Forward propagation follows FlowDroid-style rules (assignments propagate
// RHS->LHS, calls bind actuals to formals, returns flow back to call sites,
// API calls apply semantic-model flow rules). Backward propagation applies
// the *inverted* rules the paper describes: "a tainted LHS taints RHS in an
// assignment statement, and the taint information of callee's arguments is
// propagated to caller's arguments", walking the CFG in reverse.
//
// The engine is flow-sensitive inside methods, context-insensitive across
// them (summary facts merge over call sites), field-sensitive to depth k,
// and treats three heap channels specially so that implicit data flows
// across asynchronous events are found (§3.4):
//   * static fields       — "static:Cls.field" global locations
//   * SQLite databases    — "db:table.column" global locations
//   * SharedPreferences   — "prefs:key" global locations
// Cross-event propagation through these channels is the async-event
// heuristic; it can be disabled (the paper disables it for open-source apps
// in §5.1).
//
// Memory layout (DESIGN.md §13): taint facts are POD AccessPaths over
// interned symbols; per-run fact sets live in a bump arena. A run costs
// what it touches: no per-run allocation is proportional to program size.
// Whole-program indices (flat block/statement numbering, CSR successor and
// predecessor lists, event-root reachability, global-channel accessors)
// are built once per engine; a run creates a method's state — fact sets,
// summaries, queued-block and slice-statement bitsets — the first time a
// seed, call edge, return, caller injection or global reader reaches it,
// and emits its slice as one sorted statement vector.
#pragma once

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "semantics/model.hpp"
#include "support/arena.hpp"
#include "support/bitset.hpp"
#include "support/intern.hpp"
#include "taint/access_path.hpp"
#include "xir/callgraph.hpp"
#include "xir/ir.hpp"

namespace extractocol::obs {
class Counter;
class Histogram;
}  // namespace extractocol::obs

namespace extractocol::taint {

enum class Direction { kForward, kBackward };

struct TaintSeed {
    xir::StmtRef stmt;
    /// Forward: tainted immediately *after* `stmt`. Backward: tainted
    /// immediately *before* `stmt`.
    AccessPath path;
    /// When set, the fact holds at the *entry* of `stmt.block` (forward) /
    /// its exit (backward); `stmt.index` is ignored. Used to seed callback
    /// parameters at method entry.
    bool at_block_boundary = false;
};

using PathSet = std::unordered_set<AccessPath, AccessPathHash>;
/// Long-lived per-run fact sets allocate their nodes from the run's arena
/// (they only grow during a run and die together at its end).
using ArenaPathSet =
    std::unordered_set<AccessPath, AccessPathHash, std::equal_to<AccessPath>,
                       support::ArenaAllocator<AccessPath>>;

/// Reported whenever an Invoke statement touches tainted data; consumers
/// (transaction dependency analysis) use it to locate where tainted values
/// are inserted into requests (JSON keys, name-value pairs, headers...).
struct CallTaintEvent {
    xir::StmtRef stmt;
    bool base_tainted = false;
    bool dst_tainted = false;
    std::vector<bool> args_tainted;
};

struct TaintResult {
    /// Statements that operate on tainted data — the program slice, sorted
    /// and duplicate-free (DESIGN.md §13, "One slice, stored once").
    std::vector<xir::StmtRef> statements;
    /// Tainted global locations (statics / db cells / prefs keys).
    PathSet globals;
    /// Tainted-call observations: one per statement, ascending by `stmt`.
    std::vector<CallTaintEvent> call_events;
    /// Worklist iterations this run consumed — deterministic for a given
    /// program + seeds, the currency of analysis budgets.
    std::size_t steps_used = 0;
    /// True when the run stopped at EngineOptions::max_steps.
    bool truncated = false;

    [[nodiscard]] bool contains(const xir::StmtRef& ref) const {
        return std::binary_search(statements.begin(), statements.end(), ref);
    }
};

struct EngineOptions {
    /// The async-event heuristic: allow taint to cross event-handler
    /// boundaries through statics / db / prefs. Paper §5.1 disables this for
    /// open-source apps and enables it for closed-source apps.
    bool cross_event_globals = true;
    /// Maximum asynchronous-event boundaries one fact may cross. The paper's
    /// implementation "only detects dependencies across one hop" (§4);
    /// raising this is the multiple-iterations extension it suggests.
    unsigned max_global_hops = 1;
    /// Safety valve on worklist iterations (0 = unlimited).
    std::size_t max_steps = 2'000'000;
};

class TaintEngine {
public:
    TaintEngine(const xir::Program& program, const xir::CallGraph& callgraph,
                const semantics::SemanticModel& model, EngineOptions options = {});

    [[nodiscard]] TaintResult run(Direction direction, const std::vector<TaintSeed>& seeds);

private:
    struct MethodState;  // per-run, per-touched-method state, defined in the .cpp
    struct Run;          // per-run mutable state, defined in the .cpp

    const xir::Program* program_;
    const xir::CallGraph* callgraph_;
    const semantics::SemanticModel* model_;
    EngineOptions options_;

    /// Registry handles, resolved once: each lookup scans the registry under
    /// its mutex, and runs happen on every pool thread.
    obs::Counter& runs_;
    obs::Counter& seeds_;
    obs::Counter& iterations_;
    obs::Counter& propagations_;
    obs::Counter& slice_statements_;
    obs::Counter& unmodeled_api_calls_;
    obs::Histogram& run_ms_;

    /// Static/db/prefs access indices: interned location key prefix ->
    /// blocks that read (forward) or write (backward) it.
    std::unordered_map<support::intern::Symbol,
                       std::vector<std::pair<std::uint32_t, xir::BlockId>>>
        global_readers_;
    std::unordered_map<support::intern::Symbol,
                       std::vector<std::pair<std::uint32_t, xir::BlockId>>>
        global_writers_;
    /// Event-root reachability: method -> bitset over the ordinals of the
    /// event roots (CallGraph::roots()) reaching it (gates cross-event
    /// global propagation).
    std::vector<support::DenseBitset> event_roots_of_;

    /// Flat numbering of (method, block) and statements, precomputed once,
    /// each with a trailing sentinel: flat block id = block_base_[mi] + b;
    /// flat statement id = stmt_base_[flat block] + stmt index. A method's
    /// blocks are [block_base_[mi], block_base_[mi + 1]) and its statements
    /// [stmt_base_[block_base_[mi]], stmt_base_[block_base_[mi + 1]]).
    std::vector<std::uint32_t> block_base_;  // per method, + sentinel
    std::vector<std::uint32_t> stmt_base_;   // per flat block, + sentinel
    /// CFG edges per flat block, in CSR form: the successors of flat block
    /// fb are succs_[succ_start_[fb] .. succ_start_[fb + 1]), predecessors
    /// likewise (ascending, one entry per edge, as BasicBlock::successors
    /// lists them).
    std::vector<std::uint32_t> succ_start_;
    std::vector<xir::BlockId> succs_;
    std::vector<std::uint32_t> pred_start_;
    std::vector<xir::BlockId> preds_;

    void build_indices();
};

}  // namespace extractocol::taint

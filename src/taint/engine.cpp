#include "taint/engine.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace extractocol::taint {

using namespace xir;
using semantics::ApiModel;
using semantics::Role;
using semantics::SigAction;
using support::DenseBitset;
namespace in = support::intern;

namespace {

/// Index key for the global-location access indices: statics and prefs are
/// exact; db cells index by table so one writer services all columns.
/// Returned as an interned symbol (non-static, non-db keys need no work at
/// all — the path's own key symbol is the index key).
Symbol global_index_key(const AccessPath& p) {
    if (p.is_static()) {
        std::string key = "static:";
        key += in::str(p.static_class);
        key += '.';
        key += in::str(p.key);
        return in::intern(key);
    }
    std::string_view k = in::str(p.key);
    if (k.starts_with("db:")) {
        auto dot = k.find('.', 3);
        return dot == std::string_view::npos ? p.key : in::intern(k.substr(0, dot));
    }
    return p.key;
}

/// Constant-string argument, if the operand is one.
const std::string* const_string_arg(const Invoke& call, std::size_t index) {
    if (index >= call.args.size()) return nullptr;
    const Operand& op = call.args[index];
    if (op.is_constant() && op.constant.kind == Constant::Kind::kString) {
        return &op.constant.string_value;
    }
    return nullptr;
}

}  // namespace

TaintEngine::TaintEngine(const Program& program, const CallGraph& callgraph,
                         const semantics::SemanticModel& model, EngineOptions options)
    : program_(&program),
      callgraph_(&callgraph),
      model_(&model),
      options_(options),
      runs_(obs::counter("taint.runs")),
      seeds_(obs::counter("taint.seeds")),
      iterations_(obs::counter("taint.worklist_iterations")),
      propagations_(obs::counter("taint.propagations")),
      slice_statements_(obs::counter("taint.slice_statements")),
      unmodeled_api_calls_(obs::counter("taint.unmodeled_api_calls")),
      run_ms_(obs::histogram("taint.run_ms")) {
    build_indices();
}

void TaintEngine::build_indices() {
    const auto& methods = program_->method_table();
    const auto& roots = callgraph_->roots();
    event_roots_of_.assign(methods.size(), DenseBitset(roots.size()));
    for (std::uint32_t ri = 0; ri < roots.size(); ++ri) {
        for (std::uint32_t m : callgraph_->reachable_from({roots[ri]})) {
            event_roots_of_[m].set(ri);
        }
    }

    // Flat (method, block) / statement numbering and CSR successor and
    // predecessor lists, so a worklist step never rebuilds either. Branch
    // targets are in range: every Program is verified when built or parsed.
    std::uint32_t total_blocks = 0;
    block_base_.reserve(methods.size() + 1);
    for (const auto& method : methods) {
        block_base_.push_back(total_blocks);
        total_blocks += static_cast<std::uint32_t>(method->blocks.size());
    }
    block_base_.push_back(total_blocks);
    stmt_base_.reserve(total_blocks + 1);
    succ_start_.reserve(total_blocks + 1);
    pred_start_.assign(total_blocks + 1, 0);
    std::uint32_t total_stmts = 0;
    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        for (const BasicBlock& block : methods[mi]->blocks) {
            stmt_base_.push_back(total_stmts);
            total_stmts += static_cast<std::uint32_t>(block.statements.size());
            succ_start_.push_back(static_cast<std::uint32_t>(succs_.size()));
            for (BlockId succ : block.successors()) {
                succs_.push_back(succ);
                ++pred_start_[block_base_[mi] + succ + 1];
            }
        }
    }
    stmt_base_.push_back(total_stmts);
    succ_start_.push_back(static_cast<std::uint32_t>(succs_.size()));
    // Counting sort: visiting source blocks in ascending order keeps each
    // predecessor list ascending.
    for (std::uint32_t fb = 0; fb < total_blocks; ++fb) pred_start_[fb + 1] += pred_start_[fb];
    preds_.resize(pred_start_.back());
    std::vector<std::uint32_t> fill(pred_start_.begin(), pred_start_.end() - 1);
    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        for (BlockId b = 0; b < methods[mi]->blocks.size(); ++b) {
            std::uint32_t fb = block_base_[mi] + b;
            for (std::uint32_t e = succ_start_[fb]; e < succ_start_[fb + 1]; ++e) {
                preds_[fill[block_base_[mi] + succs_[e]]++] = b;
            }
        }
    }

    std::string key;
    auto indexed = [&key](std::string_view prefix, std::string_view a,
                          std::string_view b = {}) {
        key.assign(prefix);
        key += a;
        if (!b.empty()) {
            key += '.';
            key += b;
        }
        return in::intern(key);
    };
    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        const Method& method = *methods[mi];
        for (BlockId b = 0; b < method.blocks.size(); ++b) {
            for (const auto& stmt : method.blocks[b].statements) {
                if (const auto* load = std::get_if<LoadStatic>(&stmt)) {
                    global_readers_[indexed("static:", load->class_name, load->field)]
                        .emplace_back(mi, b);
                } else if (const auto* store = std::get_if<StoreStatic>(&stmt)) {
                    global_writers_[indexed("static:", store->class_name, store->field)]
                        .emplace_back(mi, b);
                } else if (const auto* call = std::get_if<Invoke>(&stmt)) {
                    const ApiModel* api =
                        model_->api(call->callee.class_name, call->callee.method_name);
                    if (!api) continue;
                    if (api->action == SigAction::kDbQuery) {
                        if (const auto* table = const_string_arg(*call, 0)) {
                            global_readers_[indexed("db:", *table)].emplace_back(mi, b);
                        }
                    } else if (api->action == SigAction::kDbInsert ||
                               api->action == SigAction::kDbUpdate) {
                        if (const auto* table = const_string_arg(*call, 0)) {
                            global_writers_[indexed("db:", *table)].emplace_back(mi, b);
                        }
                    } else if (api->action == SigAction::kPrefsGetString) {
                        if (const auto* key0 = const_string_arg(*call, 0)) {
                            global_readers_[indexed("prefs:", *key0)].emplace_back(mi, b);
                        }
                    } else if (api->action == SigAction::kPrefsPutString) {
                        if (const auto* key0 = const_string_arg(*call, 0)) {
                            global_writers_[indexed("prefs:", *key0)].emplace_back(mi, b);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- run ----

/// A method's part of one run, created the first time a seed, a call edge,
/// a return, a caller injection or a global-channel reader reaches it.
/// Everything here is sized by that method, never by the program.
struct TaintEngine::MethodState {
    /// Forward: facts at block entry. Backward: facts at block exit.
    std::vector<ArenaPathSet> block_facts;
    /// Facts describing the method's tainted return value (field
    /// suffixes on the returned object). Forward direction.
    std::vector<FieldSeq> return_suffixes;
    /// Backward: tainted suffixes demanded of the return value.
    std::vector<FieldSeq> demanded_return;
    /// Backward: (param, suffix) facts demanded at callee exits.
    std::vector<std::pair<std::uint32_t, FieldSeq>> demanded_params;
    /// Forward: heap effects on params discovered at returns.
    std::vector<std::pair<std::uint32_t, FieldSeq>> param_effects;
    /// Seeds injected mid-block: (block, stmt index, path). Forward seeds
    /// take effect after the statement; backward seeds before it.
    std::vector<std::tuple<BlockId, std::uint32_t, AccessPath>> local_seeds;
    /// Callers to requeue when this method's summary facts grow.
    std::set<std::pair<std::uint32_t, BlockId>> summary_subscribers;
    DenseBitset queued;  // worklist membership, over the method's blocks
    DenseBitset slice;   // slice statements, over the method's statements
    std::uint64_t iterations = 0;  // worklist steps, for its --profile method row
};

struct TaintEngine::Run {
    /// Backs the block_facts sets; declared first so it outlives them.
    support::Arena arena;
    Direction dir = Direction::kForward;
    /// Touched methods only, ascending by method index; node-based, so
    /// references stay valid while it grows.
    std::map<std::uint32_t, MethodState> states;
    /// Tainted global locations with the event roots of their writers
    /// (forward) / demanding readers (backward), as root-ordinal bitsets.
    std::unordered_map<AccessPath, DenseBitset, AccessPathHash> globals;
    std::deque<std::pair<std::uint32_t, BlockId>> worklist;
    std::unordered_map<std::uint32_t, CallTaintEvent> events;  // keyed by flat stmt id
    TaintResult result;
    /// Worklist iterations, counted whatever the step cap: the run's
    /// steps_used and its one taint.worklist_iterations add.
    std::size_t steps = 0;
};

namespace {

template <typename Set>
bool add_path(Set& facts, const AccessPath& path) {
    return facts.insert(path).second;
}

template <typename Set>
bool any_rooted(const Set& facts, LocalId local) {
    for (const auto& p : facts) {
        if (p.rooted_at(local)) return true;
    }
    return false;
}

template <typename Set>
std::vector<AccessPath> rooted(const Set& facts, LocalId local) {
    std::vector<AccessPath> out;
    for (const auto& p : facts) {
        if (p.rooted_at(local)) out.push_back(p);
    }
    return out;
}

template <typename Set>
void kill_local(Set& facts, LocalId local) {
    for (auto it = facts.begin(); it != facts.end();) {
        if (it->rooted_at(local)) {
            it = facts.erase(it);
        } else {
            ++it;
        }
    }
}

/// Highest async-hop count among paths rooted at `local` — derived facts
/// must carry their origin's hop count so the chain limit holds.
template <typename Set>
std::uint8_t hops_of(const Set& facts, LocalId local) {
    std::uint8_t h = 0;
    for (const auto& p : facts) {
        if (p.rooted_at(local) && p.global_hops > h) h = p.global_hops;
    }
    return h;
}

template <typename Set>
bool operand_tainted(const Set& facts, const Operand& op) {
    return op.is_local() && any_rooted(facts, op.local);
}

AccessPath local_with_fields(LocalId local, const FieldSeq& fields,
                             std::uint8_t hops = 0) {
    AccessPath p = AccessPath::of_local(local);
    p.global_hops = hops;
    p.fields = fields;
    return p;
}

}  // namespace

TaintResult TaintEngine::run(Direction direction, const std::vector<TaintSeed>& seeds) {
    obs::Span span(direction == Direction::kForward ? "taint.run.forward"
                                                    : "taint.run.backward",
                   "taint");
    runs_.add(1);
    seeds_.add(seeds.size());
    Run run;
    run.dir = direction;
    const auto& methods = program_->method_table();
    const ArenaPathSet arena_set{support::ArenaAllocator<AccessPath>(&run.arena)};

    auto state_of = [&](std::uint32_t mi) -> MethodState& {
        auto [it, fresh] = run.states.try_emplace(mi);
        MethodState& state = it->second;
        if (fresh) {
            const std::uint32_t first = block_base_[mi];
            const std::uint32_t end = block_base_[mi + 1];
            state.block_facts.assign(end - first, arena_set);
            state.queued.resize(end - first);
            state.slice.resize(stmt_base_[end] - stmt_base_[first]);
        }
        return state;
    };

    auto flat_stmt = [&](const StmtRef& ref) {
        return stmt_base_[block_base_[ref.method_index] + ref.block] + ref.index;
    };

    auto enqueue = [&](std::uint32_t mi, BlockId b) {
        if (state_of(mi).queued.set(b)) {
            run.worklist.emplace_back(mi, b);
            propagations_.add(1);
        }
    };

    auto note_stmt = [&](const StmtRef& ref) {
        MethodState& state = state_of(ref.method_index);
        state.slice.set(flat_stmt(ref) - stmt_base_[block_base_[ref.method_index]]);
    };

    for (const auto& seed : seeds) {
        MethodState& state = state_of(seed.stmt.method_index);
        if (seed.at_block_boundary) {
            state.block_facts[seed.stmt.block].insert(seed.path);
        } else {
            state.local_seeds.emplace_back(seed.stmt.block, seed.stmt.index, seed.path);
            note_stmt(seed.stmt);
        }
        enqueue(seed.stmt.method_index, seed.stmt.block);
    }

    // ---- shared helpers bound to this run ----

    // Coverage audit: a taint fact hit an API call the semantic model does
    // not know; the default open-ended rule applies. Recorded per symbol so
    // the --audit "top unmodeled APIs" table can rank model gaps.
    auto record_unmodeled_api = [&](const Invoke& s) {
        if (program_->find_class(s.callee.class_name)) return;
        if (model_->is_modeled(s.callee.class_name, s.callee.method_name)) return;
        unmodeled_api_calls_.add(1);
        obs::RunScope::count_unmodeled_api(s.callee.class_name, s.callee.method_name);
    };

    auto note_event = [&](const StmtRef& ref, bool base_t, bool dst_t,
                          const std::vector<bool>& args_t) {
        auto [it, inserted] = run.events.try_emplace(flat_stmt(ref));
        CallTaintEvent& ev = it->second;
        if (inserted) {
            ev.stmt = ref;
            ev.args_tainted.assign(args_t.size(), false);
        }
        ev.base_tainted = ev.base_tainted || base_t;
        ev.dst_tainted = ev.dst_tainted || dst_t;
        for (std::size_t i = 0; i < args_t.size() && i < ev.args_tainted.size(); ++i) {
            ev.args_tainted[i] = ev.args_tainted[i] || args_t[i];
        }
    };

    /// Whether method `mi` may exchange global taint with roots `other`.
    auto roots_allowed = [&](std::uint32_t mi, const DenseBitset& other) {
        return options_.cross_event_globals || event_roots_of_[mi].intersects(other);
    };

    /// Records a crossing into a global channel. `origin_hops` is the hop
    /// count of the fact that flowed in; the crossing adds one, and facts
    /// beyond the configured async-chain depth are dropped (§4).
    auto taint_global = [&](std::uint32_t from_method, AccessPath gpath,
                            std::uint8_t origin_hops) {
        if (origin_hops + 1u > options_.max_global_hops) return;
        gpath.global_hops = static_cast<std::uint8_t>(origin_hops + 1);
        DenseBitset& roots = run.globals[gpath];
        if (roots.size() == 0) roots.resize(callgraph_->roots().size());
        bool roots_grew = roots.or_with(event_roots_of_[from_method]);
        bool fresh = run.result.globals.insert(gpath).second;
        if (fresh || roots_grew) {
            const auto& index =
                run.dir == Direction::kForward ? global_readers_ : global_writers_;
            auto it = index.find(global_index_key(gpath));
            if (it != index.end()) {
                for (const auto& [mi, b] : it->second) enqueue(mi, b);
            }
        }
    };

    /// Tainted static Cls.field globals visible to method `mi`. (The string
    /// prefix match the old code did over "static:Cls.field" was always
    /// re-filtered to exact class/field equality by its callers, so exact
    /// symbol equality is the same set without building a string.)
    auto visible_statics = [&](std::uint32_t mi, Symbol cls,
                               Symbol field) -> std::vector<AccessPath> {
        std::vector<AccessPath> out;
        for (const auto& [path, roots] : run.globals) {
            if (!path.is_static() || path.static_class != cls || path.key != field) {
                continue;
            }
            if (roots_allowed(mi, roots)) out.push_back(path);
        }
        return out;
    };

    /// Tainted db/prefs globals visible to `mi` whose key starts with
    /// `kind` ("db:" / "prefs:") followed by `rest` — same prefix semantics
    /// as the old string concatenation, without allocating.
    auto visible_globals = [&](std::uint32_t mi, std::string_view kind,
                               std::string_view rest) -> std::vector<AccessPath> {
        std::vector<AccessPath> out;
        for (const auto& [path, roots] : run.globals) {
            if (!path.is_global()) continue;
            std::string_view k = in::str(path.key);
            if (!k.starts_with(kind) || !k.substr(kind.size()).starts_with(rest)) {
                continue;
            }
            if (roots_allowed(mi, roots)) out.push_back(path);
        }
        return out;
    };

    // ---------------- forward transfer of one statement ----------------
    auto forward_stmt = [&](std::uint32_t mi, BlockId b, std::uint32_t i,
                            const Statement& stmt, PathSet& facts) {
        const Method& method = *methods[mi];
        StmtRef ref{mi, b, i};
        std::visit(
            [&](const auto& s) {
                using T = std::decay_t<decltype(s)>;
                if constexpr (std::is_same_v<T, AssignConst>) {
                    kill_local(facts, s.dst);
                } else if constexpr (std::is_same_v<T, AssignCopy>) {
                    auto src_paths = rooted(facts, s.src);
                    kill_local(facts, s.dst);
                    for (const auto& p : src_paths) add_path(facts, p.rebased(s.dst));
                    if (!src_paths.empty()) note_stmt(ref);
                } else if constexpr (std::is_same_v<T, NewObject>) {
                    kill_local(facts, s.dst);
                } else if constexpr (std::is_same_v<T, LoadField>) {
                    Symbol fsym = in::intern(s.field);
                    std::vector<AccessPath> gen;
                    for (const auto& p : rooted(facts, s.base)) {
                        if (p.fields.empty()) {
                            gen.push_back(local_with_fields(s.dst, {}, p.global_hops));
                        } else if (p.fields[0] == fsym) {
                            gen.push_back(
                                local_with_fields(s.dst, p.fields_from(1), p.global_hops));
                        }
                    }
                    kill_local(facts, s.dst);
                    for (const auto& p : gen) add_path(facts, p);
                    if (!gen.empty()) note_stmt(ref);
                } else if constexpr (std::is_same_v<T, StoreField>) {
                    // Strong update of base.field.
                    Symbol fsym = in::intern(s.field);
                    for (auto it = facts.begin(); it != facts.end();) {
                        if (it->rooted_at(s.base) && !it->fields.empty() &&
                            it->fields[0] == fsym) {
                            it = facts.erase(it);
                        } else {
                            ++it;
                        }
                    }
                    if (s.src.is_local()) {
                        auto src_paths = rooted(facts, s.src.local);
                        for (const auto& p : src_paths) {
                            AccessPath np = AccessPath::of_local(s.base).with_field(fsym);
                            np.global_hops = p.global_hops;
                            for (Symbol f : p.fields) np = np.with_field(f);
                            add_path(facts, np);
                        }
                        if (!src_paths.empty()) note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, LoadStatic>) {
                    Symbol cls = in::intern(s.class_name);
                    Symbol fld = in::intern(s.field);
                    std::vector<AccessPath> gen;
                    for (const auto& g : visible_statics(mi, cls, fld)) {
                        gen.push_back(local_with_fields(s.dst, g.fields, g.global_hops));
                    }
                    kill_local(facts, s.dst);
                    for (const auto& p : gen) add_path(facts, p);
                    if (!gen.empty()) note_stmt(ref);
                } else if constexpr (std::is_same_v<T, StoreStatic>) {
                    if (s.src.is_local()) {
                        auto src_paths = rooted(facts, s.src.local);
                        if (!src_paths.empty()) {
                            AccessPath base =
                                AccessPath::of_static(s.class_name, s.field);
                            for (const auto& p : src_paths) {
                                AccessPath g = base;
                                for (Symbol f : p.fields) g = g.with_field(f);
                                taint_global(mi, g, p.global_hops);
                            }
                            note_stmt(ref);
                        }
                    }
                } else if constexpr (std::is_same_v<T, LoadArray>) {
                    bool arr_t = any_rooted(facts, s.array);
                    std::uint8_t h = hops_of(facts, s.array);
                    kill_local(facts, s.dst);
                    if (arr_t) {
                        add_path(facts, local_with_fields(s.dst, {}, h));
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, StoreArray>) {
                    if (operand_tainted(facts, s.src)) {
                        add_path(facts, local_with_fields(s.array, {},
                                                          hops_of(facts, s.src.local)));
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, BinaryOp>) {
                    bool in_t = operand_tainted(facts, s.lhs) || operand_tainted(facts, s.rhs);
                    std::uint8_t h = 0;
                    if (s.lhs.is_local()) h = std::max(h, hops_of(facts, s.lhs.local));
                    if (s.rhs.is_local()) h = std::max(h, hops_of(facts, s.rhs.local));
                    kill_local(facts, s.dst);
                    if (in_t) {
                        add_path(facts, local_with_fields(s.dst, {}, h));
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, If>) {
                    if (operand_tainted(facts, s.lhs) || operand_tainted(facts, s.rhs)) {
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, Return>) {
                    MethodState& state = state_of(mi);
                    bool grew = false;
                    if (s.value && s.value->is_local()) {
                        for (const auto& p : rooted(facts, s.value->local)) {
                            if (std::find(state.return_suffixes.begin(),
                                          state.return_suffixes.end(),
                                          p.fields) == state.return_suffixes.end()) {
                                state.return_suffixes.push_back(p.fields);
                                grew = true;
                            }
                            note_stmt(ref);
                        }
                    }
                    // Heap effects on parameters flow back to call sites.
                    for (std::uint32_t pi = 0; pi < method.param_count; ++pi) {
                        for (const auto& p : rooted(facts, pi)) {
                            if (p.fields.empty()) continue;
                            auto entry = std::make_pair(pi, p.fields);
                            if (std::find(state.param_effects.begin(),
                                          state.param_effects.end(),
                                          entry) == state.param_effects.end()) {
                                state.param_effects.push_back(entry);
                                grew = true;
                            }
                        }
                    }
                    if (grew) {
                        for (const auto& sub : state.summary_subscribers) {
                            enqueue(sub.first, sub.second);
                        }
                        // Context-insensitive return flow: every call site
                        // observes the new summary (callers may not have been
                        // visited yet, so the subscriber set is incomplete).
                        for (const auto& edge : callgraph_->edges_to(mi)) {
                            enqueue(edge.caller, edge.site.block);
                        }
                    }
                } else if constexpr (std::is_same_v<T, Invoke>) {
                    bool base_t = s.base && any_rooted(facts, *s.base);
                    std::vector<bool> args_t(s.args.size(), false);
                    bool any_arg_t = false;
                    for (std::size_t ai = 0; ai < s.args.size(); ++ai) {
                        args_t[ai] = operand_tainted(facts, s.args[ai]);
                        any_arg_t = any_arg_t || args_t[ai];
                    }
                    bool any_input = base_t || any_arg_t;

                    auto app_edges = callgraph_->edges_at(ref);
                    const ApiModel* api =
                        model_->api(s.callee.class_name, s.callee.method_name);

                    bool produced = false;
                    if (!app_edges.empty()) {
                        if (s.dst) kill_local(facts, *s.dst);  // call defines dst
                        // Bind actuals to formals; inject into callee entry.
                        for (const auto& edge : app_edges) {
                            const Method& callee = program_->method_at(edge.callee);
                            MethodState& cstate = state_of(edge.callee);
                            ArenaPathSet& centry = cstate.block_facts[0];
                            bool grew = false;
                            std::uint32_t formal0 = callee.is_static ? 0 : 1;
                            if (s.base && !callee.is_static) {
                                for (const auto& p : rooted(facts, *s.base)) {
                                    grew |= add_path(centry, p.rebased(0));
                                }
                            }
                            for (std::size_t ai = 0;
                                 ai < s.args.size() &&
                                 formal0 + ai < callee.param_count;
                                 ++ai) {
                                if (!s.args[ai].is_local()) continue;
                                for (const auto& p : rooted(facts, s.args[ai].local)) {
                                    grew |= add_path(
                                        centry,
                                        p.rebased(static_cast<LocalId>(formal0 + ai)));
                                }
                            }
                            if (grew) enqueue(edge.callee, 0);
                            cstate.summary_subscribers.insert({mi, b});

                            // Apply the callee's current summary.
                            if (s.dst) {
                                for (const auto& suffix : cstate.return_suffixes) {
                                    add_path(facts, local_with_fields(*s.dst, suffix));
                                    produced = true;
                                }
                            }
                            for (const auto& [pi, suffix] : cstate.param_effects) {
                                LocalId actual;
                                if (!callee.is_static && pi == 0) {
                                    if (!s.base) continue;
                                    actual = *s.base;
                                } else {
                                    std::size_t ai = pi - formal0;
                                    if (ai >= s.args.size() || !s.args[ai].is_local()) {
                                        continue;
                                    }
                                    actual = s.args[ai].local;
                                }
                                add_path(facts, local_with_fields(actual, suffix));
                                produced = true;
                            }
                        }
                        if (any_input || produced) note_stmt(ref);
                    } else {
                        // Phantom API call: suffix-aware special cases first.
                        SigAction action = api ? api->action : SigAction::kNone;
                        bool handled = false;
                        auto key0 = const_string_arg(s, 0);
                        if ((action == SigAction::kJsonPut ||
                             action == SigAction::kContentValuesPut ||
                             action == SigAction::kMapPut) &&
                            key0 && s.base) {
                            handled = true;
                            if (s.args.size() > 1 && s.args[1].is_local()) {
                                auto vp = rooted(facts, s.args[1].local);
                                if (!vp.empty()) {
                                    Symbol key_sym = in::intern(*key0);
                                    for (const auto& p : vp) {
                                        AccessPath np =
                                            AccessPath::of_local(*s.base).with_field(
                                                key_sym);
                                        np.global_hops = p.global_hops;
                                        for (Symbol f : p.fields) np = np.with_field(f);
                                        add_path(facts, np);
                                    }
                                    note_stmt(ref);
                                }
                            }
                            if (s.dst && base_t) {
                                add_path(facts, AccessPath::of_local(*s.dst));
                            }
                        } else if ((action == SigAction::kJsonGet ||
                                    action == SigAction::kMapGet ||
                                    action == SigAction::kCursorGetString) &&
                                   key0 && s.base && s.dst) {
                            handled = true;
                            Symbol key_sym = in::intern(*key0);
                            std::vector<AccessPath> gen;
                            for (const auto& p : rooted(facts, *s.base)) {
                                if (p.fields.empty()) {
                                    gen.push_back(
                                        local_with_fields(*s.dst, {}, p.global_hops));
                                } else if (p.fields[0] == key_sym) {
                                    gen.push_back(local_with_fields(
                                        *s.dst, p.fields_from(1), p.global_hops));
                                }
                            }
                            kill_local(facts, *s.dst);
                            for (const auto& p : gen) add_path(facts, p);
                            if (!gen.empty()) note_stmt(ref);
                        } else if ((action == SigAction::kDbInsert ||
                                    action == SigAction::kDbUpdate) &&
                                   key0) {
                            handled = true;
                            for (std::size_t ai = 1; ai < s.args.size(); ++ai) {
                                if (!s.args[ai].is_local()) continue;
                                for (const auto& p : rooted(facts, s.args[ai].local)) {
                                    std::string cell = "db:" + *key0;
                                    if (!p.fields.empty()) {
                                        cell += '.';
                                        cell += in::str(p.fields[0]);
                                    }
                                    taint_global(mi, AccessPath::of_global(cell),
                                                 p.global_hops);
                                    note_stmt(ref);
                                }
                            }
                        } else if (action == SigAction::kDbQuery && key0 && s.dst) {
                            handled = true;
                            kill_local(facts, *s.dst);
                            for (const auto& g : visible_globals(mi, "db:", *key0)) {
                                AccessPath np = AccessPath::of_local(*s.dst);
                                np.global_hops = g.global_hops;
                                std::string_view gkey = in::str(g.key);
                                std::size_t plen = 3 + key0->size();  // "db:" + table
                                if (gkey.size() > plen + 1) {
                                    np = np.with_field(gkey.substr(plen + 1));
                                }
                                add_path(facts, np);
                                note_stmt(ref);
                            }
                        } else if (action == SigAction::kPrefsPutString && key0) {
                            handled = true;
                            if (s.args.size() > 1 && s.args[1].is_local()) {
                                for (const auto& p : rooted(facts, s.args[1].local)) {
                                    taint_global(mi,
                                                 AccessPath::of_global("prefs:" + *key0),
                                                 p.global_hops);
                                    note_stmt(ref);
                                }
                            }
                        } else if (action == SigAction::kPrefsGetString && key0 && s.dst) {
                            handled = true;
                            kill_local(facts, *s.dst);
                            for (const auto& g : visible_globals(mi, "prefs:", *key0)) {
                                add_path(facts,
                                         local_with_fields(*s.dst, {}, g.global_hops));
                                note_stmt(ref);
                            }
                        }

                        if (!handled) {
                            std::uint8_t in_hops = 0;
                            if (s.base) in_hops = std::max(in_hops, hops_of(facts, *s.base));
                            for (const auto& a : s.args) {
                                if (a.is_local()) {
                                    in_hops = std::max(in_hops, hops_of(facts, a.local));
                                }
                            }
                            if (s.dst) kill_local(facts, *s.dst);
                            auto role_tainted = [&](const Role& role) {
                                switch (role.pos) {
                                    case Role::Pos::kBase: return base_t;
                                    case Role::Pos::kArg:
                                        return role.arg_index >= 0 &&
                                               static_cast<std::size_t>(role.arg_index) <
                                                   args_t.size() &&
                                               args_t[static_cast<std::size_t>(
                                                   role.arg_index)];
                                    case Role::Pos::kReturn: return false;
                                }
                                return false;
                            };
                            auto taint_role = [&](const Role& role) {
                                switch (role.pos) {
                                    case Role::Pos::kReturn:
                                        if (s.dst) {
                                            add_path(facts,
                                                     local_with_fields(*s.dst, {}, in_hops));
                                        }
                                        break;
                                    case Role::Pos::kBase:
                                        if (s.base) {
                                            add_path(facts, local_with_fields(*s.base, {},
                                                                              in_hops));
                                        }
                                        break;
                                    case Role::Pos::kArg:
                                        if (static_cast<std::size_t>(role.arg_index) <
                                                s.args.size() &&
                                            s.args[static_cast<std::size_t>(role.arg_index)]
                                                .is_local()) {
                                            add_path(
                                                facts,
                                                local_with_fields(
                                                    s.args[static_cast<std::size_t>(
                                                               role.arg_index)]
                                                        .local,
                                                    {}, in_hops));
                                        }
                                        break;
                                }
                            };
                            if (api) {
                                bool acted = false;
                                for (const auto& rule : api->flows) {
                                    if (role_tainted(rule.from)) {
                                        taint_role(rule.to);
                                        acted = true;
                                    }
                                }
                                if (acted) note_stmt(ref);
                            } else if (any_input) {
                                // Default open-ended rule: unknown API keeps
                                // taint flowing through receiver and result.
                                record_unmodeled_api(s);
                                if (s.dst) {
                                    add_path(facts, local_with_fields(*s.dst, {}, in_hops));
                                }
                                if (s.base) {
                                    add_path(facts,
                                             local_with_fields(*s.base, {}, in_hops));
                                }
                                note_stmt(ref);
                            }
                        }
                    }
                    if (any_input) note_event(ref, base_t, false, args_t);
                }
            },
            stmt);
    };

    // ---------------- backward transfer of one statement ----------------
    auto backward_stmt = [&](std::uint32_t mi, BlockId b, std::uint32_t i,
                             const Statement& stmt, PathSet& facts) {
        StmtRef ref{mi, b, i};
        std::visit(
            [&](const auto& s) {
                using T = std::decay_t<decltype(s)>;
                if constexpr (std::is_same_v<T, AssignConst>) {
                    if (any_rooted(facts, s.dst)) note_stmt(ref);
                    kill_local(facts, s.dst);
                } else if constexpr (std::is_same_v<T, AssignCopy>) {
                    auto dst_paths = rooted(facts, s.dst);
                    kill_local(facts, s.dst);
                    for (const auto& p : dst_paths) add_path(facts, p.rebased(s.src));
                    if (!dst_paths.empty()) note_stmt(ref);
                } else if constexpr (std::is_same_v<T, NewObject>) {
                    if (any_rooted(facts, s.dst)) note_stmt(ref);
                    kill_local(facts, s.dst);
                } else if constexpr (std::is_same_v<T, LoadField>) {
                    auto dst_paths = rooted(facts, s.dst);
                    kill_local(facts, s.dst);
                    if (!dst_paths.empty()) {
                        Symbol fsym = in::intern(s.field);
                        for (const auto& p : dst_paths) {
                            AccessPath np = AccessPath::of_local(s.base).with_field(fsym);
                            for (Symbol f : p.fields) np = np.with_field(f);
                            add_path(facts, np);
                        }
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, StoreField>) {
                    Symbol fsym = in::intern(s.field);
                    std::vector<AccessPath> selected;
                    for (auto it = facts.begin(); it != facts.end();) {
                        if (it->rooted_at(s.base) && !it->fields.empty() &&
                            it->fields[0] == fsym) {
                            selected.push_back(*it);
                            it = facts.erase(it);
                        } else {
                            ++it;
                        }
                    }
                    bool base_whole = false;
                    for (const auto& p : rooted(facts, s.base)) {
                        if (p.fields.empty()) base_whole = true;
                    }
                    if ((!selected.empty() || base_whole) && s.src.is_local()) {
                        for (const auto& p : selected) {
                            add_path(facts, local_with_fields(s.src.local,
                                                              p.fields_from(1),
                                                              p.global_hops));
                        }
                        if (base_whole) {
                            add_path(facts, local_with_fields(s.src.local, {},
                                                              hops_of(facts, s.base)));
                        }
                    }
                    if (!selected.empty() || base_whole) note_stmt(ref);
                } else if constexpr (std::is_same_v<T, LoadStatic>) {
                    auto dst_paths = rooted(facts, s.dst);
                    kill_local(facts, s.dst);
                    if (!dst_paths.empty()) {
                        AccessPath base = AccessPath::of_static(s.class_name, s.field);
                        for (const auto& p : dst_paths) {
                            AccessPath g = base;
                            for (Symbol f : p.fields) g = g.with_field(f);
                            taint_global(mi, g, p.global_hops);
                        }
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, StoreStatic>) {
                    // Demanded globals are satisfied by this store.
                    Symbol cls = in::intern(s.class_name);
                    Symbol fld = in::intern(s.field);
                    auto mine = visible_statics(mi, cls, fld);
                    if (!mine.empty() && s.src.is_local()) {
                        for (const auto& g : mine) {
                            add_path(facts, local_with_fields(s.src.local, g.fields,
                                                              g.global_hops));
                        }
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, LoadArray>) {
                    auto dst_paths = rooted(facts, s.dst);
                    std::uint8_t h = hops_of(facts, s.dst);
                    kill_local(facts, s.dst);
                    if (!dst_paths.empty()) {
                        add_path(facts, local_with_fields(s.array, {}, h));
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, StoreArray>) {
                    if (any_rooted(facts, s.array)) {
                        if (s.src.is_local()) {
                            add_path(facts, local_with_fields(s.src.local, {},
                                                              hops_of(facts, s.array)));
                        }
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, BinaryOp>) {
                    auto dst_paths = rooted(facts, s.dst);
                    std::uint8_t h = hops_of(facts, s.dst);
                    kill_local(facts, s.dst);
                    if (!dst_paths.empty()) {
                        if (s.lhs.is_local()) {
                            add_path(facts, local_with_fields(s.lhs.local, {}, h));
                        }
                        if (s.rhs.is_local()) {
                            add_path(facts, local_with_fields(s.rhs.local, {}, h));
                        }
                        note_stmt(ref);
                    }
                } else if constexpr (std::is_same_v<T, Return>) {
                    // Demanded return / param facts are injected when the
                    // block transfer begins (see run loop), not here.
                    (void)s;
                } else if constexpr (std::is_same_v<T, Invoke>) {
                    const Method& method = *program_->method_table()[mi];
                    (void)method;
                    bool dst_t = s.dst && any_rooted(facts, *s.dst);
                    bool base_t = s.base && any_rooted(facts, *s.base);
                    std::vector<bool> args_t(s.args.size(), false);
                    for (std::size_t ai = 0; ai < s.args.size(); ++ai) {
                        args_t[ai] = operand_tainted(facts, s.args[ai]);
                    }
                    auto app_edges = callgraph_->edges_at(ref);
                    const ApiModel* api =
                        model_->api(s.callee.class_name, s.callee.method_name);

                    if (!app_edges.empty()) {
                        bool touched = dst_t || base_t ||
                                       std::any_of(args_t.begin(), args_t.end(),
                                                   [](bool v) { return v; });
                        for (const auto& edge : app_edges) {
                            const Method& callee = program_->method_at(edge.callee);
                            MethodState& cstate = state_of(edge.callee);
                            bool grew = false;
                            if (dst_t) {
                                for (const auto& p : rooted(facts, *s.dst)) {
                                    if (std::find(cstate.demanded_return.begin(),
                                                  cstate.demanded_return.end(), p.fields) ==
                                        cstate.demanded_return.end()) {
                                        cstate.demanded_return.push_back(p.fields);
                                        grew = true;
                                    }
                                }
                            }
                            // Heap contributions through receiver/args.
                            std::uint32_t formal0 = callee.is_static ? 0 : 1;
                            auto demand_param = [&](std::uint32_t pi,
                                                    const FieldSeq& fields) {
                                auto entry = std::make_pair(pi, fields);
                                if (std::find(cstate.demanded_params.begin(),
                                              cstate.demanded_params.end(),
                                              entry) == cstate.demanded_params.end()) {
                                    cstate.demanded_params.push_back(entry);
                                    grew = true;
                                }
                            };
                            if (base_t && !callee.is_static) {
                                for (const auto& p : rooted(facts, *s.base)) {
                                    demand_param(0, p.fields);
                                }
                            }
                            for (std::size_t ai = 0; ai < s.args.size(); ++ai) {
                                if (!args_t[ai] || !s.args[ai].is_local()) continue;
                                if (formal0 + ai >= callee.param_count) continue;
                                for (const auto& p : rooted(facts, s.args[ai].local)) {
                                    demand_param(static_cast<std::uint32_t>(formal0 + ai),
                                                 p.fields);
                                }
                            }
                            if (grew) {
                                // Requeue the callee's return blocks.
                                for (BlockId cb = 0; cb < callee.blocks.size(); ++cb) {
                                    const auto& stmts = callee.blocks[cb].statements;
                                    if (!stmts.empty() &&
                                        std::holds_alternative<Return>(stmts.back())) {
                                        enqueue(edge.callee, cb);
                                    }
                                }
                            }
                        }
                        if (dst_t) kill_local(facts, *s.dst);
                        if (touched) note_stmt(ref);
                    } else {
                        SigAction action = api ? api->action : SigAction::kNone;
                        auto key0 = const_string_arg(s, 0);
                        bool handled = false;
                        if ((action == SigAction::kJsonPut ||
                             action == SigAction::kContentValuesPut ||
                             action == SigAction::kMapPut) &&
                            key0 && s.base) {
                            handled = true;
                            Symbol key_sym = in::intern(*key0);
                            std::vector<AccessPath> selected;
                            bool base_whole = false;
                            for (auto it = facts.begin(); it != facts.end();) {
                                if (it->rooted_at(*s.base) && !it->fields.empty() &&
                                    it->fields[0] == key_sym) {
                                    selected.push_back(*it);
                                    it = facts.erase(it);
                                } else {
                                    if (it->rooted_at(*s.base) && it->fields.empty()) {
                                        base_whole = true;
                                    }
                                    ++it;
                                }
                            }
                            std::uint8_t base_hops = hops_of(facts, *s.base);
                            if (dst_t) {
                                // Chained return: demand flows to the base.
                                // Kill dst first — dst may alias base.
                                std::uint8_t dst_hops = hops_of(facts, *s.dst);
                                kill_local(facts, *s.dst);
                                add_path(facts,
                                         local_with_fields(*s.base, {}, dst_hops));
                                base_whole = true;
                                base_hops = std::max(base_hops, dst_hops);
                            }
                            if ((!selected.empty() || base_whole) && s.args.size() > 1 &&
                                s.args[1].is_local()) {
                                for (const auto& p : selected) {
                                    add_path(facts, local_with_fields(s.args[1].local,
                                                                      p.fields_from(1),
                                                                      p.global_hops));
                                }
                                if (base_whole) {
                                    add_path(facts, local_with_fields(s.args[1].local, {},
                                                                      base_hops));
                                }
                            }
                            if (!selected.empty() || base_whole) note_stmt(ref);
                        } else if ((action == SigAction::kJsonGet ||
                                    action == SigAction::kMapGet ||
                                    action == SigAction::kCursorGetString) &&
                                   key0 && s.base && s.dst) {
                            handled = true;
                            auto dst_paths = rooted(facts, *s.dst);
                            kill_local(facts, *s.dst);
                            if (!dst_paths.empty()) {
                                Symbol key_sym = in::intern(*key0);
                                for (const auto& p : dst_paths) {
                                    AccessPath np =
                                        AccessPath::of_local(*s.base).with_field(key_sym);
                                    np.global_hops = p.global_hops;
                                    for (Symbol f : p.fields) np = np.with_field(f);
                                    add_path(facts, np);
                                }
                                note_stmt(ref);
                            }
                        } else if (action == SigAction::kDbQuery && key0 && s.dst) {
                            handled = true;
                            auto dst_paths = rooted(facts, *s.dst);
                            kill_local(facts, *s.dst);
                            for (const auto& p : dst_paths) {
                                std::string cell = "db:" + *key0;
                                if (!p.fields.empty()) {
                                    cell += '.';
                                    cell += in::str(p.fields[0]);
                                }
                                taint_global(mi, AccessPath::of_global(cell),
                                             p.global_hops);
                            }
                            if (!dst_paths.empty()) note_stmt(ref);
                        } else if ((action == SigAction::kDbInsert ||
                                    action == SigAction::kDbUpdate) &&
                                   key0) {
                            handled = true;
                            auto demanded = visible_globals(mi, "db:", *key0);
                            if (!demanded.empty()) {
                                std::size_t plen = 3 + key0->size();  // "db:" + table
                                for (std::size_t ai = 1; ai < s.args.size(); ++ai) {
                                    if (!s.args[ai].is_local()) continue;
                                    for (const auto& g : demanded) {
                                        AccessPath np =
                                            AccessPath::of_local(s.args[ai].local);
                                        np.global_hops = g.global_hops;
                                        std::string_view gkey = in::str(g.key);
                                        if (gkey.size() > plen + 1) {
                                            np = np.with_field(gkey.substr(plen + 1));
                                        }
                                        add_path(facts, np);
                                    }
                                }
                                note_stmt(ref);
                            }
                        } else if (action == SigAction::kPrefsGetString && key0 && s.dst) {
                            handled = true;
                            auto dst_paths = rooted(facts, *s.dst);
                            kill_local(facts, *s.dst);
                            for (const auto& p : dst_paths) {
                                taint_global(mi, AccessPath::of_global("prefs:" + *key0),
                                             p.global_hops);
                                note_stmt(ref);
                            }
                        } else if (action == SigAction::kPrefsPutString && key0) {
                            handled = true;
                            for (const auto& g : visible_globals(mi, "prefs:", *key0)) {
                                if (s.args.size() > 1 && s.args[1].is_local()) {
                                    add_path(facts, local_with_fields(s.args[1].local, {},
                                                                      g.global_hops));
                                }
                                note_stmt(ref);
                            }
                        } else if (action == SigAction::kResourceGetString && s.dst) {
                            handled = true;
                            if (dst_t) note_stmt(ref);
                            kill_local(facts, *s.dst);
                        }

                        if (!handled) {
                            bool acted = false;
                            std::uint8_t demand_hops = 0;
                            if (s.dst) demand_hops = std::max(demand_hops, hops_of(facts, *s.dst));
                            if (s.base) demand_hops = std::max(demand_hops, hops_of(facts, *s.base));
                            for (const auto& a : s.args) {
                                if (a.is_local()) {
                                    demand_hops = std::max(demand_hops, hops_of(facts, a.local));
                                }
                            }
                            // Kill dst before generating: the call defines
                            // dst, and dst may alias base (sb = sb.append(x)).
                            if (s.dst && dst_t) kill_local(facts, *s.dst);
                            auto taint_role_bwd = [&](const Role& role) {
                                switch (role.pos) {
                                    case Role::Pos::kBase:
                                        if (s.base) {
                                            add_path(facts, local_with_fields(
                                                                *s.base, {}, demand_hops));
                                        }
                                        break;
                                    case Role::Pos::kArg: {
                                        auto index =
                                            static_cast<std::size_t>(role.arg_index);
                                        if (index < s.args.size() &&
                                            s.args[index].is_local()) {
                                            add_path(facts,
                                                     local_with_fields(
                                                         s.args[index].local, {},
                                                         demand_hops));
                                        }
                                        break;
                                    }
                                    case Role::Pos::kReturn: break;  // not a source here
                                }
                            };
                            auto role_demanded = [&](const Role& role) {
                                switch (role.pos) {
                                    case Role::Pos::kReturn: return dst_t;
                                    case Role::Pos::kBase: return base_t;
                                    case Role::Pos::kArg:
                                        return role.arg_index >= 0 &&
                                               static_cast<std::size_t>(role.arg_index) <
                                                   args_t.size() &&
                                               args_t[static_cast<std::size_t>(
                                                   role.arg_index)];
                                }
                                return false;
                            };
                            if (api) {
                                for (const auto& rule : api->flows) {
                                    if (role_demanded(rule.to)) {
                                        taint_role_bwd(rule.from);
                                        acted = true;
                                    }
                                }
                            } else if (dst_t || base_t) {
                                record_unmodeled_api(s);
                                if (s.base) {
                                    add_path(facts,
                                             local_with_fields(*s.base, {}, demand_hops));
                                }
                                for (const auto& a : s.args) {
                                    if (a.is_local()) {
                                        add_path(facts, local_with_fields(a.local, {},
                                                                          demand_hops));
                                    }
                                }
                                acted = true;
                            }
                            if (acted || dst_t) note_stmt(ref);
                        }
                    }
                    if (dst_t || base_t ||
                        std::any_of(args_t.begin(), args_t.end(), [](bool v) { return v; })) {
                        note_event(ref, base_t, dst_t, args_t);
                    }
                }
            },
            stmt);
    };

    // ------------------------------ main worklist loop ------------------
    while (!run.worklist.empty()) {
        ++run.steps;
        if (options_.max_steps != 0 && run.steps > options_.max_steps) {
            log::warn().kv("max_steps", options_.max_steps)
                << "taint engine hit step limit; result is truncated";
            run.result.truncated = true;
            break;
        }
        auto [mi, b] = run.worklist.front();
        run.worklist.pop_front();
        MethodState& state = run.states.at(mi);
        state.queued.clear(b);
        ++state.iterations;

        const Method& method = *methods[mi];
        const auto& stmts = method.blocks[b].statements;
        const std::uint32_t fb = block_base_[mi] + b;

        // The per-iteration scratch copy stays heap-backed on purpose:
        // kill_local erases from it, and a no-free arena would turn that
        // churn into unbounded growth. Only the monotone block_facts /
        // globals state lives in the arena.
        if (direction == Direction::kForward) {
            PathSet facts(state.block_facts[b].begin(), state.block_facts[b].end());
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                forward_stmt(mi, b, i, stmts[i], facts);
                for (const auto& [sb, si, path] : state.local_seeds) {
                    if (sb == b && si == i) add_path(facts, path);
                }
            }
            for (std::uint32_t e = succ_start_[fb]; e < succ_start_[fb + 1]; ++e) {
                const BlockId succ = succs_[e];
                ArenaPathSet& target = state.block_facts[succ];
                bool grew = false;
                for (const auto& p : facts) grew |= add_path(target, p);
                if (grew) enqueue(mi, succ);
            }
            // Return facts already handled inside forward_stmt.
        } else {
            PathSet facts(state.block_facts[b].begin(), state.block_facts[b].end());
            // Demanded return/param facts materialize at return blocks.
            if (!stmts.empty() && std::holds_alternative<Return>(stmts.back())) {
                const auto& ret = std::get<Return>(stmts.back());
                if (ret.value && ret.value->is_local()) {
                    for (const auto& suffix : state.demanded_return) {
                        if (add_path(facts,
                                     local_with_fields(ret.value->local, suffix))) {
                            note_stmt({mi, b, static_cast<std::uint32_t>(stmts.size() - 1)});
                        }
                    }
                }
                for (const auto& [pi, suffix] : state.demanded_params) {
                    add_path(facts, local_with_fields(pi, suffix));
                }
            }
            for (std::uint32_t ri = 0; ri < stmts.size(); ++ri) {
                std::uint32_t i = static_cast<std::uint32_t>(stmts.size()) - 1 - ri;
                backward_stmt(mi, b, i, stmts[i], facts);
                // Seeds and call-site injections: tainted *before* stmt i.
                for (const auto& [sb, si, path] : state.local_seeds) {
                    if (sb == b && si == i) add_path(facts, path);
                }
            }
            // Facts at method entry rooted at formals flow to call sites.
            if (b == 0) {
                for (const auto& p : facts) {
                    if (!p.is_local() || p.local >= method.param_count) continue;
                    for (const auto& edge : callgraph_->edges_to(mi)) {
                        const Method& caller = program_->method_at(edge.caller);
                        const Statement* call_stmt =
                            caller.statement(edge.site.block, edge.site.index);
                        const auto* call = std::get_if<Invoke>(call_stmt);
                        if (!call) continue;
                        const Method& callee = method;
                        std::uint32_t formal0 = callee.is_static ? 0 : 1;
                        std::optional<LocalId> actual;
                        if (!callee.is_static && p.local == 0) {
                            actual = call->base;
                        } else {
                            std::size_t ai = p.local - formal0;
                            if (ai < call->args.size() && call->args[ai].is_local()) {
                                actual = call->args[ai].local;
                            }
                        }
                        if (!actual) continue;
                        MethodState& caller_state = state_of(edge.caller);
                        AccessPath cp =
                            local_with_fields(*actual, p.fields, p.global_hops);
                        auto seed = std::make_tuple(edge.site.block, edge.site.index, cp);
                        if (std::find(caller_state.local_seeds.begin(),
                                      caller_state.local_seeds.end(),
                                      seed) == caller_state.local_seeds.end()) {
                            caller_state.local_seeds.push_back(seed);
                            enqueue(edge.caller, edge.site.block);
                        }
                        // The call statement itself carries the flow.
                        note_stmt(edge.site);
                    }
                }
            }
            for (std::uint32_t e = pred_start_[fb]; e < pred_start_[fb + 1]; ++e) {
                const BlockId pred = preds_[e];
                ArenaPathSet& target = state.block_facts[pred];
                bool grew = false;
                for (const auto& p : facts) grew |= add_path(target, p);
                if (grew) enqueue(mi, pred);
            }
        }
    }

    iterations_.add(run.steps);

    // Materialize the per-method slices into the sorted result vector:
    // states ascend by method and each slice bitset by (block, index).
    const bool profiling = obs::RunScope::profiling();
    for (const auto& [mi, state] : run.states) {
        const std::uint32_t first = block_base_[mi];
        BlockId b = 0;
        state.slice.for_each([&](std::size_t local) {
            const std::size_t si = stmt_base_[first] + local;
            while (stmt_base_[first + b + 1] <= si) ++b;
            run.result.statements.push_back(
                StmtRef{mi, b, static_cast<std::uint32_t>(si - stmt_base_[first + b])});
        });
        if (profiling && state.iterations != 0) {
            obs::RunScope::charge_method(
                obs::profile_method_key(program_->app_name, methods[mi]->ref().qualified()),
                state.iterations, 0);
        }
    }

    for (auto& [key, ev] : run.events) run.result.call_events.push_back(std::move(ev));
    std::sort(run.result.call_events.begin(), run.result.call_events.end(),
              [](const CallTaintEvent& a, const CallTaintEvent& b) {
                  return a.stmt < b.stmt;
              });
    run.result.steps_used = run.steps;
    slice_statements_.add(run.result.statements.size());
    span.finish();
    run_ms_.observe(span.seconds() * 1000.0);
    return std::move(run.result);
}

}  // namespace extractocol::taint

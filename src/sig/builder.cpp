#include "sig/builder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <set>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "xir/cfg.hpp"

namespace extractocol::sig {

using namespace xir;
using semantics::ApiModel;
using semantics::DemarcationSpec;
using semantics::Role;
using semantics::SigAction;

namespace {

/// The sig.unknown_reason.<name> counter of `reason`. Each is acquired from
/// the registry on its reason's first give-up, so a reason never given up
/// on stays unregistered, and read from this table after.
obs::Counter& reason_counter(UnknownReason reason) {
    // kBudgetExhausted is the last reason.
    static std::array<std::atomic<obs::Counter*>,
                      static_cast<std::size_t>(UnknownReason::kBudgetExhausted) + 1>
        table{};
    std::atomic<obs::Counter*>& slot = table[static_cast<std::size_t>(reason)];
    obs::Counter* counter = slot.load(std::memory_order_acquire);
    if (counter == nullptr) {
        counter = &obs::counter(std::string("sig.unknown_reason.") +
                                unknown_reason_name(reason));
        slot.store(counter, std::memory_order_release);
    }
    return *counter;
}

Sig::ValueType type_hint(const Type& t) {
    if (t == "int" || t == "long") return Sig::ValueType::kInt;
    if (t == "boolean") return Sig::ValueType::kBool;
    if (t == "java.lang.String") return Sig::ValueType::kString;
    return Sig::ValueType::kAny;
}

DemandNode::Kind demand_kind_for_type(const Type& t) {
    if (t == "int" || t == "long") return DemandNode::Kind::kInt;
    if (t == "boolean") return DemandNode::Kind::kBool;
    if (t == "java.lang.String") return DemandNode::Kind::kString;
    return DemandNode::Kind::kUnknown;
}

const std::string* const_string(const Operand& op) {
    if (op.is_constant() && op.constant.kind == Constant::Kind::kString) {
        return &op.constant.string_value;
    }
    return nullptr;
}

/// Constant-string argument by index; safe for missing args (no temporary).
const std::string* const_string_arg(const Invoke& call, std::size_t index) {
    if (index >= call.args.size()) return nullptr;
    return const_string(call.args[index]);
}

/// The interpreter: one instance per SignatureBuilder::build() call. Session
/// state (statics, prefs) persists across the producer pre-pass and the main
/// context walk so cross-event values become visible.
class Interp {
public:
    Interp(const Program& program, const CallGraph& callgraph,
           const semantics::SemanticModel& model, const std::vector<std::uint32_t>& handlers,
           const BuildRequest& request)
        : program_(&program),
          callgraph_(&callgraph),
          model_(&model),
          handlers_(&handlers),
          request_(&request),
          profiling_(obs::RunScope::profiling()) {
        response_root_ = std::make_shared<DemandNode>();
    }

    std::optional<TransactionSignature> run() {
        // Producer pre-pass: other event handlers whose slice statements may
        // populate statics/prefs read by this transaction (async heuristic).
        // A handler qualifies when the call graph leads from it to a method
        // holding a slice statement.
        std::uint32_t root =
            request_->context.empty()
                ? request_->dp_site.method_index
                : request_->context.front().caller;
        std::unordered_set<std::uint32_t> producers;
        if (request_->slice) producers = slice_callers();
        for (std::uint32_t mi : *handlers_) {
            if (mi == root || (request_->slice && producers.count(mi) == 0)) continue;
            interpret(mi, {}, 0, /*live=*/false, 0);
        }

        std::vector<SigValue> root_args;
        interpret(root, std::move(root_args), 0, /*live=*/true, 0);

        if (!captured_) return std::nullopt;

        // Async response delivery: interpret the listener with the demand
        // root bound to its response parameter.
        for (const auto& [ref, param_index] : pending_callbacks_) {
            const Method* listener = program_->find_method(ref);
            if (!listener) continue;
            std::vector<SigValue> args;
            std::uint32_t formal0 = listener->is_static ? 0 : 1;
            args.resize(listener->param_count);
            if (!listener->is_static) args[0] = SigValue::new_object();
            std::uint32_t slot = formal0 + static_cast<std::uint32_t>(param_index);
            if (slot < args.size()) args[slot] = SigValue::of_demand(response_root_);
            auto mi = program_->method_index(ref);
            if (mi) interpret(*mi, std::move(args), kNoContext, /*live=*/false, 0);
        }

        finalize_response();
        if (step_capped_) {
            // The build stopped early: whatever stayed unknown did so because
            // the budget ran out, not because the value is free. Tag only the
            // reason-less leaves — more specific reasons survive.
            tag_unknowns(out_.uri, UnknownReason::kBudgetExhausted, "budget");
            for (auto& [name, value] : out_.headers) {
                tag_unknowns(name, UnknownReason::kBudgetExhausted, "budget");
                tag_unknowns(value, UnknownReason::kBudgetExhausted, "budget");
            }
            tag_unknowns(out_.body, UnknownReason::kBudgetExhausted, "budget");
            tag_unknowns(out_.response_body, UnknownReason::kBudgetExhausted,
                         "budget");
        }
        return out_;
    }

private:
    static constexpr std::size_t kNoContext = static_cast<std::size_t>(-1);
    static constexpr int kMaxDepth = 48;

    using Env = std::map<LocalId, SigValue>;

    // ------------------------------------------------------------ helpers --

    bool in_slice(const StmtRef& ref) const {
        return !request_->slice ||
               std::binary_search(request_->slice->begin(), request_->slice->end(), ref);
    }

    /// The methods holding a slice statement and every transitive caller of
    /// them: one reverse BFS, sized by the slice's callers.
    std::unordered_set<std::uint32_t> slice_callers() const {
        const std::vector<StmtRef>& slice = *request_->slice;
        std::unordered_set<std::uint32_t> seen;
        std::vector<std::uint32_t> stack;
        for (auto it = slice.begin(); it != slice.end();
             it = std::lower_bound(it, slice.end(), StmtRef{it->method_index + 1, 0, 0})) {
            seen.insert(it->method_index);
            stack.push_back(it->method_index);
        }
        while (!stack.empty()) {
            std::uint32_t mi = stack.back();
            stack.pop_back();
            for (const CallEdge& edge : callgraph_->edges_to(mi)) {
                if (seen.insert(edge.caller).second) stack.push_back(edge.caller);
            }
        }
        return seen;
    }

    SigValue value_of(const Env& env, const Method& method, const Operand& op) const {
        if (op.is_constant()) {
            switch (op.constant.kind) {
                case Constant::Kind::kString:
                    return SigValue::of_str(Sig::constant(op.constant.string_value));
                case Constant::Kind::kInt:
                    return SigValue::of_str(
                        Sig::constant(std::to_string(op.constant.int_value)));
                case Constant::Kind::kBool:
                    return SigValue::of_str(
                        Sig::constant(op.constant.bool_value ? "true" : "false"));
                case Constant::Kind::kDouble:
                case Constant::Kind::kNull:
                    return SigValue::none();
            }
        }
        auto it = env.find(op.local);
        if (it != env.end()) return it->second;
        return SigValue::none(type_hint(method.locals[op.local].type));
    }

    static void bind(Env& env, LocalId local, SigValue value) {
        env[local] = std::move(value);
    }

    // ------------------------------------------------- method interpretation

    /// Interprets one method body. `ctx_pos` tracks progress along the
    /// transaction's calling context (kNoContext = off-context walk); `live`
    /// walks may capture the DP.
    SigValue interpret(std::uint32_t mi, std::vector<SigValue> args, std::size_t ctx_pos,
                       bool live, int depth) {
        if (depth > kMaxDepth) {
            reason_counter(UnknownReason::kTaintDepthCutoff).add(1);
            return SigValue::none(Sig::ValueType::kAny,
                                  UnknownReason::kTaintDepthCutoff, "depth");
        }
        if (on_stack_.count(mi) > 0) {
            reason_counter(UnknownReason::kTaintDepthCutoff).add(1);
            return SigValue::none(Sig::ValueType::kAny,
                                  UnknownReason::kTaintDepthCutoff, "recursion");
        }
        on_stack_.insert(mi);

        const Method& method = program_->method_at(mi);
        Cfg cfg(method);

        std::vector<std::optional<Env>> entry(method.blocks.size());
        Env env0;
        for (std::uint32_t p = 0; p < method.param_count && p < method.locals.size(); ++p) {
            if (p < args.size() && !args[p].is(SigValue::Kind::kNone)) {
                env0[p] = args[p];
            }
        }
        entry[0] = std::move(env0);

        std::optional<SigValue> ret;

        struct LoopCtx {
            std::set<BlockId> blocks;
            std::map<Sig*, Sig> snapshots;
            bool open = true;
        };
        std::vector<LoopCtx> loops;

        auto snapshot_env = [](const Env& env, LoopCtx& loop) {
            for (const auto& [local, value] : env) {
                (void)local;
                if (value.shared_sig) {
                    loop.snapshots.emplace(value.shared_sig.get(), *value.shared_sig);
                }
                if (value.request && value.request->body &&
                    value.request->body->shared_sig) {
                    loop.snapshots.emplace(value.request->body->shared_sig.get(),
                                           *value.request->body->shared_sig);
                }
            }
        };
        auto widen_loop_ctx = [](LoopCtx& loop) {
            for (auto& [ptr, snap] : loop.snapshots) {
                if (!(*ptr == snap)) *ptr = widen_loop(snap, *ptr);
            }
            loop.open = false;
        };

        for (BlockId b : cfg.reverse_post_order()) {
            if (!cfg.is_reachable(b) || !entry[b]) continue;
            for (auto& loop : loops) {
                if (loop.open && loop.blocks.count(b) == 0) widen_loop_ctx(loop);
            }
            if (cfg.is_loop_header(b)) {
                LoopCtx loop;
                for (BlockId lb : cfg.loop_blocks(b)) loop.blocks.insert(lb);
                snapshot_env(*entry[b], loop);
                loops.push_back(std::move(loop));
            }

            Env env = *entry[b];
            const auto& stmts = method.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                execute(StmtRef{mi, b, i}, stmts[i], method, env, ctx_pos, live, depth,
                        ret);
            }
            auto successors = method.blocks[b].successors();
            // Branch points hand each successor its own copy of the mutable
            // signature cells so branch-local appends/puts do not leak into
            // the sibling path; the join below re-merges with disjunction.
            // Loop headers keep shared cells: the loop body's growth must be
            // visible to the exit path for rep{} widening.
            const bool fork = successors.size() > 1 && !cfg.is_loop_header(b);
            for (BlockId succ : successors) {
                if (cfg.is_back_edge(b, succ)) continue;
                Env env_for_succ;
                if (fork) {
                    std::map<const void*, SigValue> memo;
                    for (const auto& [local, value] : env) {
                        env_for_succ.emplace(local, value.clone(memo));
                    }
                } else {
                    env_for_succ = env;
                }
                const Env& env = env_for_succ;  // shadow: merge uses the copy
                if (!entry[succ]) {
                    entry[succ] = env;
                } else {
                    Env& target = *entry[succ];
                    for (const auto& [local, value] : env) {
                        auto it = target.find(local);
                        if (it == target.end()) {
                            target.emplace(local, value);
                        } else if (!(it->second.to_sig() == value.to_sig()) ||
                                   it->second.kind != value.kind) {
                            it->second = SigValue::merge(it->second, value);
                        }
                    }
                }
            }
        }
        for (auto& loop : loops) {
            if (loop.open) widen_loop_ctx(loop);
        }

        on_stack_.erase(mi);
        return ret.value_or(SigValue::none());
    }

    // ------------------------------------------------- statement execution

    void execute(const StmtRef& ref, const Statement& stmt, const Method& method, Env& env,
                 std::size_t ctx_pos, bool live, int depth, std::optional<SigValue>& ret) {
        // Budget cap: stop executing once the step budget is gone. The count
        // is sequential and input-determined, so the cap point is the same on
        // every run regardless of --jobs.
        if (step_capped_) return;
        ++steps_;
        if (profiling_) ++method_stmts_[ref.method_index];
        if (request_->max_steps && steps_ > request_->max_steps) {
            step_capped_ = true;
            reason_counter(UnknownReason::kBudgetExhausted).add(1);
            return;
        }
        // Control flow is structural; everything else obeys the slice filter.
        const bool slice_member = in_slice(ref);
        std::visit(
            [&](const auto& s) {
                using T = std::decay_t<decltype(s)>;
                if constexpr (std::is_same_v<T, Return>) {
                    if (s.value && slice_member) {
                        SigValue v = value_of(env, method, *s.value);
                        ret = ret ? SigValue::merge(*ret, v) : v;
                    } else if (s.value && !ret) {
                        ret = value_of(env, method, *s.value);
                    }
                } else if constexpr (std::is_same_v<T, Nop> || std::is_same_v<T, If> ||
                                     std::is_same_v<T, Goto>) {
                    // no value effect
                } else if constexpr (std::is_same_v<T, AssignConst>) {
                    if (!slice_member) return;
                    SigValue v = value_of(env, method, Operand(s.value));
                    // Constants remember the IR instruction that introduced
                    // them (method:block:index), surfaced by --explain.
                    if (v.is(SigValue::Kind::kStr) && v.str.is_const() &&
                        v.str.origin.empty()) {
                        v.str.origin = "ir:" + std::to_string(ref.method_index) + ":" +
                                       std::to_string(ref.block) + ":" +
                                       std::to_string(ref.index);
                    }
                    bind(env, s.dst, std::move(v));
                } else if constexpr (std::is_same_v<T, AssignCopy>) {
                    if (!slice_member) return;
                    bind(env, s.dst, value_of(env, method, Operand(s.src)));
                } else if constexpr (std::is_same_v<T, NewObject>) {
                    if (!slice_member) return;
                    bind(env, s.dst, allocate(s.class_name));
                } else if constexpr (std::is_same_v<T, LoadField>) {
                    if (!slice_member) return;
                    bind(env, s.dst, load_field(env, method, s));
                } else if constexpr (std::is_same_v<T, StoreField>) {
                    if (!slice_member) return;
                    SigValue base = value_of(env, method, Operand(s.base));
                    if (base.is(SigValue::Kind::kObject) && base.object) {
                        (*base.object)[s.field] = value_of(env, method, s.src);
                    }
                } else if constexpr (std::is_same_v<T, LoadStatic>) {
                    if (!slice_member) return;
                    auto it = statics_.find(s.class_name + "." + s.field);
                    bind(env, s.dst,
                         it != statics_.end()
                             ? it->second
                             : SigValue::none(type_hint(method.locals[s.dst].type)));
                } else if constexpr (std::is_same_v<T, StoreStatic>) {
                    if (!slice_member) return;
                    statics_[s.class_name + "." + s.field] = value_of(env, method, s.src);
                } else if constexpr (std::is_same_v<T, LoadArray>) {
                    if (!slice_member) return;
                    SigValue base = value_of(env, method, Operand(s.array));
                    if (base.is(SigValue::Kind::kList) && base.list && !base.list->empty()) {
                        SigValue merged = (*base.list)[0];
                        for (std::size_t k = 1; k < base.list->size(); ++k) {
                            merged = SigValue::merge(merged, (*base.list)[k]);
                        }
                        bind(env, s.dst, merged);
                    } else if (base.is(SigValue::Kind::kDemand) && base.demand) {
                        bind(env, s.dst, SigValue::of_demand(base.demand->array_item()));
                    } else {
                        bind(env, s.dst, SigValue::none());
                    }
                } else if constexpr (std::is_same_v<T, StoreArray>) {
                    if (!slice_member) return;
                    SigValue base = value_of(env, method, Operand(s.array));
                    if (base.is(SigValue::Kind::kList) && base.list) {
                        base.list->push_back(value_of(env, method, s.src));
                    }
                } else if constexpr (std::is_same_v<T, BinaryOp>) {
                    if (!slice_member) return;
                    if (s.op == BinaryOp::Op::kConcat || s.op == BinaryOp::Op::kAdd) {
                        SigValue lhs = value_of(env, method, s.lhs);
                        SigValue rhs = value_of(env, method, s.rhs);
                        bool stringy = type_hint(method.locals[s.dst].type) ==
                                           Sig::ValueType::kString ||
                                       s.op == BinaryOp::Op::kConcat;
                        if (stringy) {
                            bind(env, s.dst,
                                 SigValue::of_str(Sig::concat(lhs.to_sig(), rhs.to_sig())));
                        } else {
                            bind(env, s.dst, SigValue::none(Sig::ValueType::kInt));
                        }
                    } else {
                        bind(env, s.dst, SigValue::none(Sig::ValueType::kInt));
                    }
                } else if constexpr (std::is_same_v<T, Invoke>) {
                    // Context-chain calls must always be walked: they carry
                    // control to the DP even when no data flows through them.
                    bool on_context = live && ctx_pos != kNoContext &&
                                      ctx_pos < request_->context.size() &&
                                      request_->context[ctx_pos].site == ref;
                    if (!slice_member && !on_context &&
                        !(live && ref == request_->dp_site)) {
                        return;
                    }
                    invoke(ref, s, method, env, ctx_pos, live, depth);
                }
            },
            stmt);
    }

    SigValue allocate(const std::string& class_name) {
        if (class_name == "java.lang.StringBuilder" ||
            class_name == "java.lang.StringBuffer") {
            return SigValue::builder(Sig::constant(""));
        }
        if (class_name == "org.json.JSONObject" ||
            class_name == "android.content.ContentValues") {
            return SigValue::json_object();
        }
        if (class_name == "org.json.JSONArray") return SigValue::json_array();
        if (strings::contains(class_name, "List")) return SigValue::new_list();
        if (strings::contains(class_name, "Map")) return SigValue::new_object();
        if (const ApiModel* api = model_->api(class_name, "<init>")) {
            if (api->action == SigAction::kHttpRequestInit) {
                return SigValue::new_request(api->http_method, Sig::unknown(), false);
            }
            if (api->action == SigAction::kVolleyRequestInit) {
                return SigValue::new_request("GET", Sig::unknown(), false);
            }
            if (api->action == SigAction::kOkRequestBuilderInit) {
                return SigValue::new_request("GET", Sig::unknown(), false);
            }
        }
        if (class_name == "okhttp3.Request$Builder") {
            return SigValue::new_request("GET", Sig::unknown(), false);
        }
        if (program_->find_class(class_name)) return SigValue::new_object();
        return SigValue::none();
    }

    SigValue load_field(const Env& env, const Method& method, const LoadField& s) {
        SigValue base = value_of(env, method, Operand(s.base));
        if (base.is(SigValue::Kind::kObject) && base.object) {
            auto it = base.object->find(s.field);
            if (it != base.object->end()) return it->second;
            return SigValue::none(type_hint(method.locals[s.dst].type));
        }
        if (base.is(SigValue::Kind::kDemand) && base.demand) {
            // Reflection-deserialized POJO: field reads refine the tree.
            DemandNodePtr child = base.demand->child(s.field);
            if (child->origin.empty()) child->origin = "field:" + s.field;
            child->narrow(demand_kind_for_type(method.locals[s.dst].type));
            return SigValue::of_demand(child);
        }
        return SigValue::none(type_hint(method.locals[s.dst].type));
    }

    // --------------------------------------------------------- invocation --

    void invoke(const StmtRef& ref, const Invoke& s, const Method& method, Env& env,
                std::size_t ctx_pos, bool live, int depth) {
        SigValue base_value =
            s.base ? value_of(env, method, Operand(*s.base)) : SigValue::none();
        std::vector<SigValue> arg_values;
        arg_values.reserve(s.args.size());
        for (const auto& a : s.args) arg_values.push_back(value_of(env, method, a));

        auto app_edges = callgraph_->edges_at(ref);
        if (!app_edges.empty()) {
            SigValue result;
            SigValue background_result;
            for (const auto& edge : app_edges) {
                const Method& callee = program_->method_at(edge.callee);
                std::vector<SigValue> params(callee.param_count);
                std::uint32_t formal0 = callee.is_static ? 0 : 1;
                if (!callee.is_static) {
                    params[0] = s.base ? base_value : SigValue::new_object();
                    if (params[0].is(SigValue::Kind::kNone)) {
                        params[0] = SigValue::new_object();
                    }
                }
                for (std::size_t ai = 0; ai < arg_values.size(); ++ai) {
                    std::size_t slot = formal0 + ai;
                    if (slot < params.size()) params[slot] = arg_values[ai];
                }
                // AsyncTask chaining: onPostExecute receives doInBackground's
                // result.
                if (edge.kind == CallEdgeKind::kImplicit &&
                    callee.name == "onPostExecute" && callee.param_count > formal0) {
                    params[formal0] = background_result;
                }

                bool matches_context = live && ctx_pos != kNoContext &&
                                       ctx_pos < request_->context.size() &&
                                       request_->context[ctx_pos].site == ref &&
                                       request_->context[ctx_pos].callee == edge.callee;
                SigValue r =
                    interpret(edge.callee, std::move(params),
                              matches_context ? ctx_pos + 1 : kNoContext,
                              matches_context && live, depth + 1);
                if (edge.kind == CallEdgeKind::kImplicit &&
                    callee.name == "doInBackground") {
                    background_result = r;
                }
                if (edge.kind == CallEdgeKind::kDirect) result = r;
            }
            if (s.dst) bind(env, *s.dst, result);
        } else {
            apply_api(ref, s, method, env, base_value, arg_values);
        }

        // DP capture: only on the live walk that followed the full context.
        if (live && !captured_ &&
            (ctx_pos == request_->context.size() || ctx_pos == kNoContext) &&
            ref == request_->dp_site) {
            capture(s, method, env, base_value, arg_values);
        }
    }

    // ------------------------------------------------------- API semantics --

    void apply_api(const StmtRef& ref, const Invoke& s, const Method& method, Env& env,
                   SigValue& base_value, std::vector<SigValue>& args) {
        (void)ref;
        (void)method;
        const ApiModel* api = model_->api(s.callee.class_name, s.callee.method_name);
        SigAction action = api ? api->action : SigAction::kNone;

        auto set_dst = [&](SigValue v) {
            if (s.dst) bind(env, *s.dst, std::move(v));
        };
        auto set_base = [&](SigValue v) {
            if (s.base) bind(env, *s.base, std::move(v));
        };
        auto arg_sig = [&](std::size_t i) {
            return i < args.size() ? args[i].to_sig() : Sig::unknown();
        };
        auto arg_or_none = [&](std::size_t i) {
            return i < args.size() ? args[i] : SigValue::none();
        };
        auto propagate_demand = [&]() -> bool {
            // Demand values flow through wrappers/readers/transformers.
            if (base_value.is(SigValue::Kind::kDemand)) {
                set_dst(base_value);
                return true;
            }
            for (auto& a : args) {
                if (a.is(SigValue::Kind::kDemand)) {
                    set_dst(a);
                    set_base(a);
                    return true;
                }
            }
            return false;
        };
        auto api_origin = [&] {
            return "api:" + s.callee.class_name + "." + s.callee.method_name;
        };
        // Provenance-carrying give-up: the destination becomes an unknown
        // tagged with why and where, and the per-reason counter ticks.
        auto give_up = [&](Sig::ValueType type, UnknownReason reason,
                           std::string origin = {}) {
            if (!s.dst) return;
            reason_counter(reason).add(1);
            set_dst(SigValue::none(type, reason,
                                   origin.empty() ? api_origin() : std::move(origin)));
        };
        // First discovery names the demand node; later reads keep the tag.
        auto stamp_origin = [&](const DemandNodePtr& node) {
            if (node->origin.empty()) node->origin = api_origin();
        };
        auto record_unmodeled = [&] {
            if (program_->find_class(s.callee.class_name)) return;
            if (model_->is_modeled(s.callee.class_name, s.callee.method_name)) return;
            obs::RunScope::count_unmodeled_api(s.callee.class_name, s.callee.method_name);
        };

        switch (action) {
            case SigAction::kStringBuilderInit: {
                Sig init = args.empty() ? Sig::constant("") : arg_sig(0);
                set_base(SigValue::builder(std::move(init)));
                break;
            }
            case SigAction::kAppend: {
                if (base_value.is(SigValue::Kind::kBuilder) && base_value.shared_sig) {
                    *base_value.shared_sig =
                        Sig::concat(*base_value.shared_sig, arg_sig(0));
                    set_dst(base_value);
                } else {
                    set_dst(SigValue::of_str(
                        Sig::concat(base_value.to_sig(), arg_sig(0))));
                }
                break;
            }
            case SigAction::kToString: {
                if (propagate_demand()) break;
                set_dst(SigValue::of_str(base_value.to_sig()));
                break;
            }
            case SigAction::kStringConcat:
                set_dst(SigValue::of_str(Sig::concat(base_value.to_sig(), arg_sig(0))));
                break;
            case SigAction::kStringValueOf:
                if (propagate_demand()) break;
                set_dst(SigValue::of_str(arg_sig(0)));
                break;
            case SigAction::kStringTrim:
                if (propagate_demand()) break;
                set_dst(SigValue::of_str(base_value.to_sig()));
                break;
            case SigAction::kStringFormat:
                set_dst(SigValue::of_str(format_sig(args)));
                break;
            case SigAction::kUrlEncode: {
                // Constants stay recognizable after encoding; dynamic parts
                // stay wildcards.
                Sig v = arg_sig(0);
                if (v.is_const()) {
                    set_dst(SigValue::of_str(Sig::constant(strings::percent_encode(v.text))));
                } else {
                    reason_counter(UnknownReason::kDerivedString).add(1);
                    set_dst(SigValue::of_str(
                        Sig::unknown(Sig::ValueType::kString,
                                     UnknownReason::kDerivedString, api_origin())));
                }
                break;
            }
            case SigAction::kStringToUnknown:
                give_up(Sig::ValueType::kString, UnknownReason::kDerivedString);
                break;

            // ------------------------------------------------------- JSON --
            case SigAction::kJsonNewObject: {
                if (!args.empty() && args[0].is(SigValue::Kind::kDemand) && args[0].demand) {
                    args[0].demand->narrow(DemandNode::Kind::kObject);
                    if (args[0].demand->kind == DemandNode::Kind::kUnknown) {
                        args[0].demand->kind = DemandNode::Kind::kObject;
                    }
                    set_base(args[0]);
                } else if (!base_value.is(SigValue::Kind::kJson)) {
                    set_base(SigValue::json_object());
                }
                break;
            }
            case SigAction::kJsonNewArray: {
                if (!args.empty() && args[0].is(SigValue::Kind::kDemand) && args[0].demand) {
                    args[0].demand->kind = DemandNode::Kind::kArray;
                    set_base(args[0]);
                } else if (!base_value.is(SigValue::Kind::kJson)) {
                    set_base(SigValue::json_array());
                }
                break;
            }
            case SigAction::kJsonPut:
            case SigAction::kContentValuesPut:
            case SigAction::kMapPut: {
                const std::string* key = const_string_arg(s, 0);
                if (base_value.is(SigValue::Kind::kJson) && base_value.shared_sig && key) {
                    Sig member = json_member_sig(arg_or_none(1));
                    base_value.shared_sig->set_member(*key, std::move(member));
                } else if (base_value.is(SigValue::Kind::kObject) && base_value.object &&
                           key) {
                    (*base_value.object)[*key] = arg_or_none(1);
                }
                set_dst(base_value);
                break;
            }
            case SigAction::kJsonArrayPut: {
                if (base_value.is(SigValue::Kind::kJson) && base_value.shared_sig) {
                    base_value.shared_sig->children.push_back(
                        json_member_sig(arg_or_none(0)));
                }
                set_dst(base_value);
                break;
            }
            case SigAction::kJsonGet:
            case SigAction::kMapGet: {
                const std::string* key = const_string_arg(s, 0);
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand && key) {
                    DemandNodePtr child = base_value.demand->child(*key);
                    stamp_origin(child);
                    child->narrow(leaf_kind_for_getter(s.callee.method_name));
                    set_dst(SigValue::of_demand(child));
                } else if (base_value.is(SigValue::Kind::kJson) && base_value.shared_sig &&
                           key) {
                    const Sig* member = base_value.shared_sig->member(*key);
                    set_dst(member ? SigValue::of_str(*member) : SigValue::none());
                } else if (base_value.is(SigValue::Kind::kObject) && base_value.object &&
                           key) {
                    auto it = base_value.object->find(*key);
                    set_dst(it != base_value.object->end() ? it->second : SigValue::none());
                } else {
                    set_dst(SigValue::none());
                }
                break;
            }
            case SigAction::kJsonGetObject:
            case SigAction::kJsonGetArray: {
                const std::string* key = const_string_arg(s, 0);
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand && key) {
                    DemandNodePtr child = base_value.demand->child(*key);
                    stamp_origin(child);
                    if (action == SigAction::kJsonGetArray) {
                        child->kind = DemandNode::Kind::kArray;
                    } else if (child->kind == DemandNode::Kind::kUnknown) {
                        child->kind = DemandNode::Kind::kObject;
                    }
                    set_dst(SigValue::of_demand(child));
                } else {
                    set_dst(SigValue::none());
                }
                break;
            }
            case SigAction::kJsonArrayGet: {
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand) {
                    DemandNodePtr item = base_value.demand->array_item();
                    stamp_origin(item);
                    if (s.callee.method_name == "getJSONObject" &&
                        item->kind == DemandNode::Kind::kUnknown) {
                        item->kind = DemandNode::Kind::kObject;
                    }
                    if (s.callee.method_name == "getString") {
                        item->narrow(DemandNode::Kind::kString);
                    }
                    set_dst(SigValue::of_demand(item));
                } else {
                    set_dst(SigValue::none());
                }
                break;
            }
            case SigAction::kJsonArrayLength:
                set_dst(SigValue::none(Sig::ValueType::kInt));
                break;
            case SigAction::kJsonToString:
                if (base_value.is(SigValue::Kind::kJson) && base_value.shared_sig) {
                    set_dst(SigValue::of_str(*base_value.shared_sig));
                } else if (!propagate_demand()) {
                    set_dst(SigValue::none(Sig::ValueType::kString));
                }
                break;
            case SigAction::kGsonFromJson: {
                // gson.fromJson(body, "com.app.Talk"): reflectively binds all
                // POJO fields — eagerly expand the demand tree.
                DemandNodePtr node;
                if (!args.empty() && args[0].is(SigValue::Kind::kDemand)) {
                    node = args[0].demand;
                } else {
                    node = std::make_shared<DemandNode>();
                }
                const std::string* cls =
                    s.args.size() > 1 ? const_string(s.args[1]) : nullptr;
                if (cls) {
                    reason_counter(UnknownReason::kReflection).add(1);
                    expand_pojo(node, *cls, 0);
                }
                set_dst(SigValue::of_demand(node));
                break;
            }
            case SigAction::kGsonToJson: {
                set_dst(SigValue::of_str(pojo_to_sig(arg_or_none(0), 0)));
                break;
            }

            // -------------------------------------------------------- XML --
            case SigAction::kXmlParse: {
                if (!args.empty() && args[0].is(SigValue::Kind::kDemand) && args[0].demand) {
                    args[0].demand->kind = DemandNode::Kind::kXml;
                    set_dst(args[0]);
                } else {
                    set_dst(SigValue::none());
                }
                break;
            }
            case SigAction::kXmlGetElement: {
                const std::string* tag = const_string_arg(s, 0);
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand && tag) {
                    base_value.demand->kind = DemandNode::Kind::kXml;
                    DemandNodePtr child = base_value.demand->child(*tag);
                    stamp_origin(child);
                    child->kind = DemandNode::Kind::kXml;
                    set_dst(SigValue::of_demand(child));
                } else {
                    set_dst(SigValue::none());
                }
                break;
            }
            case SigAction::kXmlGetAttribute: {
                const std::string* name =
                    const_string_arg(s, 0);
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand && name) {
                    DemandNodePtr child = base_value.demand->child("@" + *name);
                    stamp_origin(child);
                    child->narrow(DemandNode::Kind::kString);
                    set_dst(SigValue::of_demand(child));
                } else {
                    set_dst(SigValue::none(Sig::ValueType::kString));
                }
                break;
            }
            case SigAction::kXmlGetText: {
                if (base_value.is(SigValue::Kind::kDemand) && base_value.demand) {
                    DemandNodePtr child = base_value.demand->child("#text");
                    stamp_origin(child);
                    child->narrow(DemandNode::Kind::kString);
                    set_dst(SigValue::of_demand(child));
                } else {
                    set_dst(SigValue::none(Sig::ValueType::kString));
                }
                break;
            }

            // ----------------------------------------------- HTTP objects --
            case SigAction::kHttpRequestInit: {
                SigValue req = SigValue::new_request(api->http_method, arg_sig(0), true);
                set_base(std::move(req));
                break;
            }
            case SigAction::kHttpSetEntity: {
                if (base_value.is(SigValue::Kind::kRequest) && base_value.request) {
                    base_value.request->body =
                        std::make_shared<SigValue>(arg_or_none(0));
                }
                break;
            }
            case SigAction::kHttpSetHeader:
            case SigAction::kOkHeader: {
                if (base_value.request) {
                    base_value.request->headers.emplace_back(arg_sig(0), arg_sig(1));
                }
                if (action == SigAction::kOkHeader) set_dst(base_value);
                break;
            }
            case SigAction::kStringEntityInit: {
                // new StringEntity(body) / RequestBody.create(type, body).
                SigValue payload = s.callee.method_name == "create" ? arg_or_none(1)
                                                                    : arg_or_none(0);
                if (s.base) {
                    set_base(payload);
                } else {
                    set_dst(payload);
                }
                break;
            }
            case SigAction::kFormEntityInit:
                set_base(arg_or_none(0));
                break;
            case SigAction::kNameValuePairInit:
                set_base(SigValue::new_pair(arg_sig(0), arg_sig(1)));
                break;
            case SigAction::kGetEntity:
            case SigAction::kGetContent:
            case SigAction::kOkBodyString:
                if (!propagate_demand()) set_dst(SigValue::none());
                break;
            case SigAction::kEntityToString:
            case SigAction::kReadLine:
                if (!propagate_demand()) set_dst(SigValue::none(Sig::ValueType::kString));
                break;
            case SigAction::kUrlInit:
                set_base(SigValue::of_str(arg_sig(0)));
                break;
            case SigAction::kOpenConnection: {
                set_dst(SigValue::new_request("GET", base_value.to_sig(), true));
                break;
            }
            case SigAction::kSetRequestMethod: {
                const std::string* verb = const_string_arg(s, 0);
                if (base_value.request && verb) base_value.request->method = *verb;
                break;
            }
            case SigAction::kGetOutputStream:
                if (base_value.request) {
                    set_dst(SigValue::stream_of(base_value.request));
                }
                break;
            case SigAction::kStreamWrite: {
                if (base_value.is(SigValue::Kind::kStream) && base_value.request) {
                    RequestStatePtr req = base_value.request;
                    Sig existing = req->body ? req->body->to_sig() : Sig::constant("");
                    req->body = std::make_shared<SigValue>(
                        SigValue::of_str(Sig::concat(std::move(existing), arg_sig(0))));
                }
                break;
            }
            case SigAction::kSocketInit: {
                // new Socket(host, port): the carrier for a raw text
                // protocol; the written stream is parsed at the DP (§4).
                Sig endpoint = Sig::concat_all(
                    {arg_sig(0), Sig::constant(":"), arg_sig(1)});
                set_base(SigValue::new_request("RAW", std::move(endpoint), true));
                break;
            }
            case SigAction::kOkRequestBuilderInit:
                set_base(SigValue::new_request("GET", Sig::unknown(), false));
                break;
            case SigAction::kOkUrl:
                if (base_value.request) {
                    base_value.request->uri = arg_sig(0);
                    base_value.request->uri_set = true;
                }
                set_dst(base_value);
                break;
            case SigAction::kOkMethod: {
                if (base_value.request) {
                    std::string verb = s.callee.method_name;
                    std::transform(verb.begin(), verb.end(), verb.begin(), ::toupper);
                    base_value.request->method = verb;
                    if (!args.empty()) {
                        base_value.request->body =
                            std::make_shared<SigValue>(arg_or_none(0));
                    }
                }
                set_dst(base_value);
                break;
            }
            case SigAction::kOkBuild:
            case SigAction::kOkNewCall:
                set_dst(action == SigAction::kOkBuild ? base_value : arg_or_none(0));
                break;
            case SigAction::kVolleyRequestInit: {
                // StringRequest(method, url, listener, err) — method codes:
                // -1/0 GET, 1 POST, 2 PUT, 3 DELETE.
                std::string verb = "GET";
                if (!s.args.empty() && s.args[0].is_constant() &&
                    s.args[0].constant.kind == Constant::Kind::kInt) {
                    switch (s.args[0].constant.int_value) {
                        case 1: verb = "POST"; break;
                        case 2: verb = "PUT"; break;
                        case 3: verb = "DELETE"; break;
                        default: verb = "GET";
                    }
                }
                SigValue req = SigValue::new_request(verb, arg_sig(1), true);
                set_base(std::move(req));
                break;
            }
            case SigAction::kVolleyAdd:
                set_dst(arg_or_none(0));
                break;

            // ------------------------------------------------- containers --
            case SigAction::kListInit:
                set_base(SigValue::new_list());
                break;
            case SigAction::kListAdd:
                if (base_value.is(SigValue::Kind::kList) && base_value.list) {
                    base_value.list->push_back(arg_or_none(0));
                }
                break;
            case SigAction::kListGet:
                if (base_value.is(SigValue::Kind::kList) && base_value.list &&
                    !base_value.list->empty()) {
                    SigValue merged = (*base_value.list)[0];
                    for (std::size_t k = 1; k < base_value.list->size(); ++k) {
                        merged = SigValue::merge(merged, (*base_value.list)[k]);
                    }
                    set_dst(merged);
                } else if (base_value.is(SigValue::Kind::kDemand) && base_value.demand) {
                    // NodeList.item on an XML element set: the item *is* the
                    // element — do not degrade the node to an array.
                    if (base_value.demand->kind == DemandNode::Kind::kXml) {
                        set_dst(base_value);
                    } else {
                        set_dst(SigValue::of_demand(base_value.demand->array_item()));
                    }
                } else {
                    set_dst(SigValue::none());
                }
                break;
            case SigAction::kMapInit:
                set_base(SigValue::new_object());
                break;

            // --------------------------------------------------- platform --
            case SigAction::kResourceGetString: {
                const std::string* id = const_string_arg(s, 0);
                if (id) {
                    out_.resource_refs.push_back(*id);
                    // The value lives in the resource table, not the code —
                    // the signature keeps it dynamic (matches the paper's
                    // api-key=(.*) rendering) but the dependency is recorded.
                }
                give_up(Sig::ValueType::kString, UnknownReason::kResourceValue,
                        id ? "res:" + *id : std::string());
                break;
            }
            case SigAction::kDbInsert:
            case SigAction::kDbUpdate: {
                const std::string* table = const_string_arg(s, 0);
                if (table) {
                    for (std::size_t ai = 1; ai < args.size(); ++ai) {
                        if (args[ai].is(SigValue::Kind::kJson) && args[ai].shared_sig) {
                            for (const auto& [col, v] : args[ai].shared_sig->members) {
                                db_["db:" + *table + "." + col] = v;
                            }
                        }
                    }
                }
                break;
            }
            case SigAction::kDbQuery:
            case SigAction::kCursorGetString:
                give_up(Sig::ValueType::kString, UnknownReason::kExternalState);
                break;
            case SigAction::kContentValuesInit:
                set_base(SigValue::json_object());
                break;
            case SigAction::kPrefsGetString: {
                const std::string* key = const_string_arg(s, 0);
                auto it = key ? prefs_.find(*key) : prefs_.end();
                if (it != prefs_.end()) {
                    set_dst(it->second);
                } else {
                    give_up(Sig::ValueType::kString, UnknownReason::kExternalState,
                            key ? "prefs:" + *key : std::string());
                }
                break;
            }
            case SigAction::kPrefsPutString: {
                const std::string* key = const_string_arg(s, 0);
                if (key) prefs_[*key] = arg_or_none(1);
                break;
            }
            case SigAction::kUserInput:
            case SigAction::kLocationGet:
            case SigAction::kMicRead:
            case SigAction::kCameraRead:
                give_up(Sig::ValueType::kString, UnknownReason::kDynamicInput);
                break;
            case SigAction::kMediaSetDataSource:
            case SigAction::kImageLoad:
            case SigAction::kFileWrite:
            case SigAction::kIntentPutExtra:
            case SigAction::kThreadExecute:
                break;  // sinks/unsupported: no value effect

            case SigAction::kNone:
            default: {
                // Generic flow-based value transfer for thin wrappers.
                if (api) {
                    for (const auto& rule : api->flows) {
                        SigValue src;
                        switch (rule.from.pos) {
                            case Role::Pos::kBase: src = base_value; break;
                            case Role::Pos::kArg:
                                src = arg_or_none(
                                    static_cast<std::size_t>(rule.from.arg_index));
                                break;
                            case Role::Pos::kReturn: continue;
                        }
                        if (src.is(SigValue::Kind::kNone)) continue;
                        switch (rule.to.pos) {
                            case Role::Pos::kReturn: set_dst(src); break;
                            case Role::Pos::kBase: set_base(src); break;
                            case Role::Pos::kArg: break;
                        }
                    }
                } else {
                    record_unmodeled();
                    if (s.dst && !propagate_demand()) {
                        give_up(Sig::ValueType::kAny, UnknownReason::kUnmodeledApi);
                    }
                }
                break;
            }
        }
    }

    static DemandNode::Kind leaf_kind_for_getter(const std::string& name) {
        if (name == "getInt") return DemandNode::Kind::kInt;
        if (name == "getBoolean") return DemandNode::Kind::kBool;
        if (name == "getString" || name == "optString") return DemandNode::Kind::kString;
        return DemandNode::Kind::kUnknown;
    }

    /// JSON member value signature from an abstract value.
    Sig json_member_sig(const SigValue& v) {
        if (v.is(SigValue::Kind::kJson) && v.shared_sig) return *v.shared_sig;
        return v.to_sig();
    }

    Sig format_sig(const std::vector<SigValue>& args) {
        if (args.empty()) return Sig::unknown();
        Sig fmt = args[0].to_sig();
        if (!fmt.is_const()) return Sig::unknown(Sig::ValueType::kString);
        std::vector<Sig> parts;
        std::size_t next_arg = 1;
        const std::string& text = fmt.text;
        std::size_t start = 0;
        for (std::size_t i = 0; i + 1 < text.size(); ++i) {
            if (text[i] != '%') continue;
            char c = text[i + 1];
            if (c != 's' && c != 'd' && c != 'f') continue;
            parts.push_back(Sig::constant(text.substr(start, i - start)));
            if (next_arg < args.size()) {
                parts.push_back(args[next_arg++].to_sig());
            } else {
                parts.push_back(Sig::unknown(
                    c == 'd' ? Sig::ValueType::kInt : Sig::ValueType::kString));
            }
            start = i + 2;
            ++i;
        }
        parts.push_back(Sig::constant(text.substr(start)));
        return Sig::concat_all(std::move(parts));
    }

    /// Eagerly expands a gson-deserialized POJO class into the demand tree.
    void expand_pojo(const DemandNodePtr& node, const std::string& class_name, int depth) {
        if (depth > 4) return;
        const Class* cls = program_->find_class(class_name);
        if (!cls) return;
        if (node->kind == DemandNode::Kind::kUnknown) node->kind = DemandNode::Kind::kObject;
        for (const auto& field : cls->fields) {
            DemandNodePtr child = node->child(field.name);
            if (child->origin.empty()) {
                child->origin = "pojo:" + class_name + "." + field.name;
                child->from_reflection = true;
            }
            if (is_array_type(field.type)) {
                child->kind = DemandNode::Kind::kArray;
                std::string element = field.type.substr(0, field.type.size() - 2);
                if (program_->find_class(element)) {
                    expand_pojo(child->array_item(), element, depth + 1);
                } else {
                    child->array_item()->narrow(demand_kind_for_type(element));
                }
            } else if (program_->find_class(field.type)) {
                expand_pojo(child, field.type, depth + 1);
            } else {
                child->narrow(demand_kind_for_type(field.type));
            }
        }
    }

    /// Serializes an app object (gson.toJson) into a JSON signature.
    Sig pojo_to_sig(const SigValue& v, int depth) {
        if (depth > 4) return Sig::unknown();
        if (v.is(SigValue::Kind::kObject) && v.object) {
            Sig obj = Sig::json_object();
            for (const auto& [field, value] : *v.object) {
                if (value.is(SigValue::Kind::kObject)) {
                    obj.set_member(field, pojo_to_sig(value, depth + 1));
                } else {
                    obj.set_member(field, value.to_sig());
                }
            }
            return obj;
        }
        if (v.is(SigValue::Kind::kJson) && v.shared_sig) return *v.shared_sig;
        return Sig::unknown();
    }

    // ----------------------------------------------------------- capture --

    void capture(const Invoke& s, const Method& method, Env& env,
                 const SigValue& base_value, const std::vector<SigValue>& args) {
        const DemarcationSpec* dp = request_->dp;
        auto role_value = [&](const Role& role) -> SigValue {
            switch (role.pos) {
                case Role::Pos::kBase: return base_value;
                case Role::Pos::kArg: {
                    auto index = static_cast<std::size_t>(role.arg_index);
                    return index < args.size() ? args[index] : SigValue::none();
                }
                case Role::Pos::kReturn: return SigValue::none();
            }
            return SigValue::none();
        };

        captured_ = true;
        out_.library = dp->library;
        if (response_root_->origin.empty()) {
            response_root_->origin = "dp:" + dp->cls + "." + dp->method;
        }
        if (dp->library == "android.media") {
            out_.consumer = semantics::ConsumerKind::kMediaPlayer;
        } else if (dp->library == "picasso") {
            out_.consumer = semantics::ConsumerKind::kImageView;
        }

        if (dp->request) {
            SigValue reqv = role_value(*dp->request);
            if (reqv.is(SigValue::Kind::kRequest) && reqv.request) {
                const RequestState& state = *reqv.request;
                if (state.method == "RAW") {
                    capture_raw_socket(state);
                } else {
                    auto parsed = http::parse_method(state.method);
                    out_.method = parsed.ok() ? parsed.value() : http::Method::kGet;
                    out_.uri = state.uri;
                    out_.headers = state.headers;
                    if (state.body) assign_body(*state.body);
                }
            } else {
                // String-URL style DP (loopj / media player / picasso).
                out_.method = dp->method == "post" ? http::Method::kPost
                                                   : http::Method::kGet;
                out_.uri = reqv.to_sig();
            }
        }

        if (dp->response && dp->response->pos == Role::Pos::kReturn && s.dst) {
            bind(env, *s.dst, SigValue::of_demand(response_root_));
        }
        if (dp->response_callback) {
            auto index = static_cast<std::size_t>(dp->response_callback->arg_index);
            if (index < s.args.size() && s.args[index].is_local()) {
                const Type& listener_type = method.locals[s.args[index].local].type;
                if (const Method* target = program_->resolve_virtual(
                        {listener_type, dp->response_callback->method})) {
                    pending_callbacks_.emplace_back(target->ref(),
                                                    dp->response_callback->param_index);
                }
            }
        }
    }

    /// §4 extension: a raw java.net.Socket transaction. The request is the
    /// text written to the output stream; when it is HTTP-shaped
    /// ("VERB <path> HTTP/1.1\r\nHeader: v\r\n\r\n<body>"), reconstruct the
    /// usual method/URI/header/body signature from the text signature.
    void capture_raw_socket(const RequestState& state) {
        Sig written = state.body ? state.body->to_sig() : Sig::constant("");
        std::vector<Sig> parts;
        if (written.kind == Sig::Kind::kConcat) {
            parts = written.children;
        } else {
            parts.push_back(written);
        }

        // Defaults if the stream is not HTTP-shaped: a raw endpoint with the
        // whole written text as an opaque body.
        out_.method = http::Method::kGet;
        out_.uri = Sig::concat(Sig::constant("tcp://"), state.uri);
        if (parts.empty() || parts[0].kind != Sig::Kind::kConst) {
            out_.has_body = !parts.empty();
            out_.body = written;
            out_.body_kind = http::BodyKind::kText;
            return;
        }

        // Verb.
        static const std::pair<const char*, http::Method> kVerbs[] = {
            {"GET ", http::Method::kGet},       {"POST ", http::Method::kPost},
            {"PUT ", http::Method::kPut},       {"DELETE ", http::Method::kDelete},
            {"HEAD ", http::Method::kHead},     {"PATCH ", http::Method::kPatch},
        };
        std::string first = parts[0].text;
        bool is_http = false;
        for (const auto& [prefix, verb] : kVerbs) {
            if (strings::starts_with(first, prefix)) {
                out_.method = verb;
                parts[0] = Sig::constant(first.substr(std::string(prefix).size()));
                is_http = true;
                break;
            }
        }
        if (!is_http) {
            out_.has_body = true;
            out_.body = written;
            out_.body_kind = http::BodyKind::kText;
            return;
        }

        // Path: parts up to the const containing " HTTP/"; then headers up
        // to the blank line; then the entity body.
        std::vector<Sig> path_parts;
        std::string headers_text;
        std::vector<Sig> body_parts;
        enum class Phase { kPath, kHeaders, kBody } phase = Phase::kPath;
        for (auto& part : parts) {
            if (phase == Phase::kPath) {
                if (part.kind == Sig::Kind::kConst) {
                    auto marker = part.text.find(" HTTP/");
                    if (marker != std::string::npos) {
                        path_parts.push_back(Sig::constant(part.text.substr(0, marker)));
                        headers_text = part.text.substr(marker);
                        auto blank = headers_text.find("\r\n\r\n");
                        if (blank != std::string::npos &&
                            blank + 4 < headers_text.size()) {
                            body_parts.push_back(
                                Sig::constant(headers_text.substr(blank + 4)));
                            headers_text = headers_text.substr(0, blank);
                            phase = Phase::kBody;
                        } else {
                            phase = Phase::kHeaders;
                        }
                        continue;
                    }
                }
                path_parts.push_back(part);
            } else if (phase == Phase::kHeaders) {
                if (part.kind == Sig::Kind::kConst) {
                    auto blank = part.text.find("\r\n\r\n");
                    if (blank != std::string::npos) {
                        headers_text += part.text.substr(0, blank);
                        if (blank + 4 < part.text.size()) {
                            body_parts.push_back(
                                Sig::constant(part.text.substr(blank + 4)));
                        }
                        phase = Phase::kBody;
                        continue;
                    }
                    headers_text += part.text;
                } else {
                    // Dynamic header values: keep them opaque.
                    headers_text += "\x01";
                }
            } else {
                body_parts.push_back(part);
            }
        }

        // Headers ("Name: value" lines after the HTTP/1.x marker).
        std::string host;
        for (const auto& line : strings::split(headers_text, '\n')) {
            std::string_view trimmed = strings::trim(line);
            auto colon = trimmed.find(':');
            if (colon == std::string_view::npos || colon == 0) continue;
            std::string name(strings::trim(trimmed.substr(0, colon)));
            std::string value(strings::trim(trimmed.substr(colon + 1)));
            if (strings::contains(name, "HTTP/") || strings::contains(name, "\x01")) {
                continue;
            }
            if (strings::to_lower(name) == "host") {
                host = value;
            } else {
                out_.headers.emplace_back(Sig::constant(name), Sig::constant(value));
            }
        }

        // URI: http://<host><path>. Fall back to the socket endpoint when no
        // Host header was written.
        Sig host_sig = host.empty() ? state.uri : Sig::constant(host);
        std::vector<Sig> uri_parts = {Sig::constant("http://"), std::move(host_sig)};
        for (auto& p : path_parts) uri_parts.push_back(std::move(p));
        out_.uri = Sig::concat_all(std::move(uri_parts));

        Sig body = Sig::concat_all(std::move(body_parts));
        if (!(body == Sig::constant(""))) {
            out_.has_body = true;
            out_.body_kind = body.kind == Sig::Kind::kJsonObject
                                 ? http::BodyKind::kJson
                                 : (body.keywords().empty() ? http::BodyKind::kText
                                                            : http::BodyKind::kQueryString);
            out_.body = std::move(body);
        }
    }

    void assign_body(const SigValue& body) {
        out_.has_body = true;
        switch (body.kind) {
            case SigValue::Kind::kList:
                out_.body = body.to_sig();
                out_.body_kind = http::BodyKind::kQueryString;
                break;
            case SigValue::Kind::kJson:
                out_.body = body.shared_sig ? *body.shared_sig : Sig::unknown();
                out_.body_kind =
                    out_.body.kind == Sig::Kind::kXmlElement ? http::BodyKind::kXml
                                                             : http::BodyKind::kJson;
                break;
            default: {
                Sig sig = body.to_sig();
                if (sig.kind == Sig::Kind::kJsonObject || sig.kind == Sig::Kind::kJsonArray) {
                    out_.body_kind = http::BodyKind::kJson;
                } else if (sig.kind == Sig::Kind::kXmlElement) {
                    out_.body_kind = http::BodyKind::kXml;
                } else {
                    // Flat text: query-string shaped if its constants carry
                    // key= markers.
                    bool has_kv = false;
                    for (const auto& kw : sig.keywords()) {
                        (void)kw;
                        has_kv = true;
                        break;
                    }
                    out_.body_kind =
                        has_kv ? http::BodyKind::kQueryString : http::BodyKind::kText;
                }
                out_.body = std::move(sig);
            }
        }
    }

    void finalize_response() {
        const DemandNode& root = *response_root_;
        if (root.kind == DemandNode::Kind::kUnknown && root.members.empty() && !root.item) {
            out_.has_response_body = false;
            return;
        }
        out_.has_response_body = true;
        out_.response_body = root.to_sig();
        switch (root.kind) {
            case DemandNode::Kind::kXml: out_.response_kind = http::BodyKind::kXml; break;
            case DemandNode::Kind::kObject:
            case DemandNode::Kind::kArray:
                out_.response_kind = http::BodyKind::kJson;
                break;
            default: out_.response_kind = http::BodyKind::kText;
        }
    }

    const Program* program_;
    const CallGraph* callgraph_;
    const semantics::SemanticModel* model_;
    const std::vector<std::uint32_t>* handlers_;
    const BuildRequest* request_;

    std::map<std::string, SigValue> statics_;
    std::map<std::string, Sig> db_;
    std::map<std::string, SigValue> prefs_;
    std::set<std::uint32_t> on_stack_;

    bool captured_ = false;
    std::size_t steps_ = 0;
    bool step_capped_ = false;
    /// --profile (enabled at construction): statements executed per touched
    /// method, flushed in ascending method order.
    bool profiling_;
    std::map<std::uint32_t, std::uint64_t> method_stmts_;
    TransactionSignature out_;
    DemandNodePtr response_root_;
    std::vector<std::pair<MethodRef, int>> pending_callbacks_;

public:
    [[nodiscard]] std::size_t steps() const { return steps_; }
    [[nodiscard]] bool step_capped() const { return step_capped_; }

    /// Charges the per-method statement counts to the innermost
    /// obs::RunScope unit (the site row's count is the build's steps()).
    void flush_profile() const {
        if (!profiling_) return;
        const auto& methods = program_->method_table();
        for (const auto& [mi, stmts] : method_stmts_) {
            obs::RunScope::charge_method(
                obs::profile_method_key(program_->app_name,
                                        methods[mi]->ref().qualified()),
                0, stmts);
        }
    }
};

}  // namespace

SignatureBuilder::SignatureBuilder(const Program& program, const CallGraph& callgraph,
                                   const semantics::SemanticModel& model)
    : program_(&program), callgraph_(&callgraph), model_(&model) {
    for (const auto& event : program.events) {
        if (auto mi = program.method_index(event.handler)) handlers_.push_back(*mi);
    }
}

std::optional<TransactionSignature> SignatureBuilder::build(const BuildRequest& request,
                                                            BuildStats* stats) {
    obs::Span span("sig.build", "sig");
    Interp interp(*program_, *callgraph_, *model_, handlers_, request);
    auto signature = interp.run();
    interp.flush_profile();
    if (stats) {
        stats->steps = interp.steps();
        stats->step_capped = interp.step_capped();
    }
    // Each instrument is acquired once, where it is first used: a build
    // that never fails leaves sig.build_failures unregistered.
    if (signature) {
        static obs::Counter& built = obs::counter("sig.signatures_built");
        built.add(1);
    } else {
        static obs::Counter& failures = obs::counter("sig.build_failures");
        failures.add(1);
    }
    span.finish();
    static obs::Histogram& build_ms = obs::histogram("sig.build_ms");
    build_ms.observe(span.seconds() * 1000.0);
    return signature;
}

}  // namespace extractocol::sig

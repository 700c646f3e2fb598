#include "slicing/slicer.hpp"

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace extractocol::slicing {

using namespace xir;
using semantics::DemarcationSpec;
using semantics::Role;
using taint::AccessPath;
using taint::Direction;
using taint::TaintSeed;

Slicer::Slicer(const Program& program, const semantics::SemanticModel& model,
               SlicerOptions options)
    : program_(&program), model_(&model), options_(options) {
    callgraph_ = std::make_unique<CallGraph>(program, model.callback_resolver());
    taint::EngineOptions engine_options;
    engine_options.cross_event_globals = options_.async_heuristic;
    engine_options.max_global_hops = options_.max_async_hops;
    engine_options.max_steps = options_.max_taint_steps;
    engine_ = std::make_unique<taint::TaintEngine>(program, *callgraph_, model,
                                                   engine_options);
}

std::vector<StmtRef> Slicer::demarcation_sites() const {
    std::vector<StmtRef> sites;
    const auto& methods = program_->method_table();
    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        const Method& method = *methods[mi];
        for (BlockId b = 0; b < method.blocks.size(); ++b) {
            const auto& stmts = method.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                const auto* call = std::get_if<Invoke>(&stmts[i]);
                if (!call) continue;
                if (model_->demarcation(call->callee.class_name,
                                        call->callee.method_name)) {
                    sites.push_back({mi, b, i});
                }
            }
        }
    }
    return sites;
}

std::vector<SlicedTransaction> Slicer::slice_all() {
    std::vector<SlicedTransaction> out;
    for (const StmtRef& site : demarcation_sites()) {
        auto txns = slice_site(site);
        out.insert(out.end(), std::make_move_iterator(txns.begin()),
                   std::make_move_iterator(txns.end()));
    }
    return out;
}

std::vector<SlicedTransaction> Slicer::slice_site(const StmtRef& site,
                                                  std::size_t* steps_used) {
    std::size_t steps = 0;
    std::vector<SlicedTransaction> out;
    if (steps_used) *steps_used = 0;
    const auto* call = std::get_if<Invoke>(&program_->statement(site));
    if (!call) return out;
    const DemarcationSpec* dp =
        model_->demarcation(call->callee.class_name, call->callee.method_name);
    if (!dp) return out;

    obs::Span span("slicing.site", "slicing");
    static obs::Counter& sites_sliced = obs::counter("slicer.dp_sites_sliced");
    sites_sliced.add(1);

    // One transaction per acyclic calling context (disjoint sub-slices).
    auto contexts = callgraph_->contexts_reaching(site.method_index, 24,
                                                  options_.max_contexts);
    static obs::Counter& contexts_sliced = obs::counter("slicer.contexts");
    contexts_sliced.add(contexts.size());
    obs::RunScope::charge_contexts(contexts.size());

    // Request/response slices are computed once per DP site (taint is
    // context-insensitive); contexts split the site into transactions.
    taint::TaintResult request_taint;
    taint::TaintResult response_taint;

    // ---- backward: request slice ----
    std::vector<TaintSeed> request_seeds;
    if (dp->request) {
        switch (dp->request->pos) {
            case Role::Pos::kBase:
                if (call->base) {
                    request_seeds.push_back({site, AccessPath::of_local(*call->base)});
                }
                break;
            case Role::Pos::kArg: {
                auto index = static_cast<std::size_t>(dp->request->arg_index);
                if (index < call->args.size() && call->args[index].is_local()) {
                    request_seeds.push_back(
                        {site, AccessPath::of_local(call->args[index].local)});
                }
                break;
            }
            case Role::Pos::kReturn: break;
        }
    }
    // Raw-socket DPs (§4 extension): the request text flows through the
    // socket's *output stream*, an alias of the socket itself. Seed every
    // same-method `os = <socket>.getOutputStream()` result too.
    if (dp->library == "java.net.socket" && call->base) {
        const Method& method = program_->method_at(site.method_index);
        for (BlockId b = 0; b < method.blocks.size(); ++b) {
            const auto& stmts = method.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                const auto* stream_call = std::get_if<Invoke>(&stmts[i]);
                if (!stream_call || !stream_call->dst || !stream_call->base) continue;
                if (stream_call->callee.method_name == "getOutputStream" &&
                    *stream_call->base == *call->base) {
                    request_seeds.push_back(
                        {site, AccessPath::of_local(*stream_call->dst)});
                }
            }
        }
    }
    if (!request_seeds.empty()) {
        request_taint = engine_->run(Direction::kBackward, request_seeds);
        steps += request_taint.steps_used;
    }

    // ---- forward: response slice ----
    std::vector<TaintSeed> response_seeds;
    if (dp->response && dp->response->pos == Role::Pos::kReturn && call->dst) {
        response_seeds.push_back({site, AccessPath::of_local(*call->dst)});
    }
    if (dp->response_callback) {
        auto index = static_cast<std::size_t>(dp->response_callback->arg_index);
        if (index < call->args.size() && call->args[index].is_local()) {
            const Method& method = program_->method_at(site.method_index);
            const Type& listener_type = method.locals[call->args[index].local].type;
            if (const Method* target = program_->resolve_virtual(
                    {listener_type, dp->response_callback->method})) {
                auto tmi = program_->method_index(target->ref());
                std::uint32_t formal0 = target->is_static ? 0 : 1;
                std::uint32_t slot =
                    formal0 + static_cast<std::uint32_t>(
                                  dp->response_callback->param_index);
                if (tmi && slot < target->param_count) {
                    TaintSeed seed;
                    seed.stmt = {*tmi, 0, 0};
                    seed.path = AccessPath::of_local(slot);
                    seed.at_block_boundary = true;
                    response_seeds.push_back(seed);
                }
            }
        }
    }
    if (!response_seeds.empty()) {
        response_taint = engine_->run(Direction::kForward, response_seeds);
        steps += response_taint.steps_used;
    }

    std::vector<StmtRef> combined = augment(response_taint.statements, steps);
    if (steps_used) *steps_used = steps;
    combined.insert(combined.end(), request_taint.statements.begin(),
                    request_taint.statements.end());
    combined.insert(combined.end(), response_taint.statements.begin(),
                    response_taint.statements.end());
    combined.push_back(site);
    std::sort(combined.begin(), combined.end());
    combined.erase(std::unique(combined.begin(), combined.end()), combined.end());

    // Contexts and sites are nearly 1:1, so each context owns its slices:
    // the last one takes the site's by move, any earlier one copies them.
    for (std::size_t c = 0; c < contexts.size(); ++c) {
        const bool last = c + 1 == contexts.size();
        SlicedTransaction txn;
        txn.dp_site = site;
        txn.dp = dp;
        txn.context = std::move(contexts[c]);
        txn.combined_slice = last ? std::move(combined) : combined;
        txn.request_taint = last ? std::move(request_taint) : request_taint;
        txn.response_taint = last ? std::move(response_taint) : response_taint;
        resolve_trigger(txn);
        out.push_back(std::move(txn));
    }
    return out;
}

void Slicer::resolve_trigger(SlicedTransaction& txn) const {
    std::uint32_t root = txn.context.empty() ? txn.dp_site.method_index
                                             : txn.context.front().caller;
    const Method& method = program_->method_at(root);
    for (const auto& event : program_->events) {
        if (event.handler == method.ref()) {
            txn.trigger = event.label;
            txn.trigger_kind = event.kind;
            return;
        }
    }
    txn.trigger = "unknown:" + method.ref().qualified();
}

std::vector<StmtRef> Slicer::augment(const std::vector<StmtRef>& response_slice,
                                     std::size_t& steps_used) {
    // Object-aware slice augmentation (§3.1): for every local a response-
    // slice statement *uses* without an in-slice definition earlier in the
    // same method, pull in the statements that construct it via backward
    // taint. The slice is sorted, so those earlier definitions are the run
    // from the method's first slice statement up to the use.
    std::vector<TaintSeed> seeds;
    std::set<std::pair<std::uint32_t, LocalId>> seen;
    auto method_begin = response_slice.begin();
    for (auto it = response_slice.begin(); it != response_slice.end(); ++it) {
        const StmtRef& ref = *it;
        if (ref.method_index != method_begin->method_index) method_begin = it;
        for_each_use(program_->statement(ref), [&](LocalId use) {
            if (!seen.insert({ref.method_index, use}).second) return;
            bool defined_in_slice =
                std::any_of(method_begin, it, [&](const StmtRef& other) {
                    auto def = def_of(program_->statement(other));
                    return def && *def == use;
                });
            if (!defined_in_slice) {
                seeds.push_back({ref, AccessPath::of_local(use)});
            }
        });
    }
    if (seeds.empty()) return {};
    static obs::Counter& augment_seeds = obs::counter("slicer.augment_seeds");
    augment_seeds.add(seeds.size());
    auto result = engine_->run(Direction::kBackward, seeds);
    steps_used += result.steps_used;
    return std::move(result.statements);
}

double Slicer::slice_fraction(const Program& program,
                              const std::vector<SlicedTransaction>& txns) {
    std::vector<StmtRef> all;
    for (const auto& txn : txns) {
        const auto& request = txn.request_taint.statements;
        const auto& response = txn.response_taint.statements;
        all.insert(all.end(), request.begin(), request.end());
        all.insert(all.end(), response.begin(), response.end());
    }
    std::sort(all.begin(), all.end());
    auto distinct = std::unique(all.begin(), all.end()) - all.begin();
    std::size_t total = program.total_statements();
    if (total == 0) return 0;
    return static_cast<double>(distinct) / static_cast<double>(total);
}

}  // namespace extractocol::slicing

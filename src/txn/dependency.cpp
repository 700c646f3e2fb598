#include "txn/dependency.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace extractocol::txn {

using namespace xir;
using semantics::ApiModel;
using semantics::ConsumerKind;
using semantics::Role;
using semantics::SigAction;
using semantics::SourceKind;
using slicing::SlicedTransaction;
using taint::AccessPath;
using taint::CallTaintEvent;
using taint::Direction;
using taint::TaintSeed;

namespace {

const std::string* const_string_arg(const Invoke& call, std::size_t index) {
    if (index >= call.args.size()) return nullptr;
    const Operand& op = call.args[index];
    if (op.is_constant() && op.constant.kind == Constant::Kind::kString) {
        return &op.constant.string_value;
    }
    return nullptr;
}

std::string consumer_name(ConsumerKind kind) {
    switch (kind) {
        case ConsumerKind::kMediaPlayer: return "media_player";
        case ConsumerKind::kImageView: return "image_view";
        case ConsumerKind::kFile: return "file";
        case ConsumerKind::kDatabase: return "database";
        case ConsumerKind::kUi: return "ui";
        case ConsumerKind::kNone: return "";
    }
    return "";
}

std::string source_name(SourceKind kind) {
    switch (kind) {
        case SourceKind::kMicrophone: return "microphone";
        case SourceKind::kCamera: return "camera";
        case SourceKind::kLocation: return "location";
        case SourceKind::kUserInput: return "user_input";
        case SourceKind::kPrefs: return "preferences";
        case SourceKind::kResource: return "resource";
        case SourceKind::kNone: return "";
    }
    return "";
}

}  // namespace

DependencyAnalyzer::DependencyAnalyzer(const Program& program, const CallGraph& callgraph,
                                       const semantics::SemanticModel& model,
                                       taint::TaintEngine& engine)
    : program_(&program), callgraph_(&callgraph), model_(&model), engine_(&engine) {}

const std::string* DependencyAnalyzer::element_tag_of(std::uint32_t method_index,
                                                      LocalId element_local) const {
    // Scan the method for `element_local = <list>.item(...)`, then for
    // `<list> = <doc>.getElementsByTagName("tag")`.
    const Method& method = program_->method_at(method_index);
    std::optional<LocalId> list_local;
    for (const auto& block : method.blocks) {
        for (const auto& stmt : block.statements) {
            const auto* call = std::get_if<Invoke>(&stmt);
            if (!call || !call->dst) continue;
            if (*call->dst == element_local && call->callee.method_name == "item" &&
                call->base) {
                list_local = *call->base;
            }
        }
    }
    if (!list_local) return nullptr;
    for (const auto& block : method.blocks) {
        for (const auto& stmt : block.statements) {
            const auto* call = std::get_if<Invoke>(&stmt);
            if (!call || !call->dst) continue;
            if (*call->dst == *list_local &&
                call->callee.method_name == "getElementsByTagName") {
                return const_string_arg(*call, 0);
            }
        }
    }
    return nullptr;
}

std::vector<DependencyAnalyzer::FieldTap> DependencyAnalyzer::response_taps(
    const SlicedTransaction& txn) const {
    // call_events has one event per statement, so each getter taps once.
    std::vector<FieldTap> taps;
    for (const CallTaintEvent& event : txn.response_taint.call_events) {
        if (!event.base_tainted) continue;
        if (!txn.response_taint.contains(event.stmt)) continue;
        const auto* call = std::get_if<Invoke>(&program_->statement(event.stmt));
        if (!call || !call->dst) continue;
        const ApiModel* api = model_->api(call->callee.class_name, call->callee.method_name);
        if (!api) continue;
        std::string field;
        switch (api->action) {
            case SigAction::kJsonGet: {
                const std::string* key = const_string_arg(*call, 0);
                if (!key) continue;
                field = *key;
                break;
            }
            case SigAction::kXmlGetAttribute: {
                const std::string* key = const_string_arg(*call, 0);
                if (!key) continue;
                field = "@" + *key;
                break;
            }
            case SigAction::kXmlGetText: {
                // Name the tap by the element's tag: walk the def chain
                // el = nodes.item(i); nodes = doc.getElementsByTagName("tag").
                field = "#text";
                if (call->base) {
                    if (const std::string* tag =
                            element_tag_of(event.stmt.method_index, *call->base)) {
                        field = *tag;
                    }
                }
                break;
            }
            default: continue;
        }
        taps.push_back({event.stmt, *call->dst, std::move(field)});
    }
    // Whole-body tap: the response object itself may feed a later request
    // (e.g. a body string stored verbatim).
    const auto* dp_call = std::get_if<Invoke>(&program_->statement(txn.dp_site));
    if (dp_call && dp_call->dst && txn.dp->response) {
        taps.push_back({txn.dp_site, *dp_call->dst, ""});
    }
    return taps;
}

std::vector<Dependency> DependencyAnalyzer::analyze(
    const std::vector<SlicedTransaction>& txns, support::ThreadPool* pool) {
    obs::Span span("txn.dependencies", "txn");
    obs::Counter& taps_probed = obs::counter("txn.response_taps");

    // Landing index: (statement, j) for every statement of request j's
    // taint slice and for its DP site, sorted. A flow can only rank a
    // landing in j at a call event on one of those statements, so the
    // transactions its events hit are the only ones it can reach without a
    // global channel.
    std::vector<std::pair<StmtRef, std::size_t>> landing;
    for (std::size_t j = 0; j < txns.size(); ++j) {
        for (const StmtRef& stmt : txns[j].request_taint.statements) {
            landing.emplace_back(stmt, j);
        }
        landing.emplace_back(txns[j].dp_site, j);
    }
    std::sort(landing.begin(), landing.end());
    landing.erase(std::unique(landing.begin(), landing.end()), landing.end());

    // One probe per (transaction, tap), in that order. Each probe writes
    // only into its own slot and run unit, and both fold in probe order, so
    // the edges and counters do not depend on which thread ran what.
    struct Probe {
        std::size_t from = 0;
        FieldTap tap;
    };
    std::vector<Probe> probes;
    for (std::size_t i = 0; i < txns.size(); ++i) {
        if (txns[i].response_taint.statements.empty()) continue;
        for (FieldTap& tap : response_taps(txns[i])) probes.push_back({i, std::move(tap)});
    }
    std::vector<std::vector<Dependency>> found(probes.size());

    auto probe = [&](std::size_t k) {
        const std::size_t i = probes[k].from;
        const FieldTap& tap = probes[k].tap;
        taps_probed.add(1);
        TaintSeed seed;
        seed.stmt = tap.stmt;
        seed.path = AccessPath::of_local(tap.value);
        auto flow = engine_->run(Direction::kForward, {seed});

        // Candidate request transactions, ascending. A flow that crossed a
        // global channel can land in any of them as a bare "request" edge.
        std::vector<std::size_t> candidates;
        if (!flow.globals.empty()) {
            candidates.resize(txns.size());
            std::iota(candidates.begin(), candidates.end(), std::size_t{0});
        } else {
            auto it = landing.begin();
            for (const CallTaintEvent& event : flow.call_events) {
                it = std::lower_bound(it, landing.end(), event.stmt,
                                      [](const auto& entry, const StmtRef& stmt) {
                                          return entry.first < stmt;
                                      });
                for (; it != landing.end() && it->first == event.stmt; ++it) {
                    candidates.push_back(it->second);
                }
            }
            std::sort(candidates.begin(), candidates.end());
            candidates.erase(std::unique(candidates.begin(), candidates.end()),
                             candidates.end());
        }

        for (std::size_t j : candidates) {
            if (j == i) continue;
            const SlicedTransaction& req_txn = txns[j];

            // The mediating channel, if the flow crossed one. Several
            // channels can match; pick the lexicographically-smallest
            // rendering so the reported channel never depends on hash-set
            // iteration order (which is stdlib-specific).
            std::string via;
            for (const auto& g : flow.globals) {
                for (const auto& h : req_txn.request_taint.globals) {
                    if (h == g || h.has_prefix(g) || g.has_prefix(h)) {
                        namespace in = support::intern;
                        std::string channel =
                            g.is_static()
                                ? "static:" + std::string(in::str(g.static_class)) + "." +
                                      std::string(in::str(g.key))
                                : std::string(in::str(g.key));
                        if (via.empty() || channel < via) via = std::move(channel);
                        break;
                    }
                }
            }

            // Rank candidate landing sites; prefer the most specific.
            std::string best;
            int best_rank = -1;
            auto consider = [&](std::string field, int rank) {
                if (rank > best_rank) {
                    best = std::move(field);
                    best_rank = rank;
                }
            };
            for (const CallTaintEvent& event : flow.call_events) {
                bool at_dp = event.stmt == req_txn.dp_site;
                bool in_request = req_txn.request_taint.contains(event.stmt);
                if (!at_dp && !in_request) continue;
                const auto* call = std::get_if<Invoke>(&program_->statement(event.stmt));
                if (!call) continue;
                bool arg1_tainted = event.args_tainted.size() > 1 && event.args_tainted[1];
                bool arg0_tainted = !event.args_tainted.empty() && event.args_tainted[0];
                const ApiModel* api =
                    model_->api(call->callee.class_name, call->callee.method_name);
                SigAction action = api ? api->action : SigAction::kNone;
                switch (action) {
                    case SigAction::kNameValuePairInit:
                    case SigAction::kJsonPut:
                    case SigAction::kContentValuesPut:
                    case SigAction::kMapPut: {
                        const std::string* key = const_string_arg(*call, 0);
                        if (key && arg1_tainted) consider("body:" + *key, 3);
                        break;
                    }
                    case SigAction::kHttpSetHeader:
                    case SigAction::kOkHeader: {
                        const std::string* name = const_string_arg(*call, 0);
                        if (name && arg1_tainted) consider("header:" + *name, 3);
                        break;
                    }
                    case SigAction::kAppend:
                    case SigAction::kStringConcat:
                    case SigAction::kUrlInit:
                    case SigAction::kOkUrl:
                    case SigAction::kHttpRequestInit:
                        if (arg0_tainted) consider("uri", 2);
                        break;
                    default:
                        if (at_dp && (arg0_tainted || event.base_tainted)) {
                            consider("uri", 1);
                        }
                        break;
                }
            }
            if (best_rank >= 0) {
                found[k].push_back({i, j, tap.field, std::move(best), std::move(via)});
            } else if (!via.empty()) {
                found[k].push_back({i, j, tap.field, "request", std::move(via)});
            }
        }
    };

    // The probes' units fold through a scope nested in the caller's, so the
    // caller's run counts their work whichever thread did it.
    obs::RunScope scope;
    obs::RunScope::Stage stage(scope, probes.size());
    auto run_probe = [&](std::size_t k) { stage.run(k, [&] { probe(k); }); };
    if (pool != nullptr) {
        pool->for_each_index(probes.size(), run_probe);
    } else {
        for (std::size_t k = 0; k < probes.size(); ++k) run_probe(k);
    }
    (void)stage.finish();

    // Fold the slots in probe order; the first occurrence of an edge wins.
    std::vector<Dependency> edges;
    std::unordered_set<Dependency, DependencyHash> seen;
    for (auto& slot : found) {
        for (Dependency& edge : slot) {
            if (seen.insert(edge).second) edges.push_back(std::move(edge));
        }
    }
    static obs::Counter& pairings = obs::counter("txn.pairings");
    pairings.add(edges.size());
    (void)scope.close();
    return edges;
}

BehaviorTags DependencyAnalyzer::tags(const SlicedTransaction& txn) const {
    BehaviorTags out;
    auto add_unique = [](std::vector<std::string>& list, std::string value) {
        if (!value.empty() &&
            std::find(list.begin(), list.end(), value) == list.end()) {
            list.push_back(std::move(value));
        }
    };
    for (const CallTaintEvent& event : txn.response_taint.call_events) {
        const auto* call = std::get_if<Invoke>(&program_->statement(event.stmt));
        if (!call) continue;
        const ApiModel* api = model_->api(call->callee.class_name, call->callee.method_name);
        if (!api) continue;
        bool any_arg = std::any_of(event.args_tainted.begin(), event.args_tainted.end(),
                                   [](bool b) { return b; });
        if ((any_arg || event.base_tainted) && api->consumer != ConsumerKind::kNone) {
            add_unique(out.consumers, consumer_name(api->consumer));
        }
    }
    for (const CallTaintEvent& event : txn.request_taint.call_events) {
        const auto* call = std::get_if<Invoke>(&program_->statement(event.stmt));
        if (!call) continue;
        const ApiModel* api = model_->api(call->callee.class_name, call->callee.method_name);
        if (!api) continue;
        if (event.dst_tainted && api->source != SourceKind::kNone) {
            add_unique(out.sources, source_name(api->source));
        }
    }
    return out;
}

}  // namespace extractocol::txn

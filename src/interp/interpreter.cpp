#include "interp/interpreter.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "text/json.hpp"
#include "text/uri.hpp"
#include "text/xml.hpp"

namespace extractocol::interp {

using namespace xir;

// ------------------------------------------------------- scripted server --

void ScriptedServer::route(std::string path_prefix, Handler handler) {
    routes_.emplace_back(std::move(path_prefix), std::move(handler));
}

void ScriptedServer::route_fixed(std::string path_prefix, http::BodyKind kind,
                                 std::string body) {
    http::Response response;
    response.status = 200;
    response.body_kind = kind;
    response.body = std::move(body);
    route(std::move(path_prefix), [response](const http::Request&) { return response; });
}

http::Response ScriptedServer::handle(const http::Request& request) {
    std::string key = request.uri.host + request.uri.path;
    for (const auto& [prefix, handler] : routes_) {
        if (strings::starts_with(key, prefix)) return handler(request);
    }
    http::Response not_found;
    not_found.status = 404;
    return not_found;
}

bool event_enabled(EventKind kind, FuzzMode mode) {
    switch (kind) {
        case EventKind::kOnCreate:
        case EventKind::kOnClick:
            return true;
        case EventKind::kOnCustomUi:
        case EventKind::kOnLogin:
        case EventKind::kOnLocation:
            return mode != FuzzMode::kAuto;
        case EventKind::kOnTimer:
        case EventKind::kOnServerPush:
        case EventKind::kOnAction:
            return mode == FuzzMode::kFull;
        case EventKind::kOnIntent:
            // Intents fire only when app code sends them (startActivity),
            // never as a directly-driven fuzz event.
            return false;
    }
    return false;
}

// ----------------------------------------------------------------- values --

namespace {

struct RtObject;
using RtObjectPtr = std::shared_ptr<RtObject>;

struct RtValue {
    enum class Kind { kNull, kInt, kDouble, kBool, kString, kObject };
    Kind kind = Kind::kNull;
    std::int64_t int_value = 0;
    double double_value = 0;
    bool bool_value = false;
    std::string string_value;
    RtObjectPtr object;

    static RtValue null() { return {}; }
    static RtValue of_int(std::int64_t v) {
        RtValue r;
        r.kind = Kind::kInt;
        r.int_value = v;
        return r;
    }
    static RtValue of_double(double v) {
        RtValue r;
        r.kind = Kind::kDouble;
        r.double_value = v;
        return r;
    }
    static RtValue of_bool(bool v) {
        RtValue r;
        r.kind = Kind::kBool;
        r.bool_value = v;
        return r;
    }
    static RtValue of_string(std::string v) {
        RtValue r;
        r.kind = Kind::kString;
        r.string_value = std::move(v);
        return r;
    }
    static RtValue of_object(RtObjectPtr v) {
        RtValue r;
        r.kind = Kind::kObject;
        r.object = std::move(v);
        return r;
    }
    [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
    [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
    [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
};

/// One heap object: app-level fields plus builtin payloads for modeled
/// library classes (string builders, JSON documents, requests...).
struct RtObject {
    std::string class_name;
    std::map<std::string, RtValue> fields;

    std::string buffer;             // StringBuilder / entity / stream content
    std::size_t read_pos = 0;       // readLine cursor
    text::Json json;                // JSONObject / JSONArray / ContentValues
    std::vector<RtValue> list;      // lists / NodeLists

    // HTTP request under construction.
    std::string req_method = "GET";
    std::string url;
    std::vector<http::Header> headers;
    std::string body;
    http::BodyKind body_kind = http::BodyKind::kNone;
    RtObjectPtr listener;           // volley-style response listener

    http::Response response;        // response payload

    // Cursor rows.
    std::vector<std::map<std::string, std::string>> rows;
    std::ptrdiff_t row = -1;

    // XML document/element.
    std::shared_ptr<text::XmlElement> xml_root;
    const text::XmlElement* xml_node = nullptr;
};

std::string rt_to_string(const RtValue& v) {
    switch (v.kind) {
        case RtValue::Kind::kNull: return "null";
        case RtValue::Kind::kInt: return std::to_string(v.int_value);
        case RtValue::Kind::kDouble: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.4f", v.double_value);
            return buf;
        }
        case RtValue::Kind::kBool: return v.bool_value ? "true" : "false";
        case RtValue::Kind::kString: return v.string_value;
        case RtValue::Kind::kObject:
            if (!v.object) return "null";
            if (v.object->class_name == "java.lang.StringBuilder" ||
                v.object->class_name == "java.lang.StringBuffer") {
                return v.object->buffer;
            }
            if (v.object->json.is_object() || v.object->json.is_array()) {
                return v.object->json.dump();
            }
            if (!v.object->buffer.empty()) return v.object->buffer;
            return v.object->class_name;
    }
    return "";
}

RtValue json_to_rt(const text::Json& v) {
    switch (v.kind()) {
        case text::Json::Kind::kNull: return RtValue::null();
        case text::Json::Kind::kBool: return RtValue::of_bool(v.as_bool());
        case text::Json::Kind::kInt: return RtValue::of_int(v.as_int());
        case text::Json::Kind::kDouble: return RtValue::of_double(v.as_double());
        case text::Json::Kind::kString: return RtValue::of_string(v.as_string());
        default: {
            auto obj = std::make_shared<RtObject>();
            obj->class_name =
                v.is_array() ? "org.json.JSONArray" : "org.json.JSONObject";
            obj->json = v;
            return RtValue::of_object(obj);
        }
    }
}

}  // namespace

// ------------------------------------------------------------------ impl --

struct Interpreter::Impl {
    const Program* program;
    FakeServer* server;
    InterpreterOptions options;

    http::Trace trace;
    std::map<std::string, RtValue> statics;  // "Cls.field"
    std::map<std::string, std::vector<std::map<std::string, std::string>>> db;
    std::map<std::string, std::string> prefs;
    std::map<std::string, RtObjectPtr> singletons;  // persistent activity objects
    std::string current_trigger;
    std::size_t steps_left = 0;
    std::size_t depth = 0;
    // Hoisted instrument handles: the statement loop is the interpreter's
    // hot path, so each tick is one relaxed atomic add.
    obs::Counter* stmts_evaluated = &obs::counter("interp.stmts_evaluated");
    obs::Counter* events_fired = &obs::counter("interp.events_fired");
    // --profile: per-method statement tally, charged per frame (one map
    // update per call, not per statement) and flushed to the innermost run
    // scope after each fuzz pass.
    bool profiling = false;
    std::map<const Method*, std::uint64_t> profile_stmts;

    Impl(const Program& p, FakeServer& s, InterpreterOptions o)
        : program(&p), server(&s), options(o) {
        trace.app = p.app_name;
        profiling = obs::RunScope::profiling();
    }

    void flush_profile() {
        if (!profiling || profile_stmts.empty()) return;
        for (const auto& [method, count] : profile_stmts) {
            obs::RunScope::charge_method(
                obs::profile_method_key(program->app_name, method->ref().qualified()),
                0, count);
        }
        profile_stmts.clear();
    }

    RtObjectPtr singleton(const std::string& class_name) {
        auto it = singletons.find(class_name);
        if (it != singletons.end()) return it->second;
        auto obj = std::make_shared<RtObject>();
        obj->class_name = class_name;
        singletons[class_name] = obj;
        return obj;
    }

    // ------------------------------------------------------ http plumbing --
    RtObjectPtr perform(const RtObjectPtr& req) {
        auto response_obj = std::make_shared<RtObject>();
        response_obj->class_name = "org.apache.http.HttpResponse";
        auto uri = text::parse_uri(req->url);
        if (!uri.ok()) {
            log::debug().kv("trigger", current_trigger)
                << "interpreter: unparsable url '" << req->url << "'";
            response_obj->response.status = 0;
            return response_obj;
        }
        http::Transaction txn;
        txn.request.method =
            http::parse_method(req->req_method).value_or(http::Method::kGet);
        txn.request.uri = std::move(uri).take();
        txn.request.headers = req->headers;
        txn.request.body = req->body;
        txn.request.body_kind = req->body.empty() ? http::BodyKind::kNone
                                                  : http::classify_body(req->body);
        txn.response = server->handle(txn.request);
        txn.trigger = current_trigger;
        response_obj->response = txn.response;
        trace.transactions.push_back(std::move(txn));
        return response_obj;
    }

    // ------------------------------------------------------ method calls --
    RtValue call(const Method& method, std::vector<RtValue> args) {
        if (depth > options.max_call_depth) return RtValue::null();
        ++depth;
        std::vector<RtValue> env(method.locals.size());
        for (std::size_t i = 0; i < args.size() && i < method.param_count; ++i) {
            env[i] = std::move(args[i]);
        }
        RtValue result;
        BlockId block = 0;
        std::uint64_t frame_stmts = 0;
        while (true) {
            if (block >= method.blocks.size()) break;
            const auto& stmts = method.blocks[block].statements;
            std::optional<BlockId> next;
            bool returned = false;
            for (const auto& stmt : stmts) {
                if (steps_left == 0) {
                    log::warn().kv("method", method.ref().qualified())
                        << "interpreter: step budget exhausted";
                    --depth;
                    if (profiling && frame_stmts > 0) profile_stmts[&method] += frame_stmts;
                    return result;
                }
                --steps_left;
                stmts_evaluated->add(1);
                ++frame_stmts;
                if (exec_stmt(method, stmt, env, next, returned, result)) continue;
            }
            if (returned || !next) break;
            block = *next;
        }
        --depth;
        if (profiling && frame_stmts > 0) profile_stmts[&method] += frame_stmts;
        return result;
    }

    RtValue operand(const Method& method, const std::vector<RtValue>& env,
                    const Operand& op) {
        (void)method;
        if (op.is_local()) return env[op.local];
        switch (op.constant.kind) {
            case Constant::Kind::kNull: return RtValue::null();
            case Constant::Kind::kInt: return RtValue::of_int(op.constant.int_value);
            case Constant::Kind::kDouble:
                return RtValue::of_double(op.constant.double_value);
            case Constant::Kind::kString:
                return RtValue::of_string(op.constant.string_value);
            case Constant::Kind::kBool: return RtValue::of_bool(op.constant.bool_value);
        }
        return RtValue::null();
    }

    static bool rt_equal(const RtValue& a, const RtValue& b) {
        if (a.kind != b.kind) {
            // null comparisons against object/string.
            if (a.is_null() || b.is_null()) {
                const RtValue& other = a.is_null() ? b : a;
                if (other.is_object()) return other.object == nullptr;
                return false;
            }
            // int/double cross compare
            if ((a.kind == RtValue::Kind::kInt && b.kind == RtValue::Kind::kDouble) ||
                (a.kind == RtValue::Kind::kDouble && b.kind == RtValue::Kind::kInt)) {
                double av = a.kind == RtValue::Kind::kInt
                                ? static_cast<double>(a.int_value)
                                : a.double_value;
                double bv = b.kind == RtValue::Kind::kInt
                                ? static_cast<double>(b.int_value)
                                : b.double_value;
                return av == bv;
            }
            return false;
        }
        switch (a.kind) {
            case RtValue::Kind::kNull: return true;
            case RtValue::Kind::kInt: return a.int_value == b.int_value;
            case RtValue::Kind::kDouble: return a.double_value == b.double_value;
            case RtValue::Kind::kBool: return a.bool_value == b.bool_value;
            case RtValue::Kind::kString: return a.string_value == b.string_value;
            case RtValue::Kind::kObject: return a.object == b.object;
        }
        return false;
    }

    static std::int64_t rt_int(const RtValue& v) {
        switch (v.kind) {
            case RtValue::Kind::kInt: return v.int_value;
            case RtValue::Kind::kDouble: return static_cast<std::int64_t>(v.double_value);
            case RtValue::Kind::kBool: return v.bool_value ? 1 : 0;
            case RtValue::Kind::kString: {
                // Guarded parse: coercion failure yields 0 (Java-ish laxness)
                // without routing a hot path through throw/catch — and without
                // a catch(...) that would swallow unrelated exceptions.
                const std::string& s = v.string_value;
                std::int64_t parsed = 0;
                auto [end, ec] =
                    std::from_chars(s.data(), s.data() + s.size(), parsed);
                if (ec != std::errc{} || end != s.data() + s.size()) return 0;
                return parsed;
            }
            default: return 0;
        }
    }

    bool exec_stmt(const Method& method, const Statement& stmt, std::vector<RtValue>& env,
                   std::optional<BlockId>& next, bool& returned, RtValue& result) {
        return std::visit(
            [&](const auto& s) -> bool {
                using T = std::decay_t<decltype(s)>;
                if constexpr (std::is_same_v<T, Nop>) {
                } else if constexpr (std::is_same_v<T, AssignConst>) {
                    env[s.dst] = operand(method, env, Operand(s.value));
                } else if constexpr (std::is_same_v<T, AssignCopy>) {
                    env[s.dst] = env[s.src];
                } else if constexpr (std::is_same_v<T, NewObject>) {
                    auto obj = std::make_shared<RtObject>();
                    obj->class_name = s.class_name;
                    if (s.class_name == "org.json.JSONObject" ||
                        s.class_name == "android.content.ContentValues") {
                        obj->json = text::Json::object();
                    } else if (s.class_name == "org.json.JSONArray") {
                        obj->json = text::Json::array();
                    }
                    env[s.dst] = RtValue::of_object(obj);
                } else if constexpr (std::is_same_v<T, LoadField>) {
                    const RtValue& base = env[s.base];
                    env[s.dst] = base.is_object() && base.object
                                     ? lookup_field(*base.object, s.field)
                                     : RtValue::null();
                } else if constexpr (std::is_same_v<T, StoreField>) {
                    RtValue& base = env[s.base];
                    if (base.is_object() && base.object) {
                        base.object->fields[s.field] = operand(method, env, s.src);
                    }
                } else if constexpr (std::is_same_v<T, LoadStatic>) {
                    auto it = statics.find(s.class_name + "." + s.field);
                    env[s.dst] = it != statics.end() ? it->second : RtValue::null();
                } else if constexpr (std::is_same_v<T, StoreStatic>) {
                    statics[s.class_name + "." + s.field] = operand(method, env, s.src);
                } else if constexpr (std::is_same_v<T, LoadArray>) {
                    const RtValue& base = env[s.array];
                    auto index = static_cast<std::size_t>(
                        rt_int(operand(method, env, s.index)));
                    if (base.is_object() && base.object &&
                        index < base.object->list.size()) {
                        env[s.dst] = base.object->list[index];
                    } else {
                        env[s.dst] = RtValue::null();
                    }
                } else if constexpr (std::is_same_v<T, StoreArray>) {
                    RtValue& base = env[s.array];
                    if (base.is_object() && base.object) {
                        auto index = static_cast<std::size_t>(
                            rt_int(operand(method, env, s.index)));
                        auto& list = base.object->list;
                        if (list.size() <= index) list.resize(index + 1);
                        list[index] = operand(method, env, s.src);
                    }
                } else if constexpr (std::is_same_v<T, BinaryOp>) {
                    RtValue lhs = operand(method, env, s.lhs);
                    RtValue rhs = operand(method, env, s.rhs);
                    if (s.op == BinaryOp::Op::kConcat ||
                        (s.op == BinaryOp::Op::kAdd &&
                         (lhs.is_string() || rhs.is_string()))) {
                        env[s.dst] =
                            RtValue::of_string(rt_to_string(lhs) + rt_to_string(rhs));
                    } else {
                        std::int64_t a = rt_int(lhs), b = rt_int(rhs);
                        std::int64_t v = 0;
                        switch (s.op) {
                            case BinaryOp::Op::kAdd: v = a + b; break;
                            case BinaryOp::Op::kSub: v = a - b; break;
                            case BinaryOp::Op::kMul: v = a * b; break;
                            case BinaryOp::Op::kDiv: v = b == 0 ? 0 : a / b; break;
                            case BinaryOp::Op::kConcat: break;
                        }
                        env[s.dst] = RtValue::of_int(v);
                    }
                } else if constexpr (std::is_same_v<T, Invoke>) {
                    RtValue r = do_invoke(method, s, env);
                    if (s.dst) env[*s.dst] = std::move(r);
                } else if constexpr (std::is_same_v<T, If>) {
                    RtValue lhs = operand(method, env, s.lhs);
                    RtValue rhs = operand(method, env, s.rhs);
                    bool taken = false;
                    switch (s.op) {
                        case CmpOp::kEq: taken = rt_equal(lhs, rhs); break;
                        case CmpOp::kNe: taken = !rt_equal(lhs, rhs); break;
                        case CmpOp::kLt: taken = rt_int(lhs) < rt_int(rhs); break;
                        case CmpOp::kLe: taken = rt_int(lhs) <= rt_int(rhs); break;
                        case CmpOp::kGt: taken = rt_int(lhs) > rt_int(rhs); break;
                        case CmpOp::kGe: taken = rt_int(lhs) >= rt_int(rhs); break;
                    }
                    next = taken ? s.then_block : s.else_block;
                } else if constexpr (std::is_same_v<T, Goto>) {
                    next = s.target;
                } else if constexpr (std::is_same_v<T, Return>) {
                    if (s.value) result = operand(method, env, *s.value);
                    returned = true;
                }
                return true;
            },
            stmt);
    }

    RtValue lookup_field(RtObject& obj, const std::string& field) {
        auto it = obj.fields.find(field);
        if (it != obj.fields.end()) return it->second;
        return RtValue::null();
    }

    // ----------------------------------------------------------- invokes --
    RtValue do_invoke(const Method& caller, const Invoke& s, std::vector<RtValue>& env) {
        RtValue base = s.base ? env[*s.base] : RtValue::null();
        std::vector<RtValue> args;
        args.reserve(s.args.size());
        for (const auto& a : s.args) args.push_back(operand(caller, env, a));

        // App-defined target? Resolve like the call graph does: receiver's
        // declared type first, then the static callee class.
        const Method* target = nullptr;
        if (s.kind == InvokeKind::kVirtual && s.base) {
            const Type& receiver = caller.locals[*s.base].type;
            if (program->find_class(receiver)) {
                target = program->resolve_virtual({receiver, s.callee.method_name});
            }
        }
        if (!target) {
            target = program->find_method(s.callee);
            if (!target) target = program->resolve_virtual(s.callee);
        }
        if (target) {
            std::vector<RtValue> call_args;
            if (!target->is_static) call_args.push_back(base);
            for (auto& a : args) call_args.push_back(std::move(a));
            return call(*target, std::move(call_args));
        }
        return api_call(caller, s, base, args, env);
    }

    RtValue api_call(const Method& caller, const Invoke& s, RtValue& base,
                     std::vector<RtValue>& args, std::vector<RtValue>& env);
    RtValue reflect_from_json(const text::Json& doc, const std::string& class_name);
    text::Json reflect_to_json(const RtValue& value);

    void run_handler(const EventRegistration& event) {
        const Method* handler = program->find_method(event.handler);
        if (!handler) return;
        events_fired->add(1);
        current_trigger = event.label;
        steps_left = options.max_steps_per_event;
        std::vector<RtValue> args;
        if (!handler->is_static) {
            args.push_back(RtValue::of_object(singleton(handler->class_name)));
        }
        for (std::uint32_t p = handler->is_static ? 0u : 1u; p < handler->param_count;
             ++p) {
            args.push_back(default_param(handler->locals[p].type));
        }
        call(*handler, std::move(args));
    }

    RtValue default_param(const Type& type) {
        if (type == "int" || type == "long") return RtValue::of_int(1);
        if (type == "boolean") return RtValue::of_bool(true);
        if (type == "java.lang.String") return RtValue::of_string("fuzz");
        auto obj = std::make_shared<RtObject>();
        obj->class_name = type;
        return RtValue::of_object(obj);
    }

    void dispatch_intent(const RtObjectPtr& intent) {
        // An explicit "action" extra targets the matching receiver only;
        // action-less intents broadcast to every registered receiver.
        std::string action;
        auto it = intent->fields.find("action");
        if (it != intent->fields.end()) action = rt_to_string(it->second);
        for (const auto& event : program->events) {
            if (event.kind != EventKind::kOnIntent) continue;
            if (!action.empty() && event.label != "intent:" + action) continue;
            const Method* handler = program->find_method(event.handler);
            if (!handler) continue;
            std::string saved_trigger = current_trigger;
            current_trigger = event.label;
            std::vector<RtValue> args;
            if (!handler->is_static) {
                args.push_back(RtValue::of_object(singleton(handler->class_name)));
            }
            for (std::uint32_t p = handler->is_static ? 0u : 1u; p < handler->param_count;
                 ++p) {
                if (strings::contains(handler->locals[p].type, "Intent")) {
                    args.push_back(RtValue::of_object(intent));
                } else {
                    args.push_back(default_param(handler->locals[p].type));
                }
            }
            call(*handler, std::move(args));
            current_trigger = std::move(saved_trigger);
        }
    }
};

// Defined out-of-line: the builtin library surface is large.
#include "interp/api_runtime.inc"

// ------------------------------------------------------------- interface --

Interpreter::Interpreter(const Program& program, FakeServer& server,
                         InterpreterOptions options)
    : impl_(std::make_shared<Impl>(program, server, options)) {}

http::Trace Interpreter::fuzz(FuzzMode mode) {
    obs::Span span("interp.fuzz", "interp");
    for (const auto& event : impl_->program->events) {
        if (!event_enabled(event.kind, mode)) continue;
        impl_->run_handler(event);
    }
    span.finish();
    static obs::Histogram& fuzz_ms = obs::histogram("interp.fuzz_ms");
    fuzz_ms.observe(span.seconds() * 1000.0);
    impl_->flush_profile();
    return impl_->trace;
}

void Interpreter::run_event(const std::string& label) {
    for (const auto& event : impl_->program->events) {
        if (event.label == label) {
            impl_->run_handler(event);
            return;
        }
    }
    log::warn() << "no event registered with label " << label;
}

const http::Trace& Interpreter::trace() const { return impl_->trace; }

void Interpreter::reset() {
    auto fresh = std::make_shared<Impl>(*impl_->program, *impl_->server, impl_->options);
    impl_ = std::move(fresh);
}

}  // namespace extractocol::interp

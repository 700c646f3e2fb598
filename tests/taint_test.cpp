#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "semantics/model.hpp"
#include "taint/engine.hpp"
#include "xir/builder.hpp"
#include "xir/callgraph.hpp"

using namespace extractocol;
using namespace extractocol::xir;
using namespace extractocol::taint;
constexpr auto in_str = extractocol::support::intern::str;

namespace {

struct Fixture {
    Program program;
    semantics::SemanticModel model = semantics::SemanticModel::standard();
    std::unique_ptr<CallGraph> cg;
    std::unique_ptr<TaintEngine> engine;

    explicit Fixture(Program p, EngineOptions options = {}) : program(std::move(p)) {
        cg = std::make_unique<CallGraph>(program, model.callback_resolver());
        engine = std::make_unique<TaintEngine>(program, *cg, model, options);
    }

    StmtRef find_call(const char* method_sig, const char* callee_method) const {
        MethodRef ref{std::string(method_sig).substr(0, std::string(method_sig).rfind('.')),
                      std::string(method_sig).substr(std::string(method_sig).rfind('.') + 1)};
        auto mi = program.method_index(ref);
        EXPECT_TRUE(mi.has_value()) << method_sig;
        const Method& m = program.method_at(*mi);
        for (BlockId b = 0; b < m.blocks.size(); ++b) {
            const auto& stmts = m.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                if (const auto* call = std::get_if<Invoke>(&stmts[i])) {
                    if (call->callee.method_name == callee_method) return {*mi, b, i};
                }
            }
        }
        ADD_FAILURE() << "call not found: " << callee_method << " in " << method_sig;
        return {};
    }
};

/// onClick: url pieces -> StringBuilder -> HttpGet -> execute; response ->
/// EntityUtils.toString -> JSONObject -> getString("token") -> static field.
Program make_http_app() {
    ProgramBuilder pb("taintapp");
    auto cls = pb.add_class("com.t.Main");
    auto mb = cls.method("onClick");
    LocalId sb = mb.local("sb", "java.lang.StringBuilder");
    mb.new_object(sb, "java.lang.StringBuilder");
    mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://api.t.com/login?u=")});
    LocalId user = mb.local("user", "java.lang.String");
    mb.assign(user, cs("alice"));
    mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(user)});
    LocalId url = mb.local("url", "java.lang.String");
    mb.vcall(url, sb, "java.lang.StringBuilder.toString");
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("client", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("resp", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    LocalId entity = mb.local("entity", "org.apache.http.HttpEntity");
    mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    LocalId body = mb.local("body", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    LocalId json = mb.local("json", "org.json.JSONObject");
    mb.new_object(json, "org.json.JSONObject");
    mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
    LocalId token = mb.local("token", "java.lang.String");
    mb.vcall(token, json, "org.json.JSONObject.getString", {cs("token")});
    mb.store_static("com.t.State", "sToken", Operand(token));
    mb.ret();
    pb.register_event({"com.t.Main", "onClick"}, EventKind::kOnClick, "click");
    return pb.build();
}

}  // namespace

TEST(TaintForward, ResponseFlowsToStaticViaJson) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    ASSERT_TRUE(call.dst.has_value());

    auto result = fx.engine->run(Direction::kForward,
                                 {{dp, AccessPath::of_local(*call.dst)}});
    // The getString call and the static store must be in the forward slice.
    StmtRef get_string = fx.find_call("com.t.Main.onClick", "getString");
    EXPECT_TRUE(result.contains(get_string));
    // Token static became tainted, with the json field recorded.
    bool static_tainted = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.static_class) == "com.t.State" && in_str(g.key) == "sToken") {
            static_tainted = true;
        }
    }
    EXPECT_TRUE(static_tainted);
}

TEST(TaintForward, FieldSensitiveJsonKeys) {
    // json.put("a", tainted); json.getString("b") must NOT be tainted.
    ProgramBuilder pb("fieldsens");
    auto cls = pb.add_class("com.t.F");
    auto mb = cls.method("go");
    LocalId src = mb.local("src", "java.lang.String");
    mb.assign(src, cs("seed"));
    LocalId json = mb.local("json", "org.json.JSONObject");
    mb.new_object(json, "org.json.JSONObject");
    mb.special(json, "org.json.JSONObject.<init>", {cnull()});
    mb.vcall(std::nullopt, json, "org.json.JSONObject.put", {cs("a"), Operand(src)});
    LocalId a = mb.local("a", "java.lang.String");
    LocalId b = mb.local("b", "java.lang.String");
    mb.vcall(a, json, "org.json.JSONObject.getString", {cs("a")});
    mb.vcall(b, json, "org.json.JSONObject.getString", {cs("b")});
    mb.store_static("com.t.S", "A", Operand(a));
    mb.store_static("com.t.S", "B", Operand(b));
    mb.ret();
    pb.register_event({"com.t.F", "go"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());

    // Seed: src tainted after its assignment (stmt index 0 in block 0).
    auto mi = fx.program.method_index({"com.t.F", "go"});
    auto result = fx.engine->run(Direction::kForward,
                                 {{StmtRef{*mi, 0, 0}, AccessPath::of_local(src)}});
    bool a_tainted = false, b_tainted = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == "A") a_tainted = true;
        if (g.is_static() && in_str(g.key) == "B") b_tainted = true;
    }
    EXPECT_TRUE(a_tainted);
    EXPECT_FALSE(b_tainted);
}

TEST(TaintBackward, RequestSliceFindsUriConstruction) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    ASSERT_TRUE(call.args[0].is_local());

    auto result = fx.engine->run(Direction::kBackward,
                                 {{dp, AccessPath::of_local(call.args[0].local)}});
    // Backward slice must include the StringBuilder init, append, toString,
    // HttpGet <init>, and the constant assignment feeding append.
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "<init>")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "append")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "toString")));
    // The response-processing statements must NOT be in the backward slice.
    EXPECT_FALSE(result.contains(fx.find_call("com.t.Main.onClick", "getString")));
}

TEST(TaintBackward, CrossesHelperMethods) {
    // onClick calls buildUrl(); the backward slice from the DP must descend
    // into the helper and mark its append statements.
    ProgramBuilder pb("helper");
    auto cls = pb.add_class("com.t.H");
    {
        auto mb = cls.method("buildUrl");
        mb.returns("java.lang.String");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://h/")});
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("feed.json")});
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        mb.ret(Operand(url));
    }
    {
        auto mb = cls.method("onClick");
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, mb.self(), "com.t.H.buildUrl");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.t.H", "onClick"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());
    StmtRef dp = fx.find_call("com.t.H.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto result = fx.engine->run(Direction::kBackward,
                                 {{dp, AccessPath::of_local(call.args[0].local)}});
    EXPECT_TRUE(result.contains(fx.find_call("com.t.H.buildUrl", "append")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.H.buildUrl", "toString")));
}

TEST(TaintCrossEvent, GlobalsGatedByHeuristic) {
    // Event A stores a static; event B reads it into a request. With the
    // async heuristic enabled the flow links; disabled, it does not.
    ProgramBuilder pb("xevent");
    auto cls = pb.add_class("com.t.X");
    {
        auto mb = cls.method("onLocation");
        LocalId city = mb.local("city", "java.lang.String");
        mb.assign(city, cs("seoul"));
        mb.store_static("com.t.X", "sCity", Operand(city));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId city = mb.local("city", "java.lang.String");
        mb.load_static(city, "com.t.X", "sCity");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://w/?q=")});
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(city)});
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.t.X", "onLocation"}, EventKind::kOnLocation, "loc");
    pb.register_event({"com.t.X", "onClick"}, EventKind::kOnClick, "click");
    Program p = pb.build();

    auto locate_store = [&](const Program& prog) -> StmtRef {
        auto mi = prog.method_index({"com.t.X", "onLocation"});
        return {*mi, 0, 1};  // the store_static statement
    };

    {
        Fixture fx(p, EngineOptions{.cross_event_globals = true});
        StmtRef dp = fx.find_call("com.t.X.onClick", "execute");
        const auto& call = std::get<Invoke>(fx.program.statement(dp));
        auto result = fx.engine->run(Direction::kBackward,
                                     {{dp, AccessPath::of_local(call.args[0].local)}});
        EXPECT_TRUE(result.contains(locate_store(fx.program)));
    }
    {
        Fixture fx(p, EngineOptions{.cross_event_globals = false});
        StmtRef dp = fx.find_call("com.t.X.onClick", "execute");
        const auto& call = std::get<Invoke>(fx.program.statement(dp));
        auto result = fx.engine->run(Direction::kBackward,
                                     {{dp, AccessPath::of_local(call.args[0].local)}});
        EXPECT_FALSE(result.contains(locate_store(fx.program)));
    }
}

TEST(TaintForward, KillOnReassignment) {
    ProgramBuilder pb("kill");
    auto cls = pb.add_class("com.t.K");
    auto mb = cls.method("go");
    LocalId x = mb.local("x", "java.lang.String");
    mb.assign(x, cs("tainted"));
    mb.assign(x, cs("clean"));  // redefinition kills
    mb.store_static("com.t.K", "S", Operand(x));
    mb.ret();
    pb.register_event({"com.t.K", "go"}, EventKind::kOnClick, "c");
    Fixture fx(pb.build());
    auto mi = fx.program.method_index({"com.t.K", "go"});
    auto result = fx.engine->run(Direction::kForward,
                                 {{StmtRef{*mi, 0, 0}, AccessPath::of_local(x)}});
    EXPECT_TRUE(result.globals.empty());
}

TEST(TaintForward, CallEventsReportTaintedArgs) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto result = fx.engine->run(Direction::kForward,
                                 {{dp, AccessPath::of_local(*call.dst)}});
    // getEntity is invoked on the tainted response: base_tainted event.
    StmtRef get_entity = fx.find_call("com.t.Main.onClick", "getEntity");
    bool seen = false;
    for (const auto& ev : result.call_events) {
        if (ev.stmt == get_entity) {
            seen = true;
            EXPECT_TRUE(ev.base_tainted);
        }
    }
    EXPECT_TRUE(seen);
}

namespace {

/// A small protocol app followed by `filler` methods in a class of their
/// own that nothing in the app calls or reads: per-run cost and results
/// must not depend on them.
Program make_padded_app(std::size_t filler) {
    ProgramBuilder pb("padded");
    auto cls = pb.add_class("com.t.P");
    {
        auto mb = cls.method("buildUrl");
        mb.returns("java.lang.String");
        LocalId host = mb.param("host", "java.lang.String");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://")});
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(host)});
        mb.if_then_else(
            eq(Operand(host), cs("m.t.com")),
            [&](MethodBuilder& m) {
                m.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("/mobile")});
            },
            [&](MethodBuilder& m) {
                m.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("/web")});
            });
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        mb.ret(Operand(url));
    }
    {
        auto mb = cls.method("consume");
        LocalId body = mb.param("body", "java.lang.String");
        LocalId json = mb.local("json", "org.json.JSONObject");
        mb.new_object(json, "org.json.JSONObject");
        mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
        LocalId token = mb.local("token", "java.lang.String");
        mb.vcall(token, json, "org.json.JSONObject.getString", {cs("token")});
        mb.store_static("com.t.P", "sToken", Operand(token));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId host = mb.local("host", "java.lang.String");
        mb.assign(host, cs("api.t.com"));
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, mb.self(), "com.t.P.buildUrl", {Operand(host)});
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("body", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        mb.vcall(std::nullopt, mb.self(), "com.t.P.consume", {Operand(body)});
        mb.ret();
    }
    pb.register_event({"com.t.P", "onClick"}, EventKind::kOnClick, "click");

    auto pad = pb.add_class("com.t.Filler");
    for (std::size_t i = 0; i < filler; ++i) {
        auto mb = pad.method("f" + std::to_string(i));
        LocalId x = mb.local("x", "java.lang.String");
        mb.load_static(x, "com.t.Filler", "s" + std::to_string(i));
        LocalId n = mb.local("n", "int");
        mb.assign(n, ci(0));
        mb.while_loop(lt(Operand(n), ci(3)), [&](MethodBuilder& m) {
            m.concat(x, Operand(x), cs("!"));
            m.binop(n, BinaryOp::Op::kAdd, Operand(n), ci(1));
        });
        if (i + 1 < filler) {
            mb.vcall(std::nullopt, mb.self(), "com.t.Filler.f" + std::to_string(i + 1));
        }
        mb.store_static("com.t.Filler", "s" + std::to_string(i + 1), Operand(x));
        mb.ret();
    }
    return pb.build();
}

std::map<std::string, std::uint64_t> taint_counters() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : obs::MetricsRegistry::global().snapshot().counters) {
        if (name.starts_with("taint.")) out[name] = value;
    }
    return out;
}

/// Runs `seeds` and returns the result with the taint.* counter delta.
std::pair<TaintResult, std::map<std::string, std::uint64_t>> run_counted(
    Fixture& fx, Direction dir, const std::vector<TaintSeed>& seeds) {
    auto before = taint_counters();
    TaintResult result = fx.engine->run(dir, seeds);
    auto delta = taint_counters();
    for (auto& [name, value] : delta) value -= before[name];
    return {std::move(result), std::move(delta)};
}

/// The methods holding at least one slice statement.
std::set<std::uint32_t> methods_of(const TaintResult& r) {
    std::set<std::uint32_t> out;
    for (const StmtRef& ref : r.statements) out.insert(ref.method_index);
    return out;
}

void expect_same_result(const TaintResult& a, const TaintResult& b) {
    EXPECT_EQ(a.statements, b.statements);
    EXPECT_EQ(a.globals, b.globals);
    EXPECT_EQ(a.steps_used, b.steps_used);
    EXPECT_EQ(a.truncated, b.truncated);
    ASSERT_EQ(a.call_events.size(), b.call_events.size());
    for (std::size_t i = 0; i < a.call_events.size(); ++i) {
        EXPECT_EQ(a.call_events[i].stmt, b.call_events[i].stmt);
        EXPECT_EQ(a.call_events[i].base_tainted, b.call_events[i].base_tainted);
        EXPECT_EQ(a.call_events[i].dst_tainted, b.call_events[i].dst_tainted);
        EXPECT_EQ(a.call_events[i].args_tainted, b.call_events[i].args_tainted);
    }
}

StmtRef return_of(const Fixture& fx, const char* cls, const char* method) {
    auto mi = fx.program.method_index({cls, method});
    const Method& m = fx.program.method_at(*mi);
    for (BlockId b = 0; b < m.blocks.size(); ++b) {
        const auto& stmts = m.blocks[b].statements;
        for (std::uint32_t i = 0; i < stmts.size(); ++i) {
            if (std::holds_alternative<Return>(stmts[i])) return {*mi, b, i};
        }
    }
    ADD_FAILURE() << "no return in " << cls << "." << method;
    return {};
}

/// The seed sets the comparison runs: forward from the response, backward
/// from the request, a boundary seed at the entry of a method no other seed
/// or call has touched yet, and a backward seed inside a callee whose flow
/// must inject into its never-touched caller.
std::vector<std::pair<Direction, std::vector<TaintSeed>>> padded_app_queries(
    const Fixture& fx) {
    StmtRef dp = fx.find_call("com.t.P.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto consume = *fx.program.method_index({"com.t.P", "consume"});
    StmtRef ret = return_of(fx, "com.t.P", "buildUrl");
    const auto& ret_stmt = std::get<Return>(fx.program.statement(ret));
    return {
        {Direction::kForward, {{dp, AccessPath::of_local(*call.dst)}}},
        {Direction::kBackward, {{dp, AccessPath::of_local(call.args[0].local)}}},
        {Direction::kForward,
         {{StmtRef{consume, 0, 0}, AccessPath::of_local(1), /*at_block_boundary=*/true}}},
        {Direction::kBackward, {{ret, AccessPath::of_local(ret_stmt.value->local)}}},
    };
}

}  // namespace

TEST(TaintScaling, UnreachableFillerChangesNothing) {
    Fixture bare(make_padded_app(0));
    Fixture padded(make_padded_app(200));
    ASSERT_EQ(padded.program.method_table().size(),
              bare.program.method_table().size() + 200);
    auto bare_queries = padded_app_queries(bare);
    auto padded_queries = padded_app_queries(padded);
    ASSERT_EQ(bare_queries.size(), padded_queries.size());
    for (std::size_t q = 0; q < bare_queries.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        auto [want, want_counters] =
            run_counted(bare, bare_queries[q].first, bare_queries[q].second);
        auto [got, got_counters] =
            run_counted(padded, padded_queries[q].first, padded_queries[q].second);
        EXPECT_FALSE(want.statements.empty());
        expect_same_result(want, got);
        EXPECT_EQ(want_counters, got_counters);
        EXPECT_GT(want_counters["taint.worklist_iterations"], 0u);
    }
}

TEST(TaintScaling, SeedsReachUntouchedMethods) {
    Fixture fx(make_padded_app(8));
    auto queries = padded_app_queries(fx);
    auto consume = *fx.program.method_index({"com.t.P", "consume"});
    auto on_click = *fx.program.method_index({"com.t.P", "onClick"});
    auto build_url = *fx.program.method_index({"com.t.P", "buildUrl"});
    auto token_stored = [](const TaintResult& r) {
        for (const auto& g : r.globals) {
            if (g.is_static() && in_str(g.key) == "sToken") return true;
        }
        return false;
    };

    // Forward from the response: the call edge creates consume's state.
    auto response = fx.engine->run(queries[0].first, queries[0].second);
    EXPECT_TRUE(methods_of(response).count(consume));
    EXPECT_TRUE(response.contains(fx.find_call("com.t.P.consume", "getString")));
    EXPECT_TRUE(token_stored(response));

    // A boundary seed is the first touch of consume in its run.
    auto entry = fx.engine->run(queries[2].first, queries[2].second);
    EXPECT_EQ(methods_of(entry), std::set<std::uint32_t>{consume});
    EXPECT_TRUE(entry.contains(fx.find_call("com.t.P.consume", "getString")));
    EXPECT_TRUE(token_stored(entry));

    // Backward from buildUrl's return: both branches and the caller's
    // argument, injected into onClick at the call site.
    auto url = fx.engine->run(queries[3].first, queries[3].second);
    EXPECT_EQ(methods_of(url), (std::set<std::uint32_t>{build_url, on_click}));
    EXPECT_TRUE(url.contains(fx.find_call("com.t.P.onClick", "buildUrl")));
    std::size_t appends = 0;
    for (const StmtRef& ref : url.statements) {
        const auto* call = std::get_if<Invoke>(&fx.program.statement(ref));
        if (call && call->callee.method_name == "append") ++appends;
    }
    EXPECT_EQ(appends, 3u);
    for (std::uint32_t mi : methods_of(url)) {
        EXPECT_LT(mi, fx.program.method_index({"com.t.Filler", "f0"}).value());
    }
}

TEST(TaintScaling, ResultsAreStrictlyAscending) {
    // The slice is a sorted, duplicate-free statement vector, and call
    // events come one per statement in statement order: the slicer's
    // merges and binary searches and the dependency analysis's tap scan
    // rely on both.
    Fixture fx(make_padded_app(8));
    for (const auto& [dir, seeds] : padded_app_queries(fx)) {
        auto result = fx.engine->run(dir, seeds);
        EXPECT_FALSE(result.statements.empty());
        EXPECT_TRUE(std::adjacent_find(result.statements.begin(), result.statements.end(),
                                       std::greater_equal<>()) == result.statements.end());
        EXPECT_TRUE(std::adjacent_find(result.call_events.begin(), result.call_events.end(),
                                       [](const CallTaintEvent& a, const CallTaintEvent& b) {
                                           return a.stmt >= b.stmt;
                                       }) == result.call_events.end());
        for (const StmtRef& ref : result.statements) EXPECT_TRUE(result.contains(ref));
    }
}

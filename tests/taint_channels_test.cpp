// Taint-engine channel tests: implicit AsyncTask flows, database cells,
// preferences, field-store/load chains, and return-summary propagation.
#include <gtest/gtest.h>

#include <algorithm>

#include "semantics/model.hpp"
#include "taint/engine.hpp"
#include "xir/builder.hpp"
#include "xir/callgraph.hpp"

using namespace extractocol;
using namespace extractocol::xir;
using namespace extractocol::taint;
constexpr auto in_str = extractocol::support::intern::str;

namespace {

struct Fx {
    Program program;
    semantics::SemanticModel model = semantics::SemanticModel::standard();
    std::unique_ptr<CallGraph> cg;
    std::unique_ptr<TaintEngine> engine;

    explicit Fx(Program p, EngineOptions options = {}) : program(std::move(p)) {
        cg = std::make_unique<CallGraph>(program, model.callback_resolver());
        engine = std::make_unique<TaintEngine>(program, *cg, model, options);
    }

    StmtRef stmt_of(const char* cls, const char* method, BlockId b, std::uint32_t i) {
        auto mi = program.method_index({cls, method});
        EXPECT_TRUE(mi.has_value());
        return {*mi, b, i};
    }
};

}  // namespace

TEST(TaintChannels, AsyncTaskArgsReachDoInBackground) {
    ProgramBuilder pb("async");
    auto task = pb.add_class("com.t.Fetch", "android.os.AsyncTask");
    {
        auto mb = task.method("doInBackground");
        LocalId url = mb.param("url", "java.lang.String");
        mb.store_static("com.t.Sink", "sUrl", Operand(url));
        mb.ret();
    }
    auto main = pb.add_class("com.t.Main");
    {
        auto mb = main.method("onClick");
        LocalId url = mb.local("u", "java.lang.String");
        mb.assign(url, cs("http://x/"));
        LocalId t = mb.local("t", "com.t.Fetch");
        mb.new_object(t, "com.t.Fetch");
        mb.vcall(std::nullopt, t, "com.t.Fetch.execute", {Operand(url)});
        mb.ret();
    }
    pb.register_event({"com.t.Main", "onClick"}, EventKind::kOnClick, "c");
    Fx fx(pb.build());

    // Forward from the url constant: the implicit edge must carry it into
    // doInBackground and on into the static.
    StmtRef seed = fx.stmt_of("com.t.Main", "onClick", 0, 0);
    auto result = fx.engine->run(Direction::kForward,
                                 {{seed, AccessPath::of_local(1 /* u */)}});
    bool sink_hit = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == "sUrl") sink_hit = true;
    }
    EXPECT_TRUE(sink_hit);
    auto bg = fx.program.method_index({"com.t.Fetch", "doInBackground"});
    EXPECT_TRUE(std::any_of(result.statements.begin(), result.statements.end(),
                            [&](const StmtRef& ref) { return ref.method_index == *bg; }));
}

TEST(TaintChannels, DatabaseCellsAreColumnSensitive) {
    ProgramBuilder pb("db");
    auto cls = pb.add_class("com.t.Db");
    {
        auto mb = cls.method("writeRow");
        LocalId secret = mb.local("secret", "java.lang.String");
        mb.assign(secret, cs("s3cr3t"));
        LocalId benign = mb.local("benign", "java.lang.String");
        mb.assign(benign, cs("public"));
        LocalId values = mb.local("cv", "android.content.ContentValues");
        mb.new_object(values, "android.content.ContentValues");
        mb.special(values, "android.content.ContentValues.<init>");
        mb.vcall(std::nullopt, values, "android.content.ContentValues.put",
                 {cs("token"), Operand(secret)});
        mb.vcall(std::nullopt, values, "android.content.ContentValues.put",
                 {cs("label"), Operand(benign)});
        LocalId db = mb.local("db", "android.database.sqlite.SQLiteDatabase");
        mb.vcall(std::nullopt, db, "android.database.sqlite.SQLiteDatabase.insert",
                 {cs("session"), cnull(), Operand(values)});
        mb.ret();
    }
    {
        auto mb = cls.method("readToken");
        LocalId db = mb.local("db", "android.database.sqlite.SQLiteDatabase");
        LocalId cur = mb.local("cur", "android.database.Cursor");
        mb.vcall(cur, db, "android.database.sqlite.SQLiteDatabase.query",
                 {cs("session")});
        LocalId token = mb.local("t", "java.lang.String");
        mb.vcall(token, cur, "android.database.Cursor.getString", {cs("token")});
        mb.store_static("com.t.Sink", "sToken", Operand(token));
        LocalId label = mb.local("l", "java.lang.String");
        mb.vcall(label, cur, "android.database.Cursor.getString", {cs("label")});
        mb.store_static("com.t.Sink", "sLabel", Operand(label));
        mb.ret();
    }
    pb.register_event({"com.t.Db", "writeRow"}, EventKind::kOnClick, "w");
    pb.register_event({"com.t.Db", "readToken"}, EventKind::kOnClick, "r");
    Fx fx(pb.build());

    // Forward from `secret` (local 1; local 0 is `this`): the token read in
    // the other event is reached through the db:session.token cell; the
    // label read must stay clean (column sensitivity). Note the observation
    // point is the getString statement — the db cell already consumed the
    // one allowed async hop, so the subsequent static store is correctly
    // beyond the chain limit.
    StmtRef seed = fx.stmt_of("com.t.Db", "writeRow", 0, 0);
    auto result = fx.engine->run(Direction::kForward, {{seed, AccessPath::of_local(1)}});
    bool cell_recorded = false;
    for (const auto& g : result.globals) {
        if (g.is_global() && in_str(g.key) == "db:session.token") cell_recorded = true;
        EXPECT_NE(in_str(g.key), "db:session.label");
    }
    EXPECT_TRUE(cell_recorded);

    auto reader = fx.program.method_index({"com.t.Db", "readToken"});
    ASSERT_TRUE(reader.has_value());
    // Statement indices in readToken: 0 query, 1 getString(token), 2 store,
    // 3 getString(label), 4 store, 5 ret.
    EXPECT_TRUE(result.contains({*reader, 0, 1}));   // getString("token")
    EXPECT_FALSE(result.contains({*reader, 0, 3}));  // getString("label")
}

TEST(TaintChannels, ReturnSummariesFlowToUnvisitedCallers) {
    // helper() returns tainted data; caller never otherwise touched by the
    // propagation must still see it (the fig5 regression).
    ProgramBuilder pb("ret");
    auto cls = pb.add_class("com.t.Ret");
    {
        auto mb = cls.method("helper");
        mb.returns("java.lang.String");
        LocalId v = mb.local("v", "java.lang.String");
        mb.assign(v, cs("payload"));
        mb.ret(Operand(v));
    }
    {
        auto mb = cls.method("caller");
        LocalId got = mb.local("g", "java.lang.String");
        mb.vcall(got, mb.self(), "com.t.Ret.helper");
        mb.store_static("com.t.Sink", "sGot", Operand(got));
        mb.ret();
    }
    pb.register_event({"com.t.Ret", "caller"}, EventKind::kOnClick, "c");
    Fx fx(pb.build());
    StmtRef seed = fx.stmt_of("com.t.Ret", "helper", 0, 0);
    auto result =
        fx.engine->run(Direction::kForward, {{seed, AccessPath::of_local(1)}});
    bool hit = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == "sGot") hit = true;
    }
    EXPECT_TRUE(hit);
}

TEST(TaintChannels, FieldStoreLoadRoundTrip) {
    ProgramBuilder pb("fields");
    auto holder = pb.add_class("com.t.Holder");
    holder.field("value", "java.lang.String");
    auto cls = pb.add_class("com.t.F");
    auto mb = cls.method("go");
    LocalId v = mb.local("v", "java.lang.String");
    mb.assign(v, cs("x"));
    LocalId h = mb.local("h", "com.t.Holder");
    mb.new_object(h, "com.t.Holder");
    mb.store_field(h, "value", Operand(v));
    LocalId out = mb.local("o", "java.lang.String");
    mb.load_field(out, h, "value");
    mb.store_static("com.t.Sink", "sOut", Operand(out));
    // A different field must not be tainted.
    LocalId other = mb.local("p", "java.lang.String");
    mb.load_field(other, h, "other");
    mb.store_static("com.t.Sink", "sOther", Operand(other));
    mb.ret();
    pb.register_event({"com.t.F", "go"}, EventKind::kOnClick, "c");
    Fx fx(pb.build());
    StmtRef seed = fx.stmt_of("com.t.F", "go", 0, 0);
    auto result =
        fx.engine->run(Direction::kForward, {{seed, AccessPath::of_local(1)}});
    bool out_hit = false, other_hit = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == "sOut") out_hit = true;
        if (g.is_static() && in_str(g.key) == "sOther") other_hit = true;
    }
    EXPECT_TRUE(out_hit);
    EXPECT_FALSE(other_hit);
}

TEST(TaintChannels, BackwardThroughFormEntityList) {
    // vote-style body construction: backward from the request must reach the
    // name-value pair values.
    ProgramBuilder pb("form");
    auto cls = pb.add_class("com.t.Form");
    auto mb = cls.method("go");
    LocalId id = mb.local("id", "java.lang.String");
    mb.assign(id, cs("t3_x"));
    LocalId list = mb.local("params", "java.util.ArrayList");
    mb.new_object(list, "java.util.ArrayList");
    mb.special(list, "java.util.ArrayList.<init>");
    LocalId pair = mb.local("pair", "org.apache.http.message.BasicNameValuePair");
    mb.new_object(pair, "org.apache.http.message.BasicNameValuePair");
    mb.special(pair, "org.apache.http.message.BasicNameValuePair.<init>",
               {cs("id"), Operand(id)});
    mb.vcall(std::nullopt, list, "java.util.ArrayList.add", {Operand(pair)});
    LocalId entity = mb.local("e", "org.apache.http.client.entity.UrlEncodedFormEntity");
    mb.new_object(entity, "org.apache.http.client.entity.UrlEncodedFormEntity");
    mb.special(entity, "org.apache.http.client.entity.UrlEncodedFormEntity.<init>",
               {Operand(list)});
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpPost");
    mb.new_object(req, "org.apache.http.client.methods.HttpPost");
    mb.special(req, "org.apache.http.client.methods.HttpPost.<init>",
               {cs("http://h/vote")});
    mb.vcall(std::nullopt, req, "org.apache.http.client.methods.HttpPost.setEntity",
             {Operand(entity)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    mb.ret();
    pb.register_event({"com.t.Form", "go"}, EventKind::kOnClick, "c");
    Fx fx(pb.build());

    // Locate the execute() DP and run backward from the request arg.
    auto mi = fx.program.method_index({"com.t.Form", "go"});
    const Method& m = fx.program.method_at(*mi);
    StmtRef dp{};
    for (BlockId b = 0; b < m.blocks.size(); ++b) {
        const auto& stmts = m.blocks[b].statements;
        for (std::uint32_t i = 0; i < stmts.size(); ++i) {
            const auto* call = std::get_if<Invoke>(&stmts[i]);
            if (call && call->callee.method_name == "execute") dp = {*mi, b, i};
        }
    }
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto result = fx.engine->run(Direction::kBackward,
                                 {{dp, AccessPath::of_local(call.args[0].local)}});
    // The id constant's assignment must be in the backward slice.
    EXPECT_TRUE(result.contains({*mi, 0, 0}));
}

TEST(TaintChannels, StepLimitTruncatesSafely) {
    // A pathological program with many mutually-flowing locals still
    // terminates under a small step budget.
    ProgramBuilder pb("limit");
    auto cls = pb.add_class("com.t.Limit");
    auto mb = cls.method("go");
    LocalId v = mb.local("v0", "java.lang.String");
    mb.assign(v, cs("seed"));
    LocalId prev = v;
    for (int i = 1; i < 60; ++i) {
        LocalId next = mb.local("v" + std::to_string(i), "java.lang.String");
        mb.binop(next, BinaryOp::Op::kConcat, Operand(prev), cs("x"));
        prev = next;
    }
    mb.store_static("com.t.Sink", "sEnd", Operand(prev));
    mb.ret();
    pb.register_event({"com.t.Limit", "go"}, EventKind::kOnClick, "c");
    EngineOptions options;
    options.max_steps = 3;  // absurdly small: must truncate, not hang/crash
    Fx fx(pb.build(), options);
    StmtRef seed = fx.stmt_of("com.t.Limit", "go", 0, 0);
    auto result =
        fx.engine->run(Direction::kForward, {{seed, AccessPath::of_local(1)}});
    SUCCEED();  // reaching here without a hang is the assertion
    (void)result;
}

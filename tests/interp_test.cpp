// Interpreter (dynamic-baseline) tests: concrete library semantics, event
// gating per fuzz mode, state persistence, and intent dispatch.
#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "xir/builder.hpp"

using namespace extractocol;
using namespace extractocol::interp;
using namespace extractocol::xir;

namespace {

/// Server that records everything and answers with a canned JSON body.
class EchoServer : public FakeServer {
public:
    http::Response handle(const http::Request& request) override {
        requests.push_back(request);
        http::Response response;
        response.status = 200;
        response.body_kind = http::BodyKind::kJson;
        response.body = body;
        return response;
    }
    std::vector<http::Request> requests;
    std::string body = R"({"token":"tok123","n":5,"items":[{"t":"a"},{"t":"b"}]})";
};

struct ProgramHarness {
    ProgramBuilder pb{"interp_app"};
    ClassBuilder cls = pb.add_class("com.i.Main");

    /// Registers `build` as the body of a click handler named `label`.
    void handler(const std::string& label, EventKind kind,
                 const std::function<void(MethodBuilder&)>& build) {
        auto mb = cls.method("on_" + label);
        build(mb);
        mb.ret();
        pb.register_event({"com.i.Main", "on_" + label}, kind, label);
    }

    http::Trace run(EchoServer& server, FuzzMode mode = FuzzMode::kManual) {
        Program p = pb.build();
        Interpreter interpreter(p, server);
        return interpreter.fuzz(mode);
    }
};

void emit_get(MethodBuilder& mb, Operand url_op) {
    LocalId url = mb.local("u", "java.lang.String");
    mb.assign(url, url_op);
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
}

}  // namespace

TEST(Interp, StringBuilderChainProducesUrl) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://h/a?n=")});
        LocalId n = mb.local("n", "int");
        mb.binop(n, BinaryOp::Op::kAdd, ci(40), ci(2));
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(n)});
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
    });
    EchoServer server;
    auto trace = h.run(server);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(server.requests[0].uri.to_string(), "http://h/a?n=42");
    EXPECT_EQ(trace.transactions.size(), 1u);
}

TEST(Interp, JsonResponseParsing) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        emit_get(mb, cs("http://h/login"));
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("b", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        LocalId json = mb.local("j", "org.json.JSONObject");
        mb.new_object(json, "org.json.JSONObject");
        mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
        LocalId token = mb.local("t", "java.lang.String");
        mb.vcall(token, json, "org.json.JSONObject.getString", {cs("token")});
        mb.store_static("com.i.S", "token", Operand(token));
    });
    // Second event uses the stored token.
    h.handler("use", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId token = mb.local("t", "java.lang.String");
        mb.load_static(token, "com.i.S", "token");
        LocalId url = mb.local("u", "java.lang.String");
        mb.binop(url, BinaryOp::Op::kConcat, cs("http://h/use?tok="), Operand(token));
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
    });
    EchoServer server;
    h.run(server);
    ASSERT_EQ(server.requests.size(), 2u);
    // The concrete token from the first response appears in the second URI.
    EXPECT_EQ(*server.requests[1].uri.query_value("tok"), "tok123");
}

TEST(Interp, BranchesAreConcrete) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId mode = mb.local("m", "java.lang.String");
        mb.assign(mode, cs("b"));
        LocalId url = mb.local("u", "java.lang.String");
        mb.if_then_else(
            eq(Operand(mode), cs("a")),
            [&](MethodBuilder& b) { b.assign(url, cs("http://h/a")); },
            [&](MethodBuilder& b) { b.assign(url, cs("http://h/b")); });
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
    });
    EchoServer server;
    h.run(server);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(server.requests[0].uri.path, "/b");
}

TEST(Interp, LoopsTerminate) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId i = mb.local("i", "int");
        mb.assign(i, ci(0));
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://h/x?i=")});
        mb.while_loop(lt(Operand(i), ci(3)), [&](MethodBuilder& b) {
            b.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(i)});
            b.binop(i, BinaryOp::Op::kAdd, Operand(i), ci(1));
        });
        LocalId url = mb.local("u", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
    });
    EchoServer server;
    h.run(server);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(*server.requests[0].uri.query_value("i"), "012");
}

TEST(Interp, EventGatingPerFuzzMode) {
    ProgramHarness h;
    auto add = [&](const char* label, EventKind kind) {
        h.handler(label, kind, [label](MethodBuilder& mb) {
            emit_get(mb, cs(std::string("http://h/") + label));
        });
    };
    add("click", EventKind::kOnClick);
    add("custom", EventKind::kOnCustomUi);
    add("login", EventKind::kOnLogin);
    add("timer", EventKind::kOnTimer);
    add("push", EventKind::kOnServerPush);
    add("action", EventKind::kOnAction);

    Program p = h.pb.build();
    auto run = [&](FuzzMode mode) {
        EchoServer server;
        Interpreter interpreter(p, server);
        interpreter.fuzz(mode);
        std::set<std::string> paths;
        for (const auto& r : server.requests) paths.insert(r.uri.path);
        return paths;
    };
    auto auto_paths = run(FuzzMode::kAuto);
    EXPECT_EQ(auto_paths, (std::set<std::string>{"/click"}));
    auto manual_paths = run(FuzzMode::kManual);
    EXPECT_EQ(manual_paths, (std::set<std::string>{"/click", "/custom", "/login"}));
    auto full_paths = run(FuzzMode::kFull);
    EXPECT_EQ(full_paths.size(), 6u);
}

TEST(Interp, IntentDispatchTargetsMatchingReceiver) {
    ProgramHarness h;
    // Receiver registered for intents.
    {
        auto receiver = h.pb.add_class("com.i.Recv");
        auto mb = receiver.method("onReceive");
        LocalId intent = mb.param("intent", "android.content.Intent");
        LocalId url = mb.local("u", "java.lang.String");
        mb.vcall(url, intent, "android.content.Intent.getStringExtra", {cs("url")});
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
        h.pb.register_event({"com.i.Recv", "onReceive"}, EventKind::kOnIntent,
                            "intent:ad");
    }
    h.handler("send", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId intent = mb.local("it", "android.content.Intent");
        mb.new_object(intent, "android.content.Intent");
        mb.special(intent, "android.content.Intent.<init>");
        mb.vcall(std::nullopt, intent, "android.content.Intent.putExtra",
                 {cs("action"), cs("ad")});
        mb.vcall(std::nullopt, intent, "android.content.Intent.putExtra",
                 {cs("url"), cs("http://ads/track")});
        LocalId ctx = mb.local("ctx", "android.content.Context");
        mb.vcall(std::nullopt, ctx, "android.content.Context.startActivity",
                 {Operand(intent)});
    });
    EchoServer server;
    auto trace = h.run(server, FuzzMode::kAuto);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(server.requests[0].uri.host, "ads");
    // The trace attributes the transaction to the intent trigger.
    ASSERT_EQ(trace.transactions.size(), 1u);
    EXPECT_EQ(trace.transactions[0].trigger, "intent:ad");
}

TEST(Interp, DatabaseRoundTrip) {
    ProgramHarness h;
    h.handler("write", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId values = mb.local("cv", "android.content.ContentValues");
        mb.new_object(values, "android.content.ContentValues");
        mb.special(values, "android.content.ContentValues.<init>");
        mb.vcall(std::nullopt, values, "android.content.ContentValues.put",
                 {cs("url"), cs("http://cdn/v1")});
        LocalId database = mb.local("db", "android.database.sqlite.SQLiteDatabase");
        mb.vcall(std::nullopt, database, "android.database.sqlite.SQLiteDatabase.insert",
                 {cs("talks"), cnull(), Operand(values)});
    });
    h.handler("read", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId database = mb.local("db", "android.database.sqlite.SQLiteDatabase");
        LocalId cursor = mb.local("cur", "android.database.Cursor");
        mb.vcall(cursor, database, "android.database.sqlite.SQLiteDatabase.query",
                 {cs("talks")});
        LocalId moved = mb.local("m", "boolean");
        mb.vcall(moved, cursor, "android.database.Cursor.moveToNext");
        LocalId url = mb.local("u", "java.lang.String");
        mb.vcall(url, cursor, "android.database.Cursor.getString", {cs("url")});
        LocalId player = mb.local("mp", "android.media.MediaPlayer");
        mb.vcall(std::nullopt, player, "android.media.MediaPlayer.setDataSource",
                 {Operand(url)});
    });
    EchoServer server;
    h.run(server, FuzzMode::kAuto);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(server.requests[0].uri.to_string(), "http://cdn/v1");
}

TEST(Interp, GsonReflectionRoundTrip) {
    ProgramHarness h;
    // POJO class mirroring the JSON.
    auto pojo = h.pb.add_class("com.i.Login");
    pojo.field("token", "java.lang.String");
    pojo.field("n", "int");
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        emit_get(mb, cs("http://h/login"));
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("b", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        LocalId gson = mb.local("g", "com.google.gson.Gson");
        mb.new_object(gson, "com.google.gson.Gson");
        LocalId login = mb.local("l", "com.i.Login");
        mb.vcall(login, gson, "com.google.gson.Gson.fromJson",
                 {Operand(body), cs("com.i.Login")});
        LocalId token = mb.local("t", "java.lang.String");
        mb.load_field(token, login, "token");
        mb.store_static("com.i.S", "tok", Operand(token));
        // And use it immediately.
        LocalId url = mb.local("u2", "java.lang.String");
        mb.binop(url, BinaryOp::Op::kConcat, cs("http://h/next?t="), Operand(token));
        LocalId req2 = mb.local("req2", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req2, "org.apache.http.client.methods.HttpGet");
        mb.special(req2, "org.apache.http.client.methods.HttpGet.<init>",
                   {Operand(url)});
        LocalId client2 = mb.local("c2", "org.apache.http.client.HttpClient");
        mb.vcall(std::nullopt, client2, "org.apache.http.client.HttpClient.execute",
                 {Operand(req2)});
    });
    EchoServer server;
    h.run(server, FuzzMode::kAuto);
    ASSERT_EQ(server.requests.size(), 2u);
    EXPECT_EQ(*server.requests[1].uri.query_value("t"), "tok123");
}

TEST(Interp, OkHttpAndVolleyStyles) {
    ProgramHarness h;
    h.handler("ok", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId builder = mb.local("b", "okhttp3.Request$Builder");
        mb.new_object(builder, "okhttp3.Request$Builder");
        mb.special(builder, "okhttp3.Request$Builder.<init>");
        mb.vcall(builder, builder, "okhttp3.Request$Builder.url", {cs("http://h/ok")});
        mb.vcall(builder, builder, "okhttp3.Request$Builder.header",
                 {cs("X-Client"), cs("demo")});
        LocalId req = mb.local("req", "okhttp3.Request");
        mb.vcall(req, builder, "okhttp3.Request$Builder.build");
        LocalId client = mb.local("c", "okhttp3.OkHttpClient");
        mb.new_object(client, "okhttp3.OkHttpClient");
        LocalId okcall = mb.local("call", "okhttp3.Call");
        mb.vcall(okcall, client, "okhttp3.OkHttpClient.newCall", {Operand(req)});
        LocalId resp = mb.local("r", "okhttp3.Response");
        mb.vcall(resp, okcall, "okhttp3.Call.execute");
    });
    EchoServer server;
    h.run(server, FuzzMode::kAuto);
    ASSERT_EQ(server.requests.size(), 1u);
    EXPECT_EQ(server.requests[0].uri.path, "/ok");
    ASSERT_NE(server.requests[0].header("X-Client"), nullptr);
}

TEST(Interp, ReaderReadLine) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick, [](MethodBuilder& mb) {
        LocalId u = mb.local("u", "java.net.URL");
        mb.new_object(u, "java.net.URL");
        mb.special(u, "java.net.URL.<init>", {cs("http://h/data")});
        LocalId conn = mb.local("conn", "java.net.HttpURLConnection");
        mb.vcall(conn, u, "java.net.URL.openConnection");
        LocalId in = mb.local("in", "java.io.InputStream");
        mb.vcall(in, conn, "java.net.HttpURLConnection.getInputStream");
        LocalId reader = mb.local("rd", "java.io.InputStreamReader");
        mb.new_object(reader, "java.io.InputStreamReader");
        mb.special(reader, "java.io.InputStreamReader.<init>", {Operand(in)});
        LocalId br = mb.local("br", "java.io.BufferedReader");
        mb.new_object(br, "java.io.BufferedReader");
        mb.special(br, "java.io.BufferedReader.<init>", {Operand(reader)});
        LocalId line = mb.local("ln", "java.lang.String");
        mb.vcall(line, br, "java.io.BufferedReader.readLine");
        mb.store_static("com.i.S", "line", Operand(line));
    });
    EchoServer server;
    server.body = "first-line\nsecond-line";
    h.run(server, FuzzMode::kAuto);
    ASSERT_EQ(server.requests.size(), 1u);
}

TEST(Interp, ResetClearsState) {
    ProgramHarness h;
    h.handler("go", EventKind::kOnClick,
              [](MethodBuilder& mb) { emit_get(mb, cs("http://h/one")); });
    Program p = h.pb.build();
    EchoServer server;
    Interpreter interpreter(p, server);
    interpreter.fuzz(FuzzMode::kAuto);
    EXPECT_EQ(interpreter.trace().transactions.size(), 1u);
    interpreter.reset();
    EXPECT_EQ(interpreter.trace().transactions.size(), 0u);
}

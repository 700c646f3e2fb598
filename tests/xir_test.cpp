#include <gtest/gtest.h>

#include "semantics/model.hpp"
#include "xapk/obfuscate.hpp"
#include "xapk/serialize.hpp"
#include "xir/builder.hpp"
#include "xir/callgraph.hpp"
#include "xir/cfg.hpp"
#include "xir/verify.hpp"

using namespace extractocol;
using namespace extractocol::xir;

namespace {

/// Small program: an onClick handler builds a URL with a branch and a loop,
/// then calls a helper that executes the request.
Program make_sample() {
    ProgramBuilder pb("sample");
    auto activity = pb.add_class("com.app.Main", "android.app.Activity");
    activity.field("mCount", "int");

    {
        auto mb = activity.method("buildUrl");
        mb.returns("java.lang.String");
        LocalId flag = mb.param("flag", "java.lang.String");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://api.example.com/")});
        mb.if_then_else(
            eq(flag, cs("a")),
            [&](MethodBuilder& b) {
                b.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("alpha.json")});
            },
            [&](MethodBuilder& b) {
                b.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("beta.json")});
            });
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        mb.ret(Operand(url));
    }
    {
        auto mb = activity.method("onClick");
        mb.param("view", "android.view.View");
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, mb.self(), "com.app.Main.buildUrl", {cs("a")});
        LocalId request = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(request, "org.apache.http.client.methods.HttpGet");
        mb.special(request, "org.apache.http.client.methods.HttpGet.<init>",
                   {Operand(url)});
        LocalId client = mb.local("client", "org.apache.http.client.HttpClient");
        LocalId response = mb.local("resp", "org.apache.http.HttpResponse");
        mb.vcall(response, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(request)});
        mb.ret();
    }
    pb.register_event({"com.app.Main", "onClick"}, EventKind::kOnClick, "click:main");
    return pb.build();
}

}  // namespace

TEST(Builder, ProducesVerifiedProgram) {
    Program p = make_sample();
    EXPECT_TRUE(verify(p).ok());
    EXPECT_EQ(p.classes.size(), 1u);
    ASSERT_NE(p.find_method({"com.app.Main", "onClick"}), nullptr);
    EXPECT_GT(p.total_statements(), 10u);
}

TEST(Builder, IfThenElseCreatesDiamond) {
    Program p = make_sample();
    const Method* m = p.find_method({"com.app.Main", "buildUrl"});
    ASSERT_NE(m, nullptr);
    Cfg cfg(*m);
    // entry + then + else + join = 4 blocks.
    EXPECT_EQ(cfg.block_count(), 4u);
    EXPECT_EQ(cfg.successors(0).size(), 2u);
    EXPECT_TRUE(cfg.loop_headers().empty());
}

TEST(Builder, WhileLoopHasBackEdge) {
    ProgramBuilder pb("loopapp");
    auto cls = pb.add_class("com.app.Loop");
    auto mb = cls.method("run");
    LocalId i = mb.local("i", "int");
    mb.assign(i, ci(0));
    mb.while_loop(lt(i, ci(10)), [&](MethodBuilder& b) {
        b.binop(i, BinaryOp::Op::kAdd, Operand(i), ci(1));
    });
    mb.ret();
    Program p = pb.build();
    Cfg cfg(*p.find_method({"com.app.Loop", "run"}));
    ASSERT_EQ(cfg.loop_headers().size(), 1u);
}

TEST(Cfg, ReversePostOrderToposortsDag) {
    Program p = make_sample();
    Cfg cfg(*p.find_method({"com.app.Main", "buildUrl"}));
    const auto& rpo = cfg.reverse_post_order();
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), 0u);
    // Join block (3) must come after both branches.
    std::vector<std::size_t> position(rpo.size());
    for (std::size_t i = 0; i < rpo.size(); ++i) position[rpo[i]] = i;
    EXPECT_GT(position[3], position[1]);
    EXPECT_GT(position[3], position[2]);
}

TEST(Verify, CatchesMalformed) {
    Program p = make_sample();
    // Damage: out-of-range goto.
    p.classes[0].methods[0].blocks[0].statements.back() = Goto{99};
    p.reindex();
    EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, CatchesUnterminatedBlock) {
    Program p = make_sample();
    p.classes[0].methods[0].blocks[0].statements.pop_back();
    p.reindex();
    EXPECT_FALSE(verify(p).ok());
}

TEST(CallGraph, DirectEdges) {
    Program p = make_sample();
    CallGraph cg(p, nullptr);
    auto on_click = p.method_index({"com.app.Main", "onClick"});
    auto build_url = p.method_index({"com.app.Main", "buildUrl"});
    ASSERT_TRUE(on_click && build_url);
    const auto& edges = cg.edges_from(*on_click);
    bool found = false;
    for (const auto& e : edges) found |= e.callee == *build_url;
    EXPECT_TRUE(found);
    ASSERT_EQ(cg.roots().size(), 1u);
    EXPECT_EQ(cg.roots()[0], *on_click);
}

TEST(CallGraph, ContextsReachTarget) {
    Program p = make_sample();
    CallGraph cg(p, nullptr);
    auto build_url = p.method_index({"com.app.Main", "buildUrl"});
    auto contexts = cg.contexts_reaching(*build_url);
    ASSERT_EQ(contexts.size(), 1u);
    ASSERT_EQ(contexts[0].size(), 1u);
    EXPECT_EQ(contexts[0][0].callee, *build_url);
}

TEST(CallGraph, ImplicitAsyncTaskEdges) {
    ProgramBuilder pb("async");
    auto task = pb.add_class("com.app.FetchTask", "android.os.AsyncTask");
    {
        auto mb = task.method("doInBackground");
        mb.param("url", "java.lang.String");
        mb.ret();
    }
    auto main = pb.add_class("com.app.Main");
    {
        auto mb = main.method("onClick");
        LocalId t = mb.local("task", "com.app.FetchTask");
        mb.new_object(t, "com.app.FetchTask");
        mb.vcall(std::nullopt, t, "com.app.FetchTask.execute", {cs("http://x/")});
        mb.ret();
    }
    pb.register_event({"com.app.Main", "onClick"}, EventKind::kOnClick, "click");
    Program p = pb.build();

    auto model = semantics::SemanticModel::standard();
    CallGraph cg(p, model.callback_resolver());
    auto do_in_bg = p.method_index({"com.app.FetchTask", "doInBackground"});
    ASSERT_TRUE(do_in_bg.has_value());
    ASSERT_FALSE(cg.edges_to(*do_in_bg).empty());
    EXPECT_EQ(cg.edges_to(*do_in_bg)[0].kind, CallEdgeKind::kImplicit);
}

TEST(Xapk, RoundTrip) {
    Program p = make_sample();
    std::string text = xapk::write_xapk(p);
    auto parsed = xapk::parse_xapk(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(xapk::write_xapk(parsed.value()), text);
    EXPECT_EQ(parsed.value().app_name, "sample");
    EXPECT_EQ(parsed.value().events.size(), 1u);
    EXPECT_EQ(parsed.value().total_statements(), p.total_statements());
}

TEST(Xapk, RoundTripPreservesStringEscapes) {
    ProgramBuilder pb("esc");
    auto cls = pb.add_class("com.app.E");
    auto mb = cls.method("m");
    LocalId s = mb.local("s", "java.lang.String");
    mb.assign(s, cs("line\nquote\"backslash\\tab\t"));
    mb.ret();
    Program p = pb.build();
    auto parsed = xapk::parse_xapk(xapk::write_xapk(p));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const auto& stmt = parsed.value().classes[0].methods[0].blocks[0].statements[0];
    const auto& assign = std::get<AssignConst>(stmt);
    EXPECT_EQ(assign.value.string_value, "line\nquote\"backslash\\tab\t");
}

// Pins the loader's error contract: every malformed input yields exactly this
// message, with the 1-based line number of the offending line.
TEST(Xapk, ParseErrorMessages) {
    const std::string method =
        "xapk 1\nclass C\n  method m 0 1 void\n    local a int\n    block 0\n";
    struct Row {
        std::string input;
        std::string message;
    };
    const std::vector<Row> rows = {
        {"xapk 1\napp \"abc\n", "xapk line 2: unterminated string literal"},
        {"xapk 1\napp \"abc\\\"\n", "xapk line 2: unterminated string literal"},
        {"xapk 1\napp \"abc\\\n", "xapk line 2: unterminated string literal"},
        {"xapk 2\n", "xapk line 1: unsupported xapk version"},
        {"# header\n\nxapk 2\n", "xapk line 3: unsupported xapk version"},
        {"xapk 1\napp abc\n", "xapk line 2: app needs quoted name"},
        {"xapk 1\nresource k v\n", "xapk line 2: resource id \"value\""},
        {"xapk 1\nevent onFoo C.m \"l\"\n", "xapk line 2: unknown event kind: onFoo"},
        {"xapk 1\nclass C extends\n", "xapk line 2: class NAME [extends SUPER]"},
        {"xapk 1\nfield x int\n", "xapk line 2: field outside class"},
        {"xapk 1\nmethod m 0 0 void\n", "xapk line 2: method outside class"},
        {"xapk 1\nclass C\n  method m 0 99999999999 void\n",
         "xapk line 3: bad method param count: 99999999999"},
        {"xapk 1\nclass C\n  method m 0 0 void\n  nop\n",
         "xapk line 4: statement outside block"},
        {"xapk 1\nclass C\n  method m 0 0 void\n    block 1\n",
         "xapk line 4: blocks must appear in order"},
        {"xapk 1\nclass C\n  method m 0 0 void\n    block b0\n",
         "xapk line 4: bad block index: b0"},
        {method + "      const $x 1\n", "xapk line 6: bad local operand: $x"},
        {method + "      const $99999999999 1\n",
         "xapk line 6: bad local operand: $99999999999"},
        {method + "      const $0 99999999999999999999\n",
         "xapk line 6: bad operand: 99999999999999999999"},
        {method + "      const $0 d:abc\n", "xapk line 6: bad double operand: d:abc"},
        {method + "      const $0 $0\n", "xapk line 6: const with local operand"},
        {method + "      const $0\n", "xapk line 6: statement 'const' needs more tokens"},
        {method + "      copy $0 5\n", "xapk line 6: expected local, got 5"},
        {method + "      copy $0 \"a\\qb\"\n", "xapk line 6: expected local, got \"aqb\""},
        {method + "      goto x1\n", "xapk line 6: bad block ref: x1"},
        {method + "      goto b\n", "xapk line 6: bad block ref: b"},
        {method + "      goto b99999999999\n", "xapk line 6: bad block ref: b99999999999"},
        {method + "      if $0 zz $0 b0 b0\n", "xapk line 6: bad cmp op: zz"},
        {method + "      bin $0 pow 1 2\n", "xapk line 6: bad binary op: pow"},
        {method + "      call _ dynamic C.m _\n", "xapk line 6: bad invoke kind: dynamic"},
        {method + "      bogus 1\n", "xapk line 6: unknown statement mnemonic: bogus"},
        {"xapk 1\nclass C\nmethod m 0 0 void\nblock 0\nbogus\n",
         "xapk line 5: unknown statement mnemonic: bogus"},
        {method + "      \"a\\\"b\"\n", "xapk line 6: unknown statement mnemonic: \"a\"b\""},
        {method + "      copy $0 $5\n      ret _\n",
         "parsed xapk failed verification: method C.m: use of undeclared local $5 in "
         "$0 = $5"},
        {method + "      call _ static C.m $3 $0 $9\n      ret _\n",
         "parsed xapk failed verification: method C.m: use of undeclared local $3 in "
         "$3.C.m($0, $9)"},
    };
    for (const Row& row : rows) {
        auto parsed = xapk::parse_xapk(row.input);
        ASSERT_FALSE(parsed.ok()) << row.input;
        EXPECT_EQ(parsed.error().message, row.message) << row.input;
    }
}

// Lexical variants the loader must read as the same program.
TEST(Xapk, LexicalVariantsParseIdentically) {
    const std::string canonical =
        "xapk 1\n"
        "app \"lex\"\n"
        "resource k \"v\\\\w\"\n"
        "event click C.m \"click:\\\"x\\\"\"\n"
        "class C\n"
        "  field f int\n"
        "  method m 0 1 void\n"
        "    local a java.lang.String\n"
        "    block 0\n"
        "      const $0 \"\"\n"
        "      const $0 \"qz\"\n"
        "      call _ static C.g _ \"a\" $0\n"
        "      ret _\n"
        "  method g 1 2 void\n"
        "    local x java.lang.String\n"
        "    local y java.lang.String\n"
        "    block 0\n"
        "      ret _\n";
    auto replace_all = [](std::string s, const std::string& from, const std::string& to) {
        for (std::size_t at = s.find(from); at != std::string::npos;
             at = s.find(from, at + to.size())) {
            s.replace(at, from.size(), to);
        }
        return s;
    };
    auto base = xapk::parse_xapk(canonical);
    ASSERT_TRUE(base.ok()) << base.error().message;
    const std::string expected = xapk::write_xapk(base.value());
    EXPECT_EQ(expected, canonical);
    ASSERT_EQ(base.value().resources.size(), 1u);
    EXPECT_EQ(base.value().resources[0].second, "v\\w");
    EXPECT_EQ(base.value().events[0].label, "click:\"x\"");
    const auto& stmts = base.value().classes[0].methods[0].blocks[0].statements;
    EXPECT_EQ(std::get<AssignConst>(stmts[0]).value.string_value, "");

    const std::vector<std::string> variants = {
        replace_all(canonical, "\n", "\r\n"),
        replace_all(replace_all(canonical, "  ", "\t"), " $", "\t$"),
        canonical.substr(0, canonical.size() - 1),
        replace_all(replace_all(canonical, "class C\n", "# a comment\n\nclass C\n   \n"),
                    "    block 0\n", "    # indented comment\n    block 0\n"),
        replace_all(canonical, "\"qz\"", "\"\\q\\z\""),
        replace_all(canonical, "\"a\" $0", "\"a\"$0"),
    };
    for (const std::string& text : variants) {
        auto parsed = xapk::parse_xapk(text);
        ASSERT_TRUE(parsed.ok()) << parsed.error().message << "\n" << text;
        EXPECT_EQ(xapk::write_xapk(parsed.value()), expected) << text;
    }
}

TEST(Obfuscate, RenamesAppIdentifiersOnly) {
    Program p = make_sample();
    auto [obf, map] = xapk::obfuscate(p);
    EXPECT_TRUE(verify(obf).ok());
    // App class renamed.
    EXPECT_EQ(obf.find_class("com.app.Main"), nullptr);
    ASSERT_EQ(map.classes.count("com.app.Main"), 1u);
    EXPECT_NE(obf.find_class(map.classes.at("com.app.Main")), nullptr);
    // Library references untouched.
    bool saw_http_client = false;
    for (const Method* m : obf.method_table()) {
        for (const auto& block : m->blocks) {
            for (const auto& stmt : block.statements) {
                if (const auto* call = std::get_if<Invoke>(&stmt)) {
                    if (call->callee.class_name == "org.apache.http.client.HttpClient") {
                        saw_http_client = true;
                    }
                }
            }
        }
    }
    EXPECT_TRUE(saw_http_client);
    // Events updated to renamed handler.
    ASSERT_EQ(obf.events.size(), 1u);
    EXPECT_NE(obf.find_method(obf.events[0].handler), nullptr);
}

TEST(Obfuscate, Deterministic) {
    Program p = make_sample();
    auto [a, ma] = xapk::obfuscate(p);
    auto [b, mb2] = xapk::obfuscate(p);
    EXPECT_EQ(xapk::write_xapk(a), xapk::write_xapk(b));
}

TEST(Statements, UsesAndDefs) {
    Statement copy = AssignCopy{3, 7};
    EXPECT_EQ(def_of(copy).value(), 3u);
    ASSERT_EQ(uses_of(copy).size(), 1u);
    EXPECT_EQ(uses_of(copy)[0], 7u);

    Invoke call;
    call.dst = 1;
    call.base = 2;
    call.args = {Operand(LocalId(4)), cs("k")};
    Statement stmt = call;
    auto uses = uses_of(stmt);
    EXPECT_EQ(uses.size(), 2u);  // base + one local arg
    EXPECT_EQ(def_of(stmt).value(), 1u);
}

TEST(Program, ResolveVirtualWalksHierarchy) {
    ProgramBuilder pb("inherit");
    auto base = pb.add_class("com.app.Base");
    base.method("greet").ret();
    pb.add_class("com.app.Derived", "com.app.Base");
    Program p = pb.build();
    const Method* m = p.resolve_virtual({"com.app.Derived", "greet"});
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->class_name, "com.app.Base");
}

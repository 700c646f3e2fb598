// Inter-transaction dependency analysis tests (§3.3): direct flows,
// static/prefs/DB-mediated flows, field granularity, behavior tags, the
// global-channel-only landing, and the parallel tap probes' determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "xir/builder.hpp"

using namespace extractocol;
using namespace extractocol::xir;

namespace {

core::AnalysisReport analyze(Program p, bool async = true, unsigned jobs = 1) {
    core::AnalyzerOptions options;
    options.async_heuristic = async;
    options.jobs = jobs;
    return core::Analyzer(options).analyze(p);
}

/// Returns the dependency matching from/to URI fragments, or nullptr.
const txn::Dependency* find_edge(const core::AnalysisReport& report,
                                 const std::string& from_frag,
                                 const std::string& to_frag) {
    for (const auto& d : report.dependencies) {
        if (report.transactions[d.from].uri_regex.find(from_frag) != std::string::npos &&
            report.transactions[d.to].uri_regex.find(to_frag) != std::string::npos) {
            return &d;
        }
    }
    return nullptr;
}

/// Emits "resp = client.execute(new HttpGet(url))" and returns resp local.
LocalId emit_get(MethodBuilder& mb, Operand url) {
    LocalId u = mb.local("u", "java.lang.String");
    mb.assign(u, url);
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(u)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    return resp;
}

LocalId emit_parse_field(MethodBuilder& mb, LocalId resp, const std::string& key) {
    LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
    mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    LocalId body = mb.local("b", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    LocalId json = mb.local("j", "org.json.JSONObject");
    mb.new_object(json, "org.json.JSONObject");
    mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
    LocalId v = mb.local("v", "java.lang.String");
    mb.vcall(v, json, "org.json.JSONObject.getString", {cs(key)});
    return v;
}

/// Emits a POST of `url` whose form body carries the pair (key, value).
void emit_post_pair(MethodBuilder& mb, const std::string& url, const std::string& key,
                    LocalId value) {
    LocalId list = mb.local("params", "java.util.ArrayList");
    mb.new_object(list, "java.util.ArrayList");
    mb.special(list, "java.util.ArrayList.<init>");
    LocalId pair = mb.local("pair", "org.apache.http.message.BasicNameValuePair");
    mb.new_object(pair, "org.apache.http.message.BasicNameValuePair");
    mb.special(pair, "org.apache.http.message.BasicNameValuePair.<init>",
               {cs(key), Operand(value)});
    mb.vcall(std::nullopt, list, "java.util.ArrayList.add", {Operand(pair)});
    LocalId entity = mb.local("fe", "org.apache.http.client.entity.UrlEncodedFormEntity");
    mb.new_object(entity, "org.apache.http.client.entity.UrlEncodedFormEntity");
    mb.special(entity, "org.apache.http.client.entity.UrlEncodedFormEntity.<init>",
               {Operand(list)});
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpPost");
    mb.new_object(req, "org.apache.http.client.methods.HttpPost");
    mb.special(req, "org.apache.http.client.methods.HttpPost.<init>", {cs(url)});
    mb.vcall(std::nullopt, req, "org.apache.http.client.methods.HttpPost.setEntity",
             {Operand(entity)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
}

/// One line per edge: "<from uri> -> <to uri> <response field> <request field> <via>".
std::vector<std::string> edge_lines(const core::AnalysisReport& report) {
    std::vector<std::string> out;
    for (const auto& d : report.dependencies) {
        out.push_back(report.transactions[d.from].uri_regex + " -> " +
                      report.transactions[d.to].uri_regex + " " + d.response_field + " " +
                      d.request_field + " " + d.via);
    }
    return out;
}

/// The report's "dependencies" JSON, compact.
std::string dependencies_json(const core::AnalysisReport& report) {
    text::Json doc = report.to_json();
    const text::Json* deps = doc.find("dependencies");
    return deps ? deps->dump() : std::string();
}

std::uint64_t counter_of(const core::AnalysisReport& report, const std::string& name) {
    for (const auto& [key, value] : report.stats.counters) {
        if (key == name) return value;
    }
    return 0;
}

}  // namespace

TEST(Dependency, DirectFlowWithinOneHandler) {
    // One handler: first response's "next" field feeds the second request's
    // URI directly (no heap channel).
    ProgramBuilder pb("direct");
    auto cls = pb.add_class("com.d.Main");
    auto mb = cls.method("go");
    LocalId resp = emit_get(mb, cs("http://h/first.json"));
    LocalId next = emit_parse_field(mb, resp, "next");
    LocalId req2 = mb.local("req2", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req2, "org.apache.http.client.methods.HttpGet");
    mb.special(req2, "org.apache.http.client.methods.HttpGet.<init>", {Operand(next)});
    LocalId client2 = mb.local("c2", "org.apache.http.client.HttpClient");
    LocalId resp2 = mb.local("r2", "org.apache.http.HttpResponse");
    mb.vcall(resp2, client2, "org.apache.http.client.HttpClient.execute",
             {Operand(req2)});
    mb.ret();
    pb.register_event({"com.d.Main", "go"}, EventKind::kOnClick, "click");
    auto report = analyze(pb.build());
    ASSERT_EQ(report.transactions.size(), 2u);

    const txn::Dependency* edge = find_edge(report, "first", ".*");
    ASSERT_NE(edge, nullptr) << report.to_text();
    EXPECT_EQ(edge->response_field, "next");
    EXPECT_EQ(edge->request_field, "uri");
    EXPECT_TRUE(edge->via.empty());  // direct flow
}

TEST(Dependency, PrefsMediatedFlow) {
    ProgramBuilder pb("prefs");
    auto cls = pb.add_class("com.d.P");
    {
        auto mb = cls.method("login");
        LocalId resp = emit_get(mb, cs("http://h/login.json"));
        LocalId token = emit_parse_field(mb, resp, "sid");
        LocalId editor = mb.local("ed", "android.content.SharedPreferences$Editor");
        mb.vcall(std::nullopt, editor,
                 "android.content.SharedPreferences$Editor.putString",
                 {cs("session"), Operand(token)});
        mb.ret();
        pb.register_event({"com.d.P", "login"}, EventKind::kOnLogin, "login");
    }
    {
        auto mb = cls.method("sync");
        LocalId prefs = mb.local("sp", "android.content.SharedPreferences");
        LocalId token = mb.local("t", "java.lang.String");
        mb.vcall(token, prefs, "android.content.SharedPreferences.getString",
                 {cs("session"), cs("")});
        LocalId url = mb.local("u", "java.lang.String");
        mb.binop(url, BinaryOp::Op::kConcat, cs("http://h/sync?sid="), Operand(token));
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
        pb.register_event({"com.d.P", "sync"}, EventKind::kOnClick, "click");
    }
    auto report = analyze(pb.build());
    const txn::Dependency* edge = find_edge(report, "login", "sync");
    ASSERT_NE(edge, nullptr) << report.to_text();
    EXPECT_EQ(edge->response_field, "sid");
    EXPECT_EQ(edge->via, "prefs:session");
}

TEST(Dependency, FieldGranularityNoFalsePositives) {
    // Login response has two fields; only "uh" feeds the vote body. The
    // other field must not create an edge to the vote body field.
    ProgramBuilder pb("fields");
    auto cls = pb.add_class("com.d.F");
    {
        auto mb = cls.method("login");
        LocalId resp = emit_get(mb, cs("http://h/login.json"));
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("b", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        LocalId json = mb.local("j", "org.json.JSONObject");
        mb.new_object(json, "org.json.JSONObject");
        mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
        LocalId uh = mb.local("uh", "java.lang.String");
        mb.vcall(uh, json, "org.json.JSONObject.getString", {cs("modhash")});
        LocalId display = mb.local("d", "java.lang.String");
        mb.vcall(display, json, "org.json.JSONObject.getString", {cs("display_name")});
        mb.store_static("com.d.F", "sUh", Operand(uh));
        // display_name is only shown in the UI, never sent.
        mb.ret();
        pb.register_event({"com.d.F", "login"}, EventKind::kOnLogin, "login");
    }
    {
        auto mb = cls.method("vote");
        LocalId uh = mb.local("uh", "java.lang.String");
        mb.load_static(uh, "com.d.F", "sUh");
        emit_post_pair(mb, "http://h/vote", "uh", uh);
        mb.ret();
        pb.register_event({"com.d.F", "vote"}, EventKind::kOnClick, "click");
    }
    auto report = analyze(pb.build());
    bool modhash_edge = false;
    bool display_edge = false;
    for (const auto& d : report.dependencies) {
        if (d.response_field == "modhash" && d.request_field == "body:uh") {
            modhash_edge = true;
        }
        if (d.response_field == "display_name") display_edge = true;
    }
    EXPECT_TRUE(modhash_edge) << report.to_text();
    EXPECT_FALSE(display_edge) << report.to_text();
}

TEST(Dependency, TwoHopAsyncChainRespectsLimit) {
    // response -> static A (event 1 writes) ... consumer reads static B that
    // a second event derived from A: beyond the default one-hop limit.
    corpus::CorpusApp app = corpus::build_app("MusicDownloader");
    core::AnalyzerOptions options;
    options.async_heuristic = true;
    auto report = core::Analyzer(options).analyze(app.program);
    // The 2-hop "mirror" endpoints are found (the DP is visible) but their
    // URIs degrade: the async fragment is not recovered.
    std::size_t wildcard_mirrors = 0;
    for (const auto& t : report.transactions) {
        if (t.uri_regex.find("mirror") != std::string::npos) {
            if (t.uri_regex.find("lat=") == std::string::npos) ++wildcard_mirrors;
        }
    }
    EXPECT_GT(wildcard_mirrors, 0u);
}

TEST(Dependency, BehaviorTagsSourcesAndConsumers) {
    corpus::CorpusApp app = corpus::build_app("radio reddit");
    auto report = core::Analyzer().analyze(app.program);
    bool login_from_user_input = false;
    bool stream_to_player = false;
    for (const auto& t : report.transactions) {
        if (t.uri_regex.find("login") != std::string::npos) {
            for (const auto& s : t.sources) {
                if (s == "user_input") login_from_user_input = true;
            }
        }
        for (const auto& c : t.consumers) {
            if (c == "media_player") stream_to_player = true;
        }
    }
    EXPECT_TRUE(login_from_user_input);
    EXPECT_TRUE(stream_to_player);
}

TEST(Dependency, GraphIndicesAreValid) {
    corpus::CorpusApp app = corpus::build_app("TED");
    auto report = core::Analyzer().analyze(app.program);
    for (const auto& d : report.dependencies) {
        EXPECT_LT(d.from, report.transactions.size());
        EXPECT_LT(d.to, report.transactions.size());
        EXPECT_NE(d.from, d.to);
    }
    EXPECT_FALSE(report.dependencies.empty());
}

TEST(Dependency, GlobalChannelOnlyLandingIsABareRequestEdge) {
    // Without the async heuristic the forward flow of the login token stops
    // at the static it is stored in: it never reaches the vote handler, so
    // no tainted call of the vote request can rank a landing site. The
    // vote's backward slice still reads the same static, and that shared
    // channel alone makes the edge — landing on the whole "request".
    ProgramBuilder pb("channel_only");
    auto cls = pb.add_class("com.g.C");
    {
        auto mb = cls.method("login");
        LocalId resp = emit_get(mb, cs("http://h/login.json"));
        LocalId token = emit_parse_field(mb, resp, "sid");
        mb.store_static("com.g.C", "sSid", Operand(token));
        mb.ret();
        pb.register_event({"com.g.C", "login"}, EventKind::kOnLogin, "login");
    }
    {
        auto mb = cls.method("vote");
        LocalId sid = mb.local("sid", "java.lang.String");
        mb.load_static(sid, "com.g.C", "sSid");
        emit_post_pair(mb, "http://h/vote", "sid", sid);
        mb.ret();
        pb.register_event({"com.g.C", "vote"}, EventKind::kOnClick, "click");
    }
    auto report = analyze(pb.build(), /*async=*/false);
    const txn::Dependency* edge = find_edge(report, "login", "vote");
    ASSERT_NE(edge, nullptr) << report.to_text();
    EXPECT_EQ(edge->response_field, "sid");
    EXPECT_EQ(edge->request_field, "request");
    EXPECT_EQ(edge->via, "static:com.g.C.sSid");
}

TEST(Dependency, ManyPairsGiveTheSameEdgesAndCountersAtAnyJobs) {
    // 32 independent login -> request pairs: even pairs flow directly
    // within one handler into the next request's URI, odd pairs through a
    // static into a later handler's form body. Each pair has two edges: the
    // field tap's and the whole-body tap's (empty response field). The tap
    // probes run on the pool at jobs > 1; edges, their order and the run's
    // counters must not move.
    constexpr int kPairs = 32;
    ProgramBuilder pb("many_pairs");
    std::vector<std::string> expected;
    for (int k = 0; k < kPairs; ++k) {
        const std::string cls_name = "com.m.P" + std::to_string(k);
        const std::string n = std::to_string(k);
        auto cls = pb.add_class(cls_name);
        if (k % 2 == 0) {
            auto mb = cls.method("go");
            LocalId resp = emit_get(mb, cs("http://h/login" + n + ".json"));
            LocalId token = emit_parse_field(mb, resp, "next" + n);
            LocalId url = mb.local("u2", "java.lang.String");
            mb.concat(url, cs("http://h/page" + n + "?t="), Operand(token));
            LocalId req = mb.local("req2", "org.apache.http.client.methods.HttpGet");
            mb.new_object(req, "org.apache.http.client.methods.HttpGet");
            mb.special(req, "org.apache.http.client.methods.HttpGet.<init>",
                       {Operand(url)});
            LocalId client = mb.local("c2", "org.apache.http.client.HttpClient");
            LocalId resp2 = mb.local("r2", "org.apache.http.HttpResponse");
            mb.vcall(resp2, client, "org.apache.http.client.HttpClient.execute",
                     {Operand(req)});
            mb.ret();
            pb.register_event({cls_name, "go"}, EventKind::kOnClick, "click");
            const std::string from = "http://h/login" + n + "\\.json";
            const std::string to = "http://h/page" + n + "\\?t=.*";
            expected.push_back(from + " -> " + to + " next" + n + " uri ");
            expected.push_back(from + " -> " + to + "  uri ");
        } else {
            {
                auto mb = cls.method("login");
                LocalId resp = emit_get(mb, cs("http://h/login" + n + ".json"));
                LocalId token = emit_parse_field(mb, resp, "tok" + n);
                mb.store_static(cls_name, "sTok", Operand(token));
                mb.ret();
                pb.register_event({cls_name, "login"}, EventKind::kOnLogin, "login");
            }
            {
                auto mb = cls.method("vote");
                LocalId tok = mb.local("tok", "java.lang.String");
                mb.load_static(tok, cls_name, "sTok");
                emit_post_pair(mb, "http://h/vote" + n, "tok", tok);
                mb.ret();
                pb.register_event({cls_name, "vote"}, EventKind::kOnClick, "click");
            }
            const std::string from = "http://h/login" + n + "\\.json";
            const std::string to = "http://h/vote" + n;
            const std::string via = " static:" + cls_name + ".sTok";
            expected.push_back(from + " -> " + to + " tok" + n + " body:tok" + via);
            expected.push_back(from + " -> " + to + "  body:tok" + via);
        }
    }
    Program program = pb.build();

    auto baseline = analyze(program, true, 1);
    std::vector<std::string> lines = edge_lines(baseline);
    std::sort(lines.begin(), lines.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(lines, expected) << baseline.to_text();
    const std::string json = dependencies_json(baseline);
    EXPECT_GT(counter_of(baseline, "txn.response_taps"), 0u);

    for (unsigned jobs : {2u, 8u}) {
        auto parallel = analyze(program, true, jobs);
        EXPECT_EQ(dependencies_json(parallel), json) << "jobs=" << jobs;
        for (const char* name :
             {"txn.response_taps", "taint.runs", "taint.worklist_iterations"}) {
            EXPECT_EQ(counter_of(parallel, name), counter_of(baseline, name))
                << name << " jobs=" << jobs;
        }
        EXPECT_EQ(parallel.stats.counters, baseline.stats.counters) << "jobs=" << jobs;
    }
}

#include <gtest/gtest.h>

#include <algorithm>

#include "sig/builder.hpp"
#include "sig/sig.hpp"
#include "sig/value.hpp"
#include "text/regex.hpp"
#include "xir/builder.hpp"

using namespace extractocol;
using namespace extractocol::sig;

// --------------------------------------------------------------- Sig IL --

TEST(SigIl, ConcatFoldsAdjacentConstants) {
    Sig s = Sig::concat(Sig::constant("http://"), Sig::constant("host/"));
    EXPECT_EQ(s.kind, Sig::Kind::kConst);
    EXPECT_EQ(s.text, "http://host/");
}

TEST(SigIl, ConcatFlattensNesting) {
    Sig inner = Sig::concat(Sig::constant("a"), Sig::unknown());
    Sig outer = Sig::concat(inner, Sig::constant("b"));
    ASSERT_EQ(outer.kind, Sig::Kind::kConcat);
    EXPECT_EQ(outer.children.size(), 3u);
}

TEST(SigIl, ConcatDropsEmptyLiterals) {
    Sig s = Sig::concat(Sig::constant(""), Sig::unknown());
    EXPECT_EQ(s.kind, Sig::Kind::kUnknown);
}

TEST(SigIl, AltDeduplicates) {
    Sig s = Sig::alt(Sig::constant("x"), Sig::constant("x"));
    EXPECT_EQ(s.kind, Sig::Kind::kConst);
    Sig t = Sig::alt(Sig::constant("x"), Sig::constant("y"));
    ASSERT_EQ(t.kind, Sig::Kind::kAlt);
    EXPECT_EQ(t.children.size(), 2u);
    // Nested alt gets absorbed and deduped.
    Sig u = Sig::alt(t, Sig::constant("y"));
    EXPECT_EQ(u.children.size(), 2u);
}

TEST(SigIl, RegexRendering) {
    Sig uri = Sig::concat_all({Sig::constant("http://h/a.json?q="),
                               Sig::unknown(Sig::ValueType::kString),
                               Sig::constant("&n="),
                               Sig::unknown(Sig::ValueType::kInt)});
    EXPECT_EQ(uri.to_regex(), "http://h/a\\.json\\?q=.*&n=[0-9]+");
}

TEST(SigIl, AltAndRepRendering) {
    Sig s = Sig::concat(Sig::alt(Sig::constant("save"), Sig::constant("unsave")),
                        Sig::rep(Sig::constant("&x")));
    EXPECT_EQ(s.to_regex(), "(save|unsave)(&x)*");
}

TEST(SigIl, RegexOfSignatureMatchesConcreteTraffic) {
    Sig uri = Sig::concat_all({Sig::constant("http://api/v1/items/"),
                               Sig::unknown(Sig::ValueType::kInt),
                               Sig::constant("/detail.json")});
    auto re = text::Regex::compile(uri.to_regex());
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.value().full_match("http://api/v1/items/42/detail.json"));
    EXPECT_FALSE(re.value().full_match("http://api/v1/items/abc/detail.json"));
}

TEST(SigIl, JsonObjectRegexMatchesSerialization) {
    Sig obj = Sig::json_object();
    obj.set_member("token", Sig::unknown(Sig::ValueType::kString));
    obj.set_member("count", Sig::unknown(Sig::ValueType::kInt));
    auto re = text::Regex::compile(obj.to_regex());
    ASSERT_TRUE(re.ok()) << obj.to_regex();
    EXPECT_TRUE(re.value().full_match(R"({"token":"abc","count":7})"));
    EXPECT_FALSE(re.value().full_match(R"({"count":7})"));
}

TEST(SigIl, KeywordsFromJsonTree) {
    Sig obj = Sig::json_object();
    obj.set_member("data", [] {
        Sig inner = Sig::json_object();
        inner.set_member("modhash", Sig::unknown());
        return inner;
    }());
    auto keywords = obj.keywords();
    EXPECT_EQ(keywords.size(), 2u);
    EXPECT_EQ(keywords[0], "data");
    EXPECT_EQ(keywords[1], "modhash");
}

TEST(SigIl, KeywordsFromQueryStringConstants) {
    Sig s = Sig::concat_all({Sig::constant("user="), Sig::unknown(),
                             Sig::constant("&passwd="), Sig::unknown(),
                             Sig::constant("&api_type=json")});
    auto keywords = s.keywords();
    ASSERT_EQ(keywords.size(), 3u);
    EXPECT_EQ(keywords[0], "user");
    EXPECT_EQ(keywords[1], "passwd");
    EXPECT_EQ(keywords[2], "api_type");
}

TEST(SigIl, KeywordsFromUriQuery) {
    Sig s = Sig::constant("http://h/p?alpha=1&beta=2");
    auto keywords = s.keywords();
    ASSERT_EQ(keywords.size(), 2u);
    EXPECT_EQ(keywords[0], "alpha");
    EXPECT_EQ(keywords[1], "beta");
}

TEST(SigIl, XmlKeywordsIncludeTagsAndAttributes) {
    Sig element = Sig::xml_element("ad");
    element.set_member("width", Sig::unknown());
    Sig child = Sig::xml_element("url");
    element.children.push_back(child);
    auto keywords = element.keywords();
    EXPECT_EQ(keywords.size(), 3u);  // ad, width, url
}

TEST(SigIl, ConstantBytes) {
    Sig s = Sig::concat_all({Sig::constant("abc"), Sig::unknown(), Sig::constant("de")});
    EXPECT_EQ(s.constant_bytes(), 5u);
}

TEST(SigIl, PureWildcard) {
    EXPECT_TRUE(Sig::unknown().is_pure_wildcard());
    EXPECT_TRUE(Sig::concat(Sig::constant(""), Sig::unknown()).is_pure_wildcard());
    EXPECT_FALSE(Sig::constant("x").is_pure_wildcard());
    EXPECT_FALSE(Sig::xml_element("t").is_pure_wildcard());
}

TEST(SigIl, JsonSchemaRendering) {
    Sig obj = Sig::json_object();
    obj.set_member("id", Sig::unknown(Sig::ValueType::kInt));
    auto schema = obj.to_json_schema();
    EXPECT_EQ(schema.find("type")->as_string(), "object");
    EXPECT_EQ(schema.find("properties")->find("id")->find("type")->as_string(),
              "integer");
}

TEST(SigIl, DtdRendering) {
    Sig root = Sig::xml_element("feed");
    Sig entry = Sig::xml_element("entry");
    entry.repeated = true;
    root.children.push_back(entry);
    root.set_member("version", Sig::unknown());
    std::string dtd = root.to_dtd();
    EXPECT_NE(dtd.find("<!ELEMENT feed (entry*)>"), std::string::npos);
    EXPECT_NE(dtd.find("<!ATTLIST feed version CDATA #IMPLIED>"), std::string::npos);
}

// ------------------------------------------------------------- widening --

TEST(SigWiden, LoopSuffixBecomesRep) {
    Sig base = Sig::constant("http://h/?");
    Sig grown = Sig::concat(base, Sig::concat(Sig::constant("&k="), Sig::unknown()));
    Sig widened = widen_loop(base, grown);
    std::string regex = widened.to_regex();
    EXPECT_NE(regex.find(")*"), std::string::npos) << regex;
    auto re = text::Regex::compile(regex);
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.value().full_match("http://h/?"));
    EXPECT_TRUE(re.value().full_match("http://h/?&k=1&k=2&k=3"));
}

TEST(SigWiden, IdempotentOnEqual) {
    Sig base = Sig::constant("x");
    EXPECT_EQ(widen_loop(base, base), base);
}

TEST(SigWiden, JsonArrayBecomesRepeated) {
    Sig base = Sig::json_array();
    Sig grown = Sig::json_array();
    grown.children.push_back(Sig::unknown());
    grown.children.push_back(Sig::unknown());
    Sig widened = widen_loop(base, grown);
    ASSERT_EQ(widened.kind, Sig::Kind::kJsonArray);
    EXPECT_TRUE(widened.repeated);
    EXPECT_EQ(widened.children.size(), 1u);
}

// ------------------------------------------------------------ DemandNode --

TEST(DemandNode, ChildPromotesToObject) {
    DemandNode root;
    auto child = root.child("token");
    child->narrow(DemandNode::Kind::kString);
    EXPECT_EQ(root.kind, DemandNode::Kind::kObject);
    Sig s = root.to_sig();
    ASSERT_EQ(s.kind, Sig::Kind::kJsonObject);
    EXPECT_NE(s.member("token"), nullptr);
}

TEST(DemandNode, ChildIsIdempotent) {
    DemandNode root;
    auto a = root.child("k");
    auto b = root.child("k");
    EXPECT_EQ(a, b);
    EXPECT_EQ(root.members.size(), 1u);
}

TEST(DemandNode, ArrayItemShape) {
    DemandNode root;
    auto item = root.array_item();
    item->child("title")->narrow(DemandNode::Kind::kString);
    Sig s = root.to_sig();
    ASSERT_EQ(s.kind, Sig::Kind::kJsonArray);
    EXPECT_TRUE(s.repeated);
    ASSERT_EQ(s.children.size(), 1u);
    EXPECT_NE(s.children[0].member("title"), nullptr);
}

TEST(DemandNode, NarrowDoesNotOverrideStructure) {
    DemandNode root;
    root.child("x");
    root.narrow(DemandNode::Kind::kString);  // already object: no change
    EXPECT_EQ(root.kind, DemandNode::Kind::kObject);
}

TEST(DemandNode, XmlRendering) {
    DemandNode root;
    root.kind = DemandNode::Kind::kXml;
    root.child("relay")->narrow(DemandNode::Kind::kString);
    root.child("@version")->narrow(DemandNode::Kind::kString);
    Sig s = root.to_sig();
    ASSERT_EQ(s.kind, Sig::Kind::kXmlElement);
    EXPECT_EQ(s.children.size(), 1u);   // <relay>
    EXPECT_EQ(s.members.size(), 1u);    // version attribute
}

// -------------------------------------------------------------- SigValue --

TEST(SigValue, BuilderSharesMutationsAcrossAliases) {
    SigValue a = SigValue::builder(Sig::constant("x"));
    SigValue b = a;  // alias
    *a.shared_sig = Sig::concat(*a.shared_sig, Sig::constant("y"));
    EXPECT_EQ(b.to_sig().text, "xy");
}

TEST(SigValue, CloneSeparatesCells) {
    SigValue a = SigValue::builder(Sig::constant("x"));
    std::map<const void*, SigValue> memo;
    SigValue c = a.clone(memo);
    *a.shared_sig = Sig::constant("mutated");
    EXPECT_EQ(c.to_sig().text, "x");
}

TEST(SigValue, ClonePreservesAliasingViaMemo) {
    SigValue a = SigValue::builder(Sig::constant("x"));
    SigValue alias = a;
    std::map<const void*, SigValue> memo;
    SigValue ca = a.clone(memo);
    SigValue calias = alias.clone(memo);
    EXPECT_EQ(ca.shared_sig, calias.shared_sig);  // same clone for same cell
}

TEST(SigValue, MergeBuildersProducesAlternation) {
    SigValue a = SigValue::builder(Sig::constant("left"));
    SigValue b = SigValue::builder(Sig::constant("right"));
    SigValue merged = SigValue::merge(a, b);
    EXPECT_EQ(merged.to_sig().to_regex(), "(left|right)");
    EXPECT_EQ(merged.kind, SigValue::Kind::kBuilder);  // still appendable
}

TEST(SigValue, MergeJsonUnionsMembers) {
    SigValue a = SigValue::json_object();
    a.shared_sig->set_member("x", Sig::constant("1"));
    SigValue b = SigValue::json_object();
    b.shared_sig->set_member("y", Sig::constant("2"));
    SigValue merged = SigValue::merge(a, b);
    EXPECT_NE(merged.shared_sig->member("x"), nullptr);
    EXPECT_NE(merged.shared_sig->member("y"), nullptr);
}

TEST(SigValue, MergeJsonConflictingMemberBecomesAlt) {
    SigValue a = SigValue::json_object();
    a.shared_sig->set_member("k", Sig::constant("1"));
    SigValue b = SigValue::json_object();
    b.shared_sig->set_member("k", Sig::constant("2"));
    SigValue merged = SigValue::merge(a, b);
    EXPECT_EQ(merged.shared_sig->member("k")->kind, Sig::Kind::kAlt);
}

TEST(SigValue, MergeNoneYieldsOther) {
    SigValue a = SigValue::of_str(Sig::constant("v"));
    EXPECT_EQ(SigValue::merge(SigValue::none(), a).to_sig().text, "v");
    EXPECT_EQ(SigValue::merge(a, SigValue::none()).to_sig().text, "v");
}

TEST(SigValue, MergeRequestsUnionsHeaders) {
    SigValue a = SigValue::new_request("GET", Sig::constant("u"), true);
    a.request->headers.emplace_back(Sig::constant("A"), Sig::constant("1"));
    SigValue b = SigValue::new_request("GET", Sig::constant("u"), true);
    b.request->headers.emplace_back(Sig::constant("B"), Sig::constant("2"));
    SigValue merged = SigValue::merge(a, b);
    EXPECT_EQ(merged.request->headers.size(), 2u);
}

TEST(SigValue, PairToSig) {
    SigValue p = SigValue::new_pair(Sig::constant("id"), Sig::unknown());
    EXPECT_EQ(p.to_sig().to_regex(), "id=.*");
}

TEST(SigValue, ListToSigJoinsWithAmpersand) {
    SigValue list = SigValue::new_list();
    list.list->push_back(SigValue::new_pair(Sig::constant("a"), Sig::constant("1")));
    list.list->push_back(SigValue::new_pair(Sig::constant("b"), Sig::unknown()));
    EXPECT_EQ(list.to_sig().to_regex(), "a=1&b=.*");
}

TEST(SigValue, DemandLeafRendersTypedUnknown) {
    auto node = std::make_shared<DemandNode>();
    node->narrow(DemandNode::Kind::kInt);
    SigValue v = SigValue::of_demand(node);
    EXPECT_EQ(v.to_sig().to_regex(), "[0-9]+");
}

// ------------------------------------------------------------ merge_json --

TEST(MergeJson, ArraysUnionItems) {
    Sig a = Sig::json_array();
    a.children.push_back(Sig::constant("1"));
    Sig b = Sig::json_array();
    b.children.push_back(Sig::constant("2"));
    b.repeated = true;
    Sig merged = merge_json_sigs(a, b);
    EXPECT_EQ(merged.children.size(), 2u);
    EXPECT_TRUE(merged.repeated);
}

TEST(MergeJson, NestedObjectsMergeRecursively) {
    Sig a = Sig::json_object();
    Sig a_inner = Sig::json_object();
    a_inner.set_member("x", Sig::constant("1"));
    a.set_member("data", a_inner);
    Sig b = Sig::json_object();
    Sig b_inner = Sig::json_object();
    b_inner.set_member("y", Sig::constant("2"));
    b.set_member("data", b_inner);
    Sig merged = merge_json_sigs(a, b);
    const Sig* data = merged.member("data");
    ASSERT_NE(data, nullptr);
    EXPECT_NE(data->member("x"), nullptr);
    EXPECT_NE(data->member("y"), nullptr);
}

// ------------------------------------------------- producer pre-pass --

namespace {

/// onClick sends Config.host ++ Config.path. onCreate stores host two calls
/// down (onCreate -> Net.init -> Net.setHost); onTimer stores a path;
/// onLocation reaches Helper.b two calls down (through Helper.a) without any
/// data effect.
struct ProducerFixture {
    xir::Program program;
    semantics::SemanticModel model = semantics::SemanticModel::standard();
    std::uint32_t on_click = 0;
    xir::StmtRef dp_site;

    ProducerFixture() {
        using namespace xir;
        ProgramBuilder pb("producers");
        auto config = pb.add_class("com.t.Config");
        config.field("host", "java.lang.String");
        config.field("path", "java.lang.String");
        auto net = pb.add_class("com.t.Net");
        {
            auto mb = net.method("setHost");
            mb.set_static();
            mb.store_static("com.t.Config", "host", cs("http://one.example.com"));
            mb.ret();
        }
        {
            auto mb = net.method("init");
            mb.set_static();
            mb.scall(std::nullopt, "com.t.Net.setHost");
            mb.ret();
        }
        auto helper = pb.add_class("com.t.Helper");
        {
            auto mb = helper.method("b");
            mb.set_static();
            mb.ret();
        }
        {
            auto mb = helper.method("a");
            mb.set_static();
            mb.scall(std::nullopt, "com.t.Helper.b");
            mb.ret();
        }
        auto main = pb.add_class("com.t.Main", "android.app.Activity");
        {
            auto mb = main.method("onCreate");
            mb.scall(std::nullopt, "com.t.Net.init");
            mb.ret();
        }
        {
            auto mb = main.method("onTimer");
            mb.store_static("com.t.Config", "path", cs("/conflict"));
            mb.ret();
        }
        {
            auto mb = main.method("onLocation");
            mb.scall(std::nullopt, "com.t.Helper.a");
            mb.ret();
        }
        {
            auto mb = main.method("onClick");
            LocalId host = mb.local("host", "java.lang.String");
            LocalId path = mb.local("path", "java.lang.String");
            LocalId url = mb.local("url", "java.lang.String");
            mb.load_static(host, "com.t.Config", "host");
            mb.load_static(path, "com.t.Config", "path");
            mb.concat(url, Operand(host), Operand(path));
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
        pb.register_event({"com.t.Main", "onCreate"}, EventKind::kOnCreate, "create");
        pb.register_event({"com.t.Main", "onTimer"}, EventKind::kOnTimer, "timer");
        pb.register_event({"com.t.Main", "onLocation"}, EventKind::kOnLocation, "location");
        pb.register_event({"com.t.Main", "onClick"}, EventKind::kOnClick, "click");
        program = pb.build();

        on_click = *program.method_index({"com.t.Main", "onClick"});
        const auto& stmts = program.method_at(on_click).blocks[0].statements;
        for (std::uint32_t i = 0; i < stmts.size(); ++i) {
            const auto* call = std::get_if<Invoke>(&stmts[i]);
            if (call && call->callee.method_name == "execute") dp_site = {on_click, 0, i};
        }
    }

    /// Every statement of `cls.method`.
    void add_method(std::vector<xir::StmtRef>& slice, const std::string& cls,
                    const std::string& method) const {
        std::uint32_t mi = *program.method_index({cls, method});
        const auto& blocks = program.method_at(mi).blocks;
        for (xir::BlockId b = 0; b < blocks.size(); ++b) {
            for (std::uint32_t i = 0; i < blocks[b].statements.size(); ++i) {
                slice.push_back({mi, b, i});
            }
        }
    }

    /// The transaction's slice: all of onClick, plus the call chain that
    /// carries control from onCreate down to the host store; sorted, as
    /// BuildRequest::slice requires.
    [[nodiscard]] std::vector<xir::StmtRef> slice() const {
        std::vector<xir::StmtRef> slice;
        add_method(slice, "com.t.Main", "onClick");
        add_method(slice, "com.t.Main", "onCreate");
        add_method(slice, "com.t.Net", "init");
        add_method(slice, "com.t.Net", "setHost");
        std::sort(slice.begin(), slice.end());
        return slice;
    }

    std::optional<TransactionSignature> build(const std::vector<xir::StmtRef>* slice,
                                              BuildStats* stats = nullptr) const {
        xir::CallGraph callgraph(program, model.callback_resolver());
        SignatureBuilder builder(program, callgraph, model);
        BuildRequest request;
        request.dp_site = dp_site;
        request.dp = model.demarcation("org.apache.http.client.HttpClient", "execute");
        request.slice = slice;
        return builder.build(request, stats);
    }
};

}  // namespace

TEST(ProducerPrePass, HandlerTwoCallsFromTheSliceIsInterpreted) {
    ProducerFixture f;
    auto slice = f.slice();
    auto signature = f.build(&slice);
    ASSERT_TRUE(signature.has_value());
    EXPECT_NE(signature->uri_regex().find("one"), std::string::npos) << signature->uri_regex();

    // onLocation has no slice statement of its own and neither has Helper.a;
    // one statement of Helper.b in the slice makes onLocation a producer, so
    // its two statements (the out-of-slice call is skipped) are executed.
    BuildStats without;
    ASSERT_TRUE(f.build(&slice, &without).has_value());
    std::uint32_t b = *f.program.method_index({"com.t.Helper", "b"});
    const xir::StmtRef first_of_b{b, 0, 0};
    slice.insert(std::lower_bound(slice.begin(), slice.end(), first_of_b), first_of_b);
    BuildStats with;
    ASSERT_TRUE(f.build(&slice, &with).has_value());
    EXPECT_EQ(with.steps, without.steps + 2);
}

TEST(ProducerPrePass, HandlerReachingNoSliceMethodIsSkipped) {
    ProducerFixture f;
    auto slice = f.slice();
    BuildStats stats;
    auto signature = f.build(&slice, &stats);
    ASSERT_TRUE(signature.has_value());
    EXPECT_EQ(signature->uri_regex().find("conflict"), std::string::npos)
        << signature->uri_regex();
    // onClick, onCreate, Net.init and Net.setHost: nothing of onTimer or
    // onLocation.
    EXPECT_EQ(stats.steps, slice.size());
}

TEST(ProducerPrePass, NullSliceInterpretsEveryHandler) {
    ProducerFixture f;
    auto signature = f.build(nullptr);
    ASSERT_TRUE(signature.has_value());
    EXPECT_NE(signature->uri_regex().find("one"), std::string::npos) << signature->uri_regex();
    EXPECT_NE(signature->uri_regex().find("conflict"), std::string::npos)
        << signature->uri_regex();
}

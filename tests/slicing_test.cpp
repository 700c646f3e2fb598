// Network-aware slicing tests: DP discovery, request/response slice content,
// object-aware augmentation, calling contexts, and the async heuristic.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "slicing/slicer.hpp"
#include "xir/builder.hpp"

using namespace extractocol;
using namespace extractocol::slicing;
using namespace extractocol::xir;

namespace {

Program two_dp_program() {
    ProgramBuilder pb("slices");
    auto cls = pb.add_class("com.s.Main");
    {
        auto mb = cls.method("fetch");
        LocalId url = mb.local("u", "java.lang.String");
        mb.assign(url, cs("http://h/a"));
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        mb.ret();
    }
    {
        auto mb = cls.method("play");
        LocalId url = mb.local("u", "java.lang.String");
        mb.assign(url, cs("http://cdn/v"));
        LocalId player = mb.local("mp", "android.media.MediaPlayer");
        mb.vcall(std::nullopt, player, "android.media.MediaPlayer.setDataSource",
                 {Operand(url)});
        mb.ret();
    }
    pb.register_event({"com.s.Main", "fetch"}, EventKind::kOnClick, "click:fetch");
    pb.register_event({"com.s.Main", "play"}, EventKind::kOnClick, "click:play");
    return pb.build();
}

template <typename Slice>
bool has(const Slice& slice, const StmtRef& ref) {
    return std::find(slice.begin(), slice.end(), ref) != slice.end();
}

/// Slices `p`, which must hold exactly one transaction, and returns it with
/// the number of object-aware augmentation seeds the slice planted.
std::pair<SlicedTransaction, std::uint64_t> slice_single(const Program& p) {
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    obs::Counter& seeds = obs::counter("slicer.augment_seeds");
    const std::uint64_t before = seeds.value();
    auto txns = slicer.slice_all();
    EXPECT_EQ(txns.size(), 1u);
    return {std::move(txns.at(0)), seeds.value() - before};
}

/// `r = c.execute(req)` on a fresh request for `url`, into the current
/// block. Its own operands (c, req) have no response-slice definition, so
/// they are the two augmentation seeds every fixture below starts with.
void emit_execute(MethodBuilder& mb, LocalId resp, LocalId url) {
    mb.assign(url, cs("http://h/x"));
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
}

}  // namespace

TEST(Slicer, FindsAllDemarcationSites) {
    Program p = two_dp_program();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    EXPECT_EQ(slicer.demarcation_sites().size(), 2u);
}

TEST(Slicer, RequestSliceExcludesResponseCode) {
    Program p = two_dp_program();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    auto txns = slicer.slice_all();
    ASSERT_EQ(txns.size(), 2u);
    const SlicedTransaction* fetch = nullptr;
    for (const auto& t : txns) {
        if (t.trigger == "click:fetch") fetch = &t;
    }
    ASSERT_NE(fetch, nullptr);
    const auto& request = fetch->request_taint.statements;
    const auto& response = fetch->response_taint.statements;
    EXPECT_FALSE(request.empty());
    EXPECT_FALSE(response.empty());
    // Request slice must contain the url constant; response slice must
    // contain the getEntity call; they must not be identical.
    EXPECT_NE(request, response);
}

TEST(Slicer, MediaPlayerDpHasRequestOnly) {
    Program p = two_dp_program();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    auto txns = slicer.slice_all();
    const SlicedTransaction* play = nullptr;
    for (const auto& t : txns) {
        if (t.trigger == "click:play") play = &t;
    }
    ASSERT_NE(play, nullptr);
    EXPECT_FALSE(play->request_taint.statements.empty());
    EXPECT_TRUE(play->response_taint.statements.empty());
}

TEST(Slicer, TriggerResolution) {
    Program p = two_dp_program();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    for (const auto& t : slicer.slice_all()) {
        EXPECT_EQ(t.trigger_kind, EventKind::kOnClick);
        EXPECT_TRUE(t.trigger == "click:fetch" || t.trigger == "click:play");
    }
}

TEST(Slicer, ContextsSplitSharedHelper) {
    // Two roots reach the same DP through a helper: two transactions.
    ProgramBuilder pb("ctx");
    auto cls = pb.add_class("com.s.C");
    {
        auto mb = cls.method("helper");
        LocalId url = mb.param("u", "java.lang.String");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    for (const char* which : {"a", "b"}) {
        auto mb = cls.method(std::string("on_") + which);
        LocalId url = mb.local("u", "java.lang.String");
        mb.assign(url, cs(std::string("http://h/") + which));
        mb.vcall(std::nullopt, mb.self(), "com.s.C.helper", {Operand(url)});
        mb.ret();
        pb.register_event({"com.s.C", std::string("on_") + which}, EventKind::kOnClick,
                          std::string("click:") + which);
    }
    Program p = pb.build();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    auto txns = slicer.slice_all();
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_NE(txns[0].trigger, txns[1].trigger);
    // Both contexts end at the same DP site.
    EXPECT_EQ(txns[0].dp_site, txns[1].dp_site);
    ASSERT_EQ(txns[0].context.size(), 1u);
    ASSERT_EQ(txns[1].context.size(), 1u);
    EXPECT_NE(txns[0].context[0].caller, txns[1].context[0].caller);
}

TEST(Slicer, AsyncHeuristicGatesCrossEventContent) {
    ProgramBuilder pb("async");
    auto cls = pb.add_class("com.s.A");
    {
        auto mb = cls.method("onLocation");
        LocalId frag = mb.local("f", "java.lang.String");
        mb.assign(frag, cs("lat=1"));
        mb.store_static("com.s.A", "sFrag", Operand(frag));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId frag = mb.local("f", "java.lang.String");
        mb.load_static(frag, "com.s.A", "sFrag");
        LocalId url = mb.local("u", "java.lang.String");
        mb.binop(url, BinaryOp::Op::kConcat, cs("http://h/w?"), Operand(frag));
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.s.A", "onLocation"}, EventKind::kOnLocation, "loc");
    pb.register_event({"com.s.A", "onClick"}, EventKind::kOnClick, "click");
    Program p = pb.build();
    auto model = semantics::SemanticModel::standard();

    auto producer_stmts_in_slice = [&](bool heuristic) {
        SlicerOptions options;
        options.async_heuristic = heuristic;
        Slicer slicer(p, model, options);
        auto txns = slicer.slice_all();
        EXPECT_EQ(txns.size(), 1u);
        auto loc_index = p.method_index({"com.s.A", "onLocation"});
        std::size_t n = 0;
        for (const auto& ref : txns[0].request_taint.statements) {
            if (ref.method_index == *loc_index) ++n;
        }
        return n;
    };
    EXPECT_GT(producer_stmts_in_slice(true), 0u);
    EXPECT_EQ(producer_stmts_in_slice(false), 0u);
}

TEST(Slicer, SliceFractionBounds) {
    Program p = two_dp_program();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    auto txns = slicer.slice_all();
    double fraction = Slicer::slice_fraction(p, txns);
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    EXPECT_DOUBLE_EQ(Slicer::slice_fraction(p, {}), 0.0);
}

TEST(Slicer, AugmentationPullsInitializationContext) {
    // Response processing uses an object initialized before the DP: the
    // combined slice must include its initialization (§3.1 object-aware
    // augmentation).
    ProgramBuilder pb("aug");
    auto cls = pb.add_class("com.s.G");
    auto mb = cls.method("go");
    LocalId prefix = mb.local("p", "java.lang.String");
    mb.assign(prefix, cs("cache-key-"));  // initialized pre-DP, used post-DP
    LocalId url = mb.local("u", "java.lang.String");
    mb.assign(url, cs("http://h/x"));
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
    mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    LocalId body = mb.local("b", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    LocalId keyed = mb.local("k", "java.lang.String");
    mb.binop(keyed, BinaryOp::Op::kConcat, Operand(prefix), Operand(body));
    mb.store_static("com.s.G", "sCache", Operand(keyed));
    mb.ret();
    pb.register_event({"com.s.G", "go"}, EventKind::kOnClick, "click");
    Program p = pb.build();
    auto model = semantics::SemanticModel::standard();
    Slicer slicer(p, model);
    auto txns = slicer.slice_all();
    ASSERT_EQ(txns.size(), 1u);
    // The prefix assignment (stmt 0) is not response-derived, so the raw
    // response slice misses it; the combined slice must include it.
    StmtRef prefix_assign{*p.method_index({"com.s.G", "go"}), 0, 0};
    EXPECT_FALSE(has(txns[0].response_taint.statements, prefix_assign));
    EXPECT_TRUE(has(txns[0].combined_slice, prefix_assign));
}

TEST(Slicer, AugmentationSkipsUseDefinedEarlierInSlice) {
    // `e` is defined in the response slice (getEntity, block 1) before
    // toString uses it (block 3), so that use is not seeded. The predicate
    // is positional: the stale `e = null` still reaches the use along the
    // else branch, and stays out of the combined slice.
    ProgramBuilder pb("aug_earlier");
    auto mb = pb.add_class("com.s.G").method("go");
    LocalId flag = mb.param("f", "int");
    LocalId url = mb.local("u", "java.lang.String");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    emit_execute(mb, resp, url);  // block 0, statements 0-3
    LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
    mb.assign(entity, cnull());   // block 0, statement 4
    mb.if_then(eq(Operand(flag), ci(0)), [&](MethodBuilder& m) {
        m.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    });
    LocalId body = mb.local("b", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    mb.store_static("com.s.G", "sBody", Operand(body));
    mb.ret();
    pb.register_event({"com.s.G", "go"}, EventKind::kOnClick, "click");
    Program p = pb.build();

    auto [txn, seeds] = slice_single(p);
    const std::uint32_t go = *p.method_index({"com.s.G", "go"});
    const StmtRef stale{go, 0, 4};
    const StmtRef to_string{go, 3, 0};
    ASSERT_TRUE(std::holds_alternative<AssignConst>(p.statement(stale)));
    EXPECT_TRUE(has(txn.response_taint.statements, to_string));
    EXPECT_FALSE(has(txn.combined_slice, stale));
    EXPECT_EQ(seeds, 2u);
}

TEST(Slicer, AugmentationSeedsUseDefinedOnlyLaterInMethod) {
    // In the loop body `k = p ++ b` precedes `p = k`: p's only response-
    // slice definition comes later (it reaches the use over the back edge),
    // so the use is seeded and pulls in the loop-entry value `p = "init"`.
    ProgramBuilder pb("aug_loop");
    auto mb = pb.add_class("com.s.L").method("go");
    LocalId n = mb.param("n", "int");
    LocalId url = mb.local("u", "java.lang.String");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    emit_execute(mb, resp, url);  // block 0, statements 0-3
    LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
    mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    LocalId body = mb.local("b", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    LocalId acc = mb.local("p", "java.lang.String");
    mb.assign(acc, cs("init"));   // block 0, statement 6
    LocalId keyed = mb.local("k", "java.lang.String");
    mb.while_loop(lt(Operand(n), ci(3)), [&](MethodBuilder& m) {
        m.binop(keyed, BinaryOp::Op::kConcat, Operand(acc), Operand(body));
        m.assign(acc, Operand(keyed));
    });
    mb.store_static("com.s.L", "sAcc", Operand(acc));
    mb.ret();
    pb.register_event({"com.s.L", "go"}, EventKind::kOnClick, "click");
    Program p = pb.build();

    auto [txn, seeds] = slice_single(p);
    const std::uint32_t go = *p.method_index({"com.s.L", "go"});
    const StmtRef init{go, 0, 6};
    const StmtRef concat{go, 2, 0};  // the loop body (header is block 1)
    ASSERT_TRUE(std::holds_alternative<AssignConst>(p.statement(init)));
    ASSERT_TRUE(std::holds_alternative<BinaryOp>(p.statement(concat)));
    EXPECT_TRUE(has(txn.response_taint.statements, concat));
    EXPECT_FALSE(has(txn.response_taint.statements, init));
    EXPECT_TRUE(has(txn.combined_slice, init));
    EXPECT_EQ(seeds, 3u);
}

TEST(Slicer, AugmentationSeedsUseDefinedOnlyInAnotherMethod) {
    // `use(s)` reads its parameter s (local 0) at statement 4. Local 0 of
    // go is the response `r`, defined in the slice at go's statement 3 —
    // earlier by position, but in another method, so the use is seeded.
    // The backward run from it reaches every caller of `use`, and with it
    // the value `other` passes, which no slice of the DP touches.
    ProgramBuilder pb("aug_other");
    auto cls = pb.add_class("com.s.M");
    {
        auto mb = cls.method("go").set_static();
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");  // local 0
        LocalId entity = mb.local("e", "org.apache.http.HttpEntity");
        LocalId url = mb.local("u", "java.lang.String");
        emit_execute(mb, resp, url);  // statements 0-3
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("b", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        mb.scall(std::nullopt, "com.s.M.use", {Operand(body)});
        mb.ret();
    }
    {
        auto mb = cls.method("use").set_static();
        LocalId s = mb.param("s", "java.lang.String");  // local 0
        for (const char* pad : {"p0", "p1", "p2", "p3"}) {
            mb.assign(mb.local(pad, "java.lang.String"), cs(pad));
        }
        LocalId keyed = mb.local("k", "java.lang.String");
        mb.binop(keyed, BinaryOp::Op::kConcat, Operand(s), cs("!"));  // statement 4
        mb.store_static("com.s.M", "sKey", Operand(keyed));
        mb.ret();
    }
    {
        auto mb = cls.method("other").set_static();
        LocalId x = mb.local("x", "java.lang.String");
        mb.assign(x, cs("other-value"));
        mb.scall(std::nullopt, "com.s.M.use", {Operand(x)});
        mb.ret();
    }
    pb.register_event({"com.s.M", "go"}, EventKind::kOnClick, "click:go");
    pb.register_event({"com.s.M", "other"}, EventKind::kOnClick, "click:other");
    Program p = pb.build();

    auto [txn, seeds] = slice_single(p);
    const StmtRef use_s{*p.method_index({"com.s.M", "use"}), 0, 4};
    const StmtRef other_value{*p.method_index({"com.s.M", "other"}), 0, 0};
    ASSERT_TRUE(std::holds_alternative<BinaryOp>(p.statement(use_s)));
    EXPECT_TRUE(has(txn.response_taint.statements, use_s));
    EXPECT_FALSE(has(txn.request_taint.statements, other_value));
    EXPECT_FALSE(has(txn.response_taint.statements, other_value));
    EXPECT_TRUE(has(txn.combined_slice, other_value));
    EXPECT_EQ(seeds, 3u);
}

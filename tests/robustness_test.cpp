// Robustness and edge-case suite: CFG loop structure, malformed container
// inputs, analyzer option combinations, and engine guard rails.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "support/strings.hpp"
#include "xapk/serialize.hpp"
#include "xir/builder.hpp"
#include "xir/cfg.hpp"

using namespace extractocol;
using namespace extractocol::xir;

// ------------------------------------------------------------------ CFG --

TEST(CfgLoops, LoopBlocksOfWhile) {
    ProgramBuilder pb("loops");
    auto cls = pb.add_class("com.r.L");
    auto mb = cls.method("run");
    LocalId i = mb.local("i", "int");
    mb.assign(i, ci(0));
    mb.while_loop(lt(Operand(i), ci(5)), [&](MethodBuilder& b) {
        b.binop(i, BinaryOp::Op::kAdd, Operand(i), ci(1));
    });
    mb.ret();
    Program p = pb.build();
    Cfg cfg(*p.find_method({"com.r.L", "run"}));
    ASSERT_EQ(cfg.loop_headers().size(), 1u);
    BlockId header = cfg.loop_headers()[0];
    auto blocks = cfg.loop_blocks(header);
    // Natural loop: header + body.
    EXPECT_EQ(blocks.size(), 2u);
    EXPECT_NE(std::find(blocks.begin(), blocks.end(), header), blocks.end());
    // A non-header block has no loop.
    EXPECT_TRUE(cfg.loop_blocks(0).empty());
}

TEST(CfgLoops, NestedLoops) {
    ProgramBuilder pb("nested");
    auto cls = pb.add_class("com.r.N");
    auto mb = cls.method("run");
    LocalId i = mb.local("i", "int");
    LocalId j = mb.local("j", "int");
    mb.assign(i, ci(0));
    mb.while_loop(lt(Operand(i), ci(3)), [&](MethodBuilder& outer) {
        outer.assign(j, ci(0));
        outer.while_loop(lt(Operand(j), ci(3)), [&](MethodBuilder& inner) {
            inner.binop(j, BinaryOp::Op::kAdd, Operand(j), ci(1));
        });
        outer.binop(i, BinaryOp::Op::kAdd, Operand(i), ci(1));
    });
    mb.ret();
    Program p = pb.build();
    Cfg cfg(*p.find_method({"com.r.N", "run"}));
    EXPECT_EQ(cfg.loop_headers().size(), 2u);
    // The outer loop's body contains the inner loop's blocks.
    std::size_t outer_size = 0, inner_size = 0;
    for (BlockId h : cfg.loop_headers()) {
        auto blocks = cfg.loop_blocks(h);
        outer_size = std::max(outer_size, blocks.size());
        inner_size = inner_size == 0 ? blocks.size()
                                     : std::min(inner_size, blocks.size());
    }
    EXPECT_GT(outer_size, inner_size);
}

TEST(CfgLoops, UnreachableBlocksAppearInRpoTail) {
    Program p = [] {
        ProgramBuilder pb("dead");
        auto cls = pb.add_class("com.r.D");
        auto mb = cls.method("run");
        mb.ret();
        return pb.build();
    }();
    Method method = *p.find_method({"com.r.D", "run"});
    // Append an unreachable block manually.
    BasicBlock dead;
    dead.statements.push_back(Return{});
    method.blocks.push_back(dead);
    Cfg cfg(method);
    EXPECT_FALSE(cfg.is_reachable(1));
    ASSERT_EQ(cfg.reverse_post_order().size(), 2u);
    EXPECT_EQ(cfg.reverse_post_order().back(), 1u);
}

// ----------------------------------------------------------- xapk parser --

TEST(XapkRobustness, RejectsTruncatedAndCorrupted) {
    corpus::CorpusApp app = corpus::build_app("blippex");
    std::string good = xapk::write_xapk(app.program);

    // Truncation mid-method loses terminators -> verification failure.
    auto truncated = xapk::parse_xapk(good.substr(0, good.size() / 2));
    EXPECT_FALSE(truncated.ok());

    // Statement garbage.
    std::string corrupted =
        strings::replace_all(good, "call", "c@ll");
    EXPECT_FALSE(xapk::parse_xapk(corrupted).ok());

    // Block indices out of order.
    std::string reordered = strings::replace_all(good, "block 0", "block 7");
    EXPECT_FALSE(xapk::parse_xapk(reordered).ok());
}

TEST(XapkRobustness, EmptyAndHeaderOnlyDocuments) {
    auto empty = xapk::parse_xapk("");
    ASSERT_TRUE(empty.ok());  // an empty program is valid (no classes)
    EXPECT_TRUE(empty.value().classes.empty());
    auto header_only = xapk::parse_xapk("xapk 1\napp \"x\"\n");
    ASSERT_TRUE(header_only.ok());
    EXPECT_EQ(header_only.value().app_name, "x");
}

TEST(XapkRobustness, CommentsAndBlankLinesIgnored) {
    auto parsed = xapk::parse_xapk(
        "xapk 1\n# a comment\n\napp \"c\"\n\n# trailing\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().app_name, "c");
}

// ------------------------------------------------------ analyzer options --

TEST(AnalyzerOptions, ScopeFiltersForeignClasses) {
    corpus::CorpusApp app = corpus::build_app("blippex");
    core::AnalyzerOptions scoped;
    scoped.class_scope = "org.nonexistent";
    auto report = core::Analyzer(scoped).analyze(app.program);
    EXPECT_TRUE(report.transactions.empty());
    core::AnalyzerOptions matching;
    matching.class_scope = "com.blippex";
    EXPECT_FALSE(core::Analyzer(matching).analyze(app.program).transactions.empty());
}

TEST(AnalyzerOptions, EmptyProgramProducesEmptyReport) {
    ProgramBuilder pb("empty");
    Program p = pb.build();
    auto report = core::Analyzer().analyze(p);
    EXPECT_TRUE(report.transactions.empty());
    EXPECT_TRUE(report.dependencies.empty());
    EXPECT_EQ(report.stats.dp_sites, 0u);
}

TEST(AnalyzerOptions, AppWithoutEventsStillAnalyzed) {
    // A DP in an unregistered method ("dead" handler) — analysis still
    // reconstructs the transaction with an unknown trigger.
    ProgramBuilder pb("noevents");
    auto cls = pb.add_class("com.r.NoEvents");
    auto mb = cls.method("hidden");
    LocalId url = mb.local("u", "java.lang.String");
    mb.assign(url, cs("http://h/hidden"));
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    mb.ret();
    Program p = pb.build();
    auto report = core::Analyzer().analyze(p);
    ASSERT_EQ(report.transactions.size(), 1u);
    ASSERT_EQ(report.transactions[0].triggers.size(), 1u);
    EXPECT_TRUE(strings::starts_with(report.transactions[0].triggers[0], "unknown:"));
}

TEST(AnalyzerOptions, RecursiveHelpersTerminate) {
    // Mutually recursive URL builders must not hang slicing/signature
    // extraction.
    ProgramBuilder pb("recurse");
    auto cls = pb.add_class("com.r.R");
    {
        auto mb = cls.method("ping");
        mb.returns("java.lang.String");
        LocalId depth = mb.param("d", "int");
        LocalId out = mb.local("out", "java.lang.String");
        mb.if_then_else(
            lt(Operand(depth), ci(1)),
            [&](MethodBuilder& b) { b.assign(out, cs("http://h/base")); },
            [&](MethodBuilder& b) {
                b.vcall(out, b.self(), "com.r.R.pong", {Operand(depth)});
            });
        mb.ret(Operand(out));
    }
    {
        auto mb = cls.method("pong");
        mb.returns("java.lang.String");
        LocalId depth = mb.param("d", "int");
        LocalId next = mb.local("n", "int");
        mb.binop(next, BinaryOp::Op::kSub, Operand(depth), ci(1));
        LocalId out = mb.local("out", "java.lang.String");
        mb.vcall(out, mb.self(), "com.r.R.ping", {Operand(next)});
        mb.ret(Operand(out));
    }
    {
        auto mb = cls.method("go");
        LocalId url = mb.local("u", "java.lang.String");
        mb.vcall(url, mb.self(), "com.r.R.ping", {ci(3)});
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.r.R", "go"}, EventKind::kOnClick, "click");
    Program p = pb.build();
    auto report = core::Analyzer().analyze(p);
    ASSERT_EQ(report.transactions.size(), 1u);
    // The constant leaf of the recursion is still recoverable.
    EXPECT_NE(report.transactions[0].uri_regex.find("http://h/base"),
              std::string::npos)
        << report.transactions[0].uri_regex;
}

// ------------------------------------------------------- display helpers --

TEST(Display, StatementRendering) {
    Statement s1 = AssignConst{1, Constant::of_string("x")};
    EXPECT_EQ(to_display(s1), "$1 = \"x\"");
    Statement s2 = Goto{4};
    EXPECT_EQ(to_display(s2), "goto b4");
    Invoke call;
    call.dst = 2;
    call.base = 3;
    call.callee = {"a.B", "m"};
    call.args = {ci(1)};
    EXPECT_EQ(to_display(Statement(call)), "$2 = $3.a.B.m(1)");
}

TEST(Display, EventKindNamesRoundTrip) {
    for (EventKind k : {EventKind::kOnCreate, EventKind::kOnClick,
                        EventKind::kOnCustomUi, EventKind::kOnLogin,
                        EventKind::kOnTimer, EventKind::kOnServerPush,
                        EventKind::kOnAction, EventKind::kOnLocation,
                        EventKind::kOnIntent}) {
        auto parsed = parse_event_kind(event_kind_name(k));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), k);
    }
    EXPECT_FALSE(parse_event_kind("martian").ok());
}

// ------------------------------------------------- loader hardening sweep --
//
// parse_xapk returns Result: on arbitrary corruption it must come back with
// an Error (or a verified program), never throw or abort. The sweep mutates
// every corpus app's serialized text three ways — per-line deletion, token
// mangling, numeric overflow — and funnels each mutant through the parser.

namespace {

std::vector<std::string> all_corpus_apps() {
    std::vector<std::string> names = corpus::open_source_apps();
    const auto& closed = corpus::closed_source_apps();
    names.insert(names.end(), closed.begin(), closed.end());
    return names;
}

/// Parses and, when the mutant happens to still be well-formed, touches the
/// program so the parse is not optimized away. Any throw fails the test.
void expect_contained(const std::string& text, const std::string& label) {
    EXPECT_NO_THROW({
        auto parsed = xapk::parse_xapk(text);
        if (parsed.ok()) {
            (void)parsed.value().total_statements();
        } else {
            EXPECT_FALSE(parsed.error().message.empty()) << label;
        }
    }) << label;
}

}  // namespace

TEST(LoaderHardening, PerLineDeletionNeverThrows) {
    for (const auto& name : all_corpus_apps()) {
        corpus::CorpusApp app = corpus::build_app(name);
        std::string good = xapk::write_xapk(app.program);
        std::vector<std::string> lines = strings::split(good, '\n');
        // Stride keeps the sweep fast on big apps while still hitting every
        // line kind (header, class, method, block, statement, event).
        std::size_t stride = std::max<std::size_t>(1, lines.size() / 128);
        for (std::size_t drop = 0; drop < lines.size(); drop += stride) {
            std::string mutant;
            mutant.reserve(good.size());
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (i == drop) continue;
                mutant += lines[i];
                mutant += '\n';
            }
            expect_contained(mutant, name + ": deleted line " + std::to_string(drop));
        }
    }
}

TEST(LoaderHardening, TokenManglingNeverThrows) {
    const std::pair<const char*, const char*> kMangles[] = {
        {"call", "c@ll"},       {"method", "m3th*d"}, {"block", "blk!"},
        {"class", "cl@ss"},     {"event", "3v3nt"},   {"field", "fi#ld"},
        {"local", "l0c@l"},     {"goto", "g0t0"},     {"ret", "r3t"},
        {"if", "1f"},           {"\"", "'"},          {"$", "%"},
    };
    for (const auto& name : all_corpus_apps()) {
        corpus::CorpusApp app = corpus::build_app(name);
        std::string good = xapk::write_xapk(app.program);
        for (const auto& [from, to] : kMangles) {
            std::string mutant = strings::replace_all(good, from, to);
            expect_contained(mutant, name + ": mangled '" + from + "'");
        }
    }
}

TEST(LoaderHardening, NumericOverflowIsAnErrorNotACrash) {
    // Numbers beyond the 32/64-bit parse range used to escape as std::stoul /
    // std::stod exceptions despite parse_xapk's Result contract.
    const char* kHuge = "99999999999999999999999999";
    for (const auto& name : all_corpus_apps()) {
        corpus::CorpusApp app = corpus::build_app(name);
        std::string good = xapk::write_xapk(app.program);
        std::vector<std::string> lines = strings::split(good, '\n');
        bool mutated_method = false;
        bool mutated_block = false;
        std::string method_mutant, block_mutant;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            auto t = strings::split_nonempty(lines[i], ' ');
            if (!mutated_method && t.size() == 5 && t[0] == "method") {
                auto mutated = lines;
                mutated[i] = t[0] + " " + t[1] + " " + t[2] + " " + kHuge + " " + t[4];
                method_mutant = strings::join(mutated, "\n");
                mutated_method = true;
            }
            if (!mutated_block && t.size() == 2 && t[0] == "block") {
                auto mutated = lines;
                mutated[i] = "block " + std::string(kHuge);
                block_mutant = strings::join(mutated, "\n");
                mutated_block = true;
            }
            if (mutated_method && mutated_block) break;
        }
        ASSERT_TRUE(mutated_method) << name;
        ASSERT_TRUE(mutated_block) << name;
        EXPECT_NO_THROW({
            auto parsed = xapk::parse_xapk(method_mutant);
            ASSERT_FALSE(parsed.ok()) << name;
            EXPECT_NE(parsed.error().message.find("param count"), std::string::npos)
                << name << ": " << parsed.error().message;
        }) << name;
        EXPECT_NO_THROW({
            auto parsed = xapk::parse_xapk(block_mutant);
            ASSERT_FALSE(parsed.ok()) << name;
            EXPECT_NE(parsed.error().message.find("block index"), std::string::npos)
                << name << ": " << parsed.error().message;
        }) << name;
    }
}

TEST(LoaderHardening, BadDoubleOperandIsAnError) {
    // "d:" double constants had the same throwing-parse hole (std::stod).
    const char* kDoc =
        "xapk 1\n"
        "app \"d\"\n"
        "class com.d.C\n"
        "method go 0 0 void\n"
        "local x double\n"
        "block 0\n"
        "const $0 d:not_a_number\n"
        "ret _\n";
    EXPECT_NO_THROW({
        auto parsed = xapk::parse_xapk(kDoc);
        EXPECT_FALSE(parsed.ok());
    });
    // Overflowing exponents are also contained.
    EXPECT_NO_THROW({
        auto parsed = xapk::parse_xapk(
            strings::replace_all(kDoc, "d:not_a_number", "d:1e99999999"));
        EXPECT_FALSE(parsed.ok());
    });
    // A well-formed double still parses.
    auto parsed =
        xapk::parse_xapk(strings::replace_all(kDoc, "d:not_a_number", "d:3.25"));
    EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
}

// -------------------------------------------------------- analysis budgets --

TEST(AnalysisBudget, UnlimitedBudgetMatchesDefaultReport) {
    corpus::CorpusApp app = corpus::build_app("blippex");
    core::AnalysisReport baseline = core::Analyzer().analyze(app.program);
    core::AnalyzerOptions explicit_unlimited;
    explicit_unlimited.max_total_steps = 0;
    core::AnalysisReport same =
        core::Analyzer(explicit_unlimited).analyze(app.program);
    EXPECT_EQ(same.to_text(), baseline.to_text());
    EXPECT_FALSE(baseline.stats.budget_exhausted);
    // Unlimited runs still account their work (the fold always runs).
    EXPECT_GT(baseline.stats.budget_steps_used, 0u);
}

TEST(AnalysisBudget, UnlimitedTaintRunsStillChargeTheBudget) {
    // max_taint_steps = 0 lifts only the per-run cap: every worklist
    // iteration still counts against max_total_steps, so where no run
    // reaches the default cap the steps and the cut are the default's.
    corpus::CorpusApp app = corpus::build_app("Pinterest");
    for (std::size_t cap : {std::size_t{0}, std::size_t{2'000}, std::size_t{20'000}}) {
        core::AnalyzerOptions capped;
        capped.max_total_steps = cap;
        core::AnalyzerOptions uncapped = capped;
        uncapped.max_taint_steps = 0;
        core::AnalysisReport expected = core::Analyzer(capped).analyze(app.program);
        core::AnalysisReport report = core::Analyzer(uncapped).analyze(app.program);
        EXPECT_EQ(report.stats.budget_steps_used, expected.stats.budget_steps_used) << cap;
        EXPECT_EQ(report.stats.budget_exhausted, expected.stats.budget_exhausted) << cap;
        EXPECT_EQ(report.audit.to_text(), expected.audit.to_text()) << cap;
        EXPECT_EQ(report.to_text(), expected.to_text()) << cap;
    }
}

TEST(AnalysisBudget, ExhaustionDegradesToPartialReportNeverAborts) {
    corpus::CorpusApp app = corpus::build_app("blippex");
    core::AnalysisReport full = core::Analyzer().analyze(app.program);
    ASSERT_GT(full.stats.budget_steps_used, 1u);

    // Halve the budget until the cut actually drops a site's results. A
    // budget that crosses exactly at the final fold keeps everything (the
    // crossing unit is kept by design), so full/2 alone is not guaranteed
    // to degrade any site — but 1 step always is, so the scan terminates.
    std::optional<core::AnalysisReport> partial;
    for (std::size_t cap = full.stats.budget_steps_used / 2; cap >= 1; cap /= 2) {
        core::AnalyzerOptions options;
        options.max_total_steps = cap;
        core::AnalysisReport report = core::Analyzer(options).analyze(app.program);
        EXPECT_TRUE(report.stats.budget_exhausted) << cap;
        // Degraded, never aborted: the report still renders.
        EXPECT_FALSE(report.to_text().empty()) << cap;
        // Exhaustion always skips dependency analysis.
        EXPECT_TRUE(report.dependencies.empty()) << cap;
        if (report.audit.count_outcome("budget_exhausted") >= 1) {
            partial = std::move(report);
            break;
        }
        if (cap == 1) break;
    }
    ASSERT_TRUE(partial.has_value())
        << "no budget produced a budget_exhausted site outcome";

    EXPECT_LE(partial->stats.budget_steps_used, full.stats.budget_steps_used);
    EXPECT_LE(partial->transactions.size(), full.transactions.size());
    // The audit layer names the cause in both renderings.
    EXPECT_NE(partial->audit.to_text().find("budget_exhausted"), std::string::npos);
    EXPECT_NE(partial->audit.to_json().dump_pretty().find("budget_exhausted"),
              std::string::npos);
}

TEST(AnalysisBudget, SingleStepBudgetStillProducesAReport) {
    corpus::CorpusApp app = corpus::build_app("blippex");
    core::AnalyzerOptions options;
    options.max_total_steps = 1;
    core::AnalysisReport report = core::Analyzer(options).analyze(app.program);
    EXPECT_TRUE(report.stats.budget_exhausted);
    // Every DP site degrades, none is misattributed to another failure mode.
    for (const auto& site : report.audit.dp_sites) {
        EXPECT_EQ(site.outcome, "budget_exhausted") << site.dp;
    }
    // The report still renders (partial, not aborted).
    EXPECT_FALSE(report.to_text().empty());
    EXPECT_FALSE(report.to_json().dump_pretty().empty());
}

TEST(AnalysisBudget, PerBuildStepCapTagsResidualUnknowns) {
    // A tiny per-build cap truncates signature construction; the build that
    // survives long enough to capture the DP keeps a partial signature whose
    // residual unknown leaves carry the budget_exhausted reason.
    corpus::CorpusApp app = corpus::build_app("blippex");
    core::AnalysisReport full = core::Analyzer().analyze(app.program);
    ASSERT_FALSE(full.transactions.empty());

    bool saw_budget_reason = false;
    for (std::size_t cap = 4; cap <= (1u << 16) && !saw_budget_reason; cap *= 2) {
        core::AnalyzerOptions options;
        options.max_sig_steps = cap;
        core::AnalysisReport report = core::Analyzer(options).analyze(app.program);
        for (const auto& [reason, count] : report.audit.unknown_reasons) {
            if (reason == "budget_exhausted" && count > 0) saw_budget_reason = true;
        }
        if (report.audit.count_outcome("budget_exhausted") == 0) {
            // Cap high enough that no build was truncated: the sweep is done
            // and the reason can no longer appear.
            break;
        }
    }
    EXPECT_TRUE(saw_budget_reason)
        << "no max_sig_steps cap produced a budget_exhausted unknown leaf";
}

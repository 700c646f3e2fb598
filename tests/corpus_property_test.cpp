// Corpus-wide property suites: invariants that must hold for every app in
// the corpus — container round-trips, obfuscation invariance of the
// analysis, report self-consistency, slice invariants, and JSON round-trips
// over generated documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "interp/interpreter.hpp"
#include "slicing/slicer.hpp"
#include "support/hash.hpp"
#include "xapk/obfuscate.hpp"
#include "text/regex.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;

namespace {

std::string safe_name(const std::string& name) {
    std::string out = name;
    for (auto& c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
}

std::vector<std::string> all_apps() {
    std::vector<std::string> names = corpus::open_source_apps();
    for (const auto& n : corpus::closed_source_apps()) names.push_back(n);
    return names;
}

core::AnalysisReport analyze_like_paper(const corpus::CorpusApp& app,
                                        const xir::Program& program) {
    core::AnalyzerOptions options;
    options.async_heuristic = !app.spec.open_source;
    return core::Analyzer(options).analyze(program);
}

std::multiset<std::string> transaction_digests(const core::AnalysisReport& report) {
    std::multiset<std::string> out;
    for (const auto& t : report.transactions) {
        out.insert(std::string(http::method_name(t.signature.method)) + "|" +
                   t.uri_regex + "|" + t.body_regex + "|" + t.response_regex);
    }
    return out;
}

}  // namespace

class CorpusProperty : public ::testing::TestWithParam<std::string> {};

// Property: write(parse(write(p))) == write(p), and the parsed program is
// analysis-equivalent to the original.
TEST_P(CorpusProperty, XapkRoundTripIsIdentity) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    std::string once = xapk::write_xapk(app.program);
    auto parsed = xapk::parse_xapk(once);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(xapk::write_xapk(parsed.value()), once);
}

// Property (§5.1): ProGuard-style identifier renaming must not change any
// signature the analysis produces.
TEST_P(CorpusProperty, ObfuscationInvariance) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    auto baseline = transaction_digests(analyze_like_paper(app, app.program));
    auto [obfuscated, map] = xapk::obfuscate(app.program);
    auto renamed = transaction_digests(analyze_like_paper(app, obfuscated));
    EXPECT_EQ(baseline, renamed) << GetParam();
}

// Property: every emitted URI regex compiles in our engine, and dependency
// edges index real transactions.
TEST_P(CorpusProperty, ReportSelfConsistency) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    core::AnalysisReport report = analyze_like_paper(app, app.program);
    for (const auto& t : report.transactions) {
        EXPECT_TRUE(text::Regex::compile(t.uri_regex).ok()) << t.uri_regex;
        if (!t.body_regex.empty()) {
            EXPECT_TRUE(text::Regex::compile(t.body_regex).ok()) << t.body_regex;
        }
        EXPECT_FALSE(t.triggers.empty());
    }
    for (const auto& d : report.dependencies) {
        ASSERT_LT(d.from, report.transactions.size());
        ASSERT_LT(d.to, report.transactions.size());
    }
    EXPECT_LE(report.pair_count(), report.transactions.size());
    // Slices are a strict subset of the program.
    EXPECT_LT(report.stats.slice_statements, report.stats.total_statements);
}

// Property: a slice is one sorted, duplicate-free statement vector. The
// combined slice covers both taint slices and the DP site, every context of
// a site carries the site's slices, and the report's slice-statement stat
// counts the distinct statements of the combined slices.
TEST_P(CorpusProperty, SliceInvariants) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    core::AnalyzerOptions options;
    options.async_heuristic = !app.spec.open_source;
    core::Analyzer analyzer(options);
    slicing::SlicerOptions slicer_options;
    slicer_options.async_heuristic = options.async_heuristic;
    slicing::Slicer slicer(app.program, analyzer.model(), slicer_options);
    auto txns = slicer.slice_all();
    ASSERT_FALSE(txns.empty());

    auto strictly_ascending = [](const std::vector<xir::StmtRef>& slice) {
        return std::adjacent_find(slice.begin(), slice.end(),
                                  std::greater_equal<>()) == slice.end();
    };
    std::map<xir::StmtRef, const slicing::SlicedTransaction*> first_of_site;
    std::vector<xir::StmtRef> all;
    for (const auto& t : txns) {
        const auto& request = t.request_taint.statements;
        const auto& response = t.response_taint.statements;
        const auto& combined = t.combined_slice;
        EXPECT_TRUE(strictly_ascending(request));
        EXPECT_TRUE(strictly_ascending(response));
        EXPECT_TRUE(strictly_ascending(combined));
        EXPECT_TRUE(std::includes(combined.begin(), combined.end(), request.begin(),
                                  request.end()));
        EXPECT_TRUE(std::includes(combined.begin(), combined.end(), response.begin(),
                                  response.end()));
        EXPECT_TRUE(std::binary_search(combined.begin(), combined.end(), t.dp_site));
        auto [first, inserted] = first_of_site.emplace(t.dp_site, &t);
        if (!inserted) {
            EXPECT_EQ(first->second->request_taint.statements, request);
            EXPECT_EQ(first->second->response_taint.statements, response);
            EXPECT_EQ(first->second->combined_slice, combined);
        }
        all.insert(all.end(), combined.begin(), combined.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    core::AnalysisReport report = analyzer.analyze(app.program);
    EXPECT_EQ(report.stats.slice_statements, all.size());
}

INSTANTIATE_TEST_SUITE_P(AllApps, CorpusProperty, ::testing::ValuesIn(all_apps()),
                         [](const auto& info) { return safe_name(info.param); });

// ------------------------- generated-document properties -------------------

namespace {

text::Json random_json(SplitMix64& rng, int depth) {
    switch (depth <= 0 ? rng.next_below(4) : rng.next_below(6)) {
        case 0: return text::Json(nullptr);
        case 1: return text::Json(static_cast<std::int64_t>(rng.next()) % 100000);
        case 2: return text::Json(rng.next_below(2) == 0);
        case 3: {
            std::string s;
            for (std::size_t i = rng.next_below(12); i-- > 0;) {
                s.push_back("abz019 \"\\\n\t{}:,"[rng.next_below(15)]);
            }
            return text::Json(std::move(s));
        }
        case 4: {
            text::Json arr = text::Json::array();
            for (std::size_t i = rng.next_below(4); i-- > 0;) {
                arr.push_back(random_json(rng, depth - 1));
            }
            return arr;
        }
        default: {
            text::Json obj = text::Json::object();
            for (std::size_t i = rng.next_below(4); i-- > 0;) {
                obj.set("k" + std::to_string(rng.next_below(8)),
                        random_json(rng, depth - 1));
            }
            return obj;
        }
    }
}

}  // namespace

TEST(JsonProperty, DumpParseRoundTripOnGeneratedDocuments) {
    SplitMix64 rng(0x15a5);
    for (int round = 0; round < 300; ++round) {
        text::Json doc = random_json(rng, 3);
        auto parsed = text::parse_json(doc.dump());
        ASSERT_TRUE(parsed.ok()) << doc.dump();
        EXPECT_EQ(parsed.value(), doc) << doc.dump();
        // Pretty form parses back to the same document too.
        auto pretty = text::parse_json(doc.dump_pretty());
        ASSERT_TRUE(pretty.ok());
        EXPECT_EQ(pretty.value(), doc);
    }
}

TEST(TraceProperty, RoundTripForEveryCorpusTrace) {
    // The fuzzing traces of a few representative apps survive JSON
    // serialization byte-for-byte at the model level.
    for (const char* name : {"radio reddit", "TED", "Diode"}) {
        corpus::CorpusApp app = corpus::build_app(name);
        auto server = app.make_server();
        interp::Interpreter interpreter(app.program, *server);
        http::Trace trace = interpreter.fuzz(interp::FuzzMode::kManual);
        auto round = http::Trace::from_json(trace.to_json());
        ASSERT_TRUE(round.ok());
        ASSERT_EQ(round.value().transactions.size(), trace.transactions.size());
        for (std::size_t i = 0; i < trace.transactions.size(); ++i) {
            EXPECT_EQ(round.value().transactions[i].request.uri.to_string(),
                      trace.transactions[i].request.uri.to_string());
            EXPECT_EQ(round.value().transactions[i].response.body,
                      trace.transactions[i].response.body);
        }
    }
}

// Figure 3 reproduction: the Diode request/response slice example. Checks
// that network-aware slicing isolates a small fraction of the program
// (paper: "the resulting slices only contain 6.3% of all code") and that the
// branchy URI construction compiles into one alternation signature covering
// all path variants (paper: nine URI patterns, e.g.
// http://www.reddit.com/search/.json?q=(.*)&sort=(.*)).
#include <cstdio>

#include "bench_common.hpp"
#include "slicing/slicer.hpp"

using namespace extractocol;
using namespace extractocol::bench;

int main() {
    std::printf("== Figure 3: Diode request & response slices ==\n\n");
    corpus::CorpusApp app = corpus::build_app("Diode");

    auto model = semantics::SemanticModel::standard();
    slicing::SlicerOptions options;
    options.async_heuristic = false;
    slicing::Slicer slicer(app.program, model, options);
    auto txns = slicer.slice_all();

    double fraction = slicing::Slicer::slice_fraction(app.program, txns);
    std::printf("program statements: %zu\n", app.program.total_statements());
    std::printf("slice statements:   %zu (%.1f%% of all code; paper: 6.3%%)\n",
                [&] {
                    std::set<xir::StmtRef> all;
                    for (const auto& t : txns) {
                        const auto& request = t.request_taint.statements;
                        const auto& response = t.response_taint.statements;
                        all.insert(request.begin(), request.end());
                        all.insert(response.begin(), response.end());
                    }
                    return all.size();
                }(),
                100 * fraction);

    core::AnalyzerOptions analyzer_options;
    analyzer_options.async_heuristic = false;
    core::AnalysisReport report = core::Analyzer(analyzer_options).analyze(app.program);

    const core::ReportTransaction* feed = nullptr;
    for (const auto& t : report.transactions) {
        if (t.uri_regex.find("(") != std::string::npos &&
            t.uri_regex.find("reddit") != std::string::npos &&
            t.uri_regex.find("|") != std::string::npos) {
            feed = &t;
        }
    }
    int failures = 0;
    if (feed) {
        std::printf("\nbranchy URI signature (one regex covering all variants):\n  %s\n",
                    feed->uri_regex.c_str());
        for (const char* variant :
             {"http://www.reddit.com/.json?q=x&sort=hot&count=1&after=a",
              "http://www.reddit.com/search/.json?q=cats&sort=hot&count=2&after=b",
              "http://www.reddit.com/r/pics/.json?q=z&sort=hot&count=3&after=c"}) {
            auto re = text::Regex::compile(feed->uri_regex);
            bool matched = re.ok() && re.value().full_match(variant);
            std::printf("  [%s] matches %s\n", matched ? "ok" : "FAIL", variant);
            if (!matched) ++failures;
        }
    } else {
        std::printf("MISSING: alternation URI signature\n");
        ++failures;
    }

    bool fraction_ok = fraction > 0.01 && fraction < 0.25;
    std::printf("\n[%s] slice fraction within the paper's order of magnitude\n",
                fraction_ok ? "ok" : "FAIL");
    return failures == 0 && fraction_ok ? 0 : 1;
}

// Automated protocol testing (§2): "Application protocol analysis can
// potentially automate this process by generating messages exhaustively
// while following the dependency between message exchanges."
//
// This example turns an analysis report into a test plan: it topologically
// orders transactions by their dependency edges (logins before token-bearing
// requests), instantiates each signature, executes the plan against the
// app's server, and verifies every response matches the paired response
// signature.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

#include "core/analyzer.hpp"
#include "core/matcher.hpp"
#include "corpus/corpus.hpp"
#include "support/strings.hpp"

using namespace extractocol;

namespace {

/// Orders transaction indices so that dependency sources precede targets.
std::vector<std::size_t> dependency_order(const core::AnalysisReport& report) {
    std::size_t n = report.transactions.size();
    std::vector<std::size_t> indegree(n, 0);
    std::vector<std::vector<std::size_t>> out(n);
    for (const auto& d : report.dependencies) {
        out[d.from].push_back(d.to);
        ++indegree[d.to];
    }
    std::deque<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0) ready.push_back(i);
    }
    std::vector<std::size_t> order;
    while (!ready.empty()) {
        std::size_t i = ready.front();
        ready.pop_front();
        order.push_back(i);
        for (std::size_t succ : out[i]) {
            if (--indegree[succ] == 0) ready.push_back(succ);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {  // cycles: append leftovers
        if (std::find(order.begin(), order.end(), i) == order.end()) order.push_back(i);
    }
    return order;
}

/// Instantiates a signature into a concrete request, substituting values
/// harvested from earlier responses for dependency-fed fields.
http::Request instantiate(const core::ReportTransaction& sig,
                          const std::map<std::string, std::string>& harvest) {
    auto concretize = [&](std::string pattern) {
        pattern = strings::replace_all(pattern, "\\.", ".");
        pattern = strings::replace_all(pattern, "\\?", "?");
        for (const auto& [field, value] : harvest) {
            pattern = strings::replace_all(pattern, field + "=.*", field + "=" + value);
        }
        pattern = strings::replace_all(pattern, "=.*", "=test");
        pattern = strings::replace_all(pattern, "=[0-9]+", "=7");
        // Whole-URI wildcards and alternations: pick the first branch.
        auto alt = pattern.find('|');
        if (alt != std::string::npos && pattern.front() == '(') {
            pattern = pattern.substr(1, alt - 1);
        }
        pattern = strings::replace_all(pattern, ".*", "");
        pattern = strings::replace_all(pattern, "(", "");
        pattern = strings::replace_all(pattern, ")", "");
        return pattern;
    };
    http::Request request;
    request.method = sig.signature.method;
    auto uri = text::parse_uri(concretize(sig.uri_regex));
    if (uri.ok()) request.uri = std::move(uri).take();
    for (const auto& [name, value] : sig.signature.headers) {
        request.headers.push_back({name.is_const() ? name.text : "x-dynamic",
                                   value.is_const() ? value.text : "test"});
    }
    if (sig.signature.has_body) {
        request.body = concretize(sig.body_regex);
        request.body_kind = sig.signature.body_kind;
    }
    return request;
}

}  // namespace

int main() {
    std::printf("== protocol tester: dependency-ordered message generation ==\n\n");
    corpus::CorpusApp app = corpus::build_app("radio reddit");
    core::AnalysisReport report = core::Analyzer().analyze(app.program);
    core::TraceMatcher matcher(report);
    auto server = app.make_server();

    auto order = dependency_order(report);
    std::printf("test plan (%zu messages, dependency-ordered):\n", order.size());
    for (std::size_t i : order) {
        std::printf("  %s %s\n",
                    http::method_name(report.transactions[i].signature.method).data(),
                    report.transactions[i].uri_regex.c_str());
    }

    std::map<std::string, std::string> harvest;
    std::size_t sent = 0, response_ok = 0;
    for (std::size_t i : order) {
        const auto& sig = report.transactions[i];
        if (sig.signature.uri.is_pure_wildcard()) continue;  // response-derived URI
        http::Request request = instantiate(sig, harvest);
        if (request.uri.host.empty()) continue;
        http::Response response = server->handle(request);
        ++sent;

        // Harvest fields that later transactions depend on.
        auto doc = text::parse_json(response.body);
        if (doc.ok()) {
            for (const auto& d : report.dependencies) {
                if (d.from != i || d.response_field.empty()) continue;
                std::function<const text::Json*(const text::Json&)> find =
                    [&](const text::Json& v) -> const text::Json* {
                    if (const auto* m = v.find(d.response_field)) return m;
                    if (v.is_object()) {
                        for (const auto& [k, child] : v.members()) {
                            if (const auto* hit = find(child)) return hit;
                        }
                    }
                    return nullptr;
                };
                if (const text::Json* value = find(doc.value());
                    value && value->is_string()) {
                    // Field name on the request side: body:<key> / header:<n>.
                    std::string target = d.request_field;
                    auto colon = target.find(':');
                    if (colon != std::string::npos) target = target.substr(colon + 1);
                    harvest[target] = value->as_string();
                }
            }
        }

        // Validate the response against the paired response signature.
        if (sig.signature.has_response_body) {
            auto demanded = sig.signature.response_body.keywords();
            auto present = core::TraceMatcher::payload_keywords(response.body_kind,
                                                                response.body);
            std::set<std::string> have(present.begin(), present.end());
            bool ok = std::all_of(demanded.begin(), demanded.end(),
                                  [&](const std::string& k) { return have.count(k); });
            std::printf("  [%s] %s -> HTTP %d, response matches signature\n",
                        ok ? "ok" : "FAIL", request.start_line().c_str(),
                        response.status);
            if (ok) ++response_ok;
        } else {
            std::printf("  [--] %s -> HTTP %d (no response signature)\n",
                        request.start_line().c_str(), response.status);
        }
    }
    std::printf("\nsent %zu generated messages; %zu paired responses validated; "
                "harvested %zu dependency values\n",
                sent, response_ok, harvest.size());
    return sent > 0 && response_ok > 0 ? 0 : 1;
}

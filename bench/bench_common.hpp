// Shared plumbing for the reproduction benches: run Extractocol on a corpus
// app, collect the fuzzing baselines, and tabulate Table-1-style signature
// counts from each source (static analysis / traffic traces / ground truth).
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/matcher.hpp"
#include "corpus/corpus.hpp"
#include "interp/interpreter.hpp"

namespace extractocol::bench {

struct AppEvaluation {
    corpus::CorpusApp app;
    core::AnalysisReport report;
    http::Trace manual_trace;
    http::Trace auto_trace;
};

/// Runs the full §5.1 protocol for one app: Extractocol with the heuristic
/// configuration the paper uses (off for open-source, on for closed-source),
/// plus manual- and auto-fuzzing traces.
inline AppEvaluation evaluate_app(const std::string& name) {
    AppEvaluation ev{corpus::build_app(name), {}, {}, {}};
    core::AnalyzerOptions options;
    options.async_heuristic = !ev.app.spec.open_source;
    ev.report = core::Analyzer(options).analyze(ev.app.program);
    {
        auto server = ev.app.make_server();
        interp::Interpreter interpreter(ev.app.program, *server);
        ev.manual_trace = interpreter.fuzz(interp::FuzzMode::kManual);
    }
    {
        auto server = ev.app.make_server();
        interp::Interpreter interpreter(ev.app.program, *server);
        ev.auto_trace = interpreter.fuzz(interp::FuzzMode::kAuto);
    }
    return ev;
}

struct SignatureCounts {
    std::size_t get = 0, post = 0, put = 0, del = 0;
    std::size_t query_string = 0;  // request payload signatures
    std::size_t json = 0;          // response JSON signatures
    std::size_t xml = 0;           // response XML signatures
    std::size_t pairs = 0;

    SignatureCounts& operator+=(const SignatureCounts& o) {
        get += o.get;
        post += o.post;
        put += o.put;
        del += o.del;
        query_string += o.query_string;
        json += o.json;
        xml += o.xml;
        pairs += o.pairs;
        return *this;
    }
    [[nodiscard]] std::size_t uris() const { return get + post + put + del; }
};

inline SignatureCounts counts_from_report(const core::AnalysisReport& report) {
    SignatureCounts c;
    std::set<std::string> payloads;
    std::set<std::string> json_sigs;
    std::set<std::string> xml_sigs;
    for (const auto& t : report.transactions) {
        switch (t.signature.method) {
            case http::Method::kGet: ++c.get; break;
            case http::Method::kPost: ++c.post; break;
            case http::Method::kPut: ++c.put; break;
            case http::Method::kDelete: ++c.del; break;
            default: break;
        }
        bool has_query = !t.signature.uri.keywords().empty();
        if (t.signature.has_body || has_query) {
            payloads.insert(t.body_regex + "|" + t.uri_regex);
        }
        if (t.signature.has_response_body) {
            ++c.pairs;
            if (t.signature.response_kind == http::BodyKind::kJson) {
                json_sigs.insert(t.response_regex);
            } else if (t.signature.response_kind == http::BodyKind::kXml) {
                xml_sigs.insert(t.response_regex);
            }
        }
    }
    c.query_string = payloads.size();
    c.json = json_sigs.size();
    c.xml = xml_sigs.size();
    return c;
}

/// Normalizes a concrete path to a pattern (digit runs -> '#') so repeated
/// parameterized fetches collapse into one "unique URI" per the paper's
/// manual grouping methodology (§5.2).
inline std::string normalize_path(const std::string& path) {
    std::string out;
    bool in_digits = false;
    for (char ch : path) {
        if (std::isdigit(static_cast<unsigned char>(ch))) {
            if (!in_digits) out.push_back('#');
            in_digits = true;
        } else {
            in_digits = false;
            out.push_back(ch);
        }
    }
    return out;
}

inline SignatureCounts counts_from_trace(const http::Trace& trace) {
    SignatureCounts c;
    std::set<std::string> uris[4];
    std::set<std::string> payloads;
    std::set<std::string> json_sigs;
    std::set<std::string> xml_sigs;
    std::set<std::string> paired;
    for (const auto& t : trace.transactions) {
        std::string key = t.request.uri.host + normalize_path(t.request.uri.path);
        int mi = 0;
        switch (t.request.method) {
            case http::Method::kGet: mi = 0; break;
            case http::Method::kPost: mi = 1; break;
            case http::Method::kPut: mi = 2; break;
            default: mi = 3; break;
        }
        uris[mi].insert(key);
        // Request payload: the sorted key set of query + body.
        std::vector<std::string> keys;
        for (const auto& q : t.request.uri.query) keys.push_back(q.key);
        for (auto& k : core::TraceMatcher::payload_keywords(t.request.body_kind,
                                                            t.request.body)) {
            keys.push_back(std::move(k));
        }
        if (!keys.empty()) {
            std::sort(keys.begin(), keys.end());
            std::string payload_key = key;
            for (const auto& k : keys) payload_key += "&" + k;
            payloads.insert(payload_key);
        }
        if (t.response.body_kind == http::BodyKind::kJson ||
            t.response.body_kind == http::BodyKind::kXml) {
            auto rkeys = core::TraceMatcher::payload_keywords(t.response.body_kind,
                                                              t.response.body);
            std::sort(rkeys.begin(), rkeys.end());
            rkeys.erase(std::unique(rkeys.begin(), rkeys.end()), rkeys.end());
            std::string sig;
            for (const auto& k : rkeys) sig += k + ",";
            if (t.response.body_kind == http::BodyKind::kJson) {
                json_sigs.insert(sig);
            } else {
                xml_sigs.insert(sig);
            }
            paired.insert(key);
        }
    }
    c.get = uris[0].size();
    c.post = uris[1].size();
    c.put = uris[2].size();
    c.del = uris[3].size();
    c.query_string = payloads.size();
    c.json = json_sigs.size();
    c.xml = xml_sigs.size();
    c.pairs = paired.size();
    return c;
}

inline SignatureCounts counts_from_ground_truth(const corpus::CorpusApp& app) {
    SignatureCounts c;
    std::set<std::string> json_sigs, xml_sigs;
    for (const auto& gt : app.ground_truth) {
        switch (gt.method) {
            case http::Method::kGet: ++c.get; break;
            case http::Method::kPost: ++c.post; break;
            case http::Method::kPut: ++c.put; break;
            case http::Method::kDelete: ++c.del; break;
            default: break;
        }
        if (gt.request_payload != http::BodyKind::kNone) ++c.query_string;
        if (gt.has_response_body) {
            ++c.pairs;
            std::string sig;
            for (const auto& k : gt.response_keywords) sig += k + ",";
            if (gt.response_kind == http::BodyKind::kJson) {
                json_sigs.insert(sig);
            } else {
                xml_sigs.insert(sig);
            }
        }
    }
    c.json = json_sigs.size();
    c.xml = xml_sigs.size();
    return c;
}

// -------------------------------------------------------- keyword counts --

/// Unique constant keywords in the report's request side (bodies + URIs).
inline std::set<std::string> request_keywords_from_report(
    const core::AnalysisReport& report) {
    std::set<std::string> out;
    for (const auto& k : report.keywords(false)) out.insert(k);
    return out;
}

inline std::set<std::string> response_keywords_from_report(
    const core::AnalysisReport& report) {
    std::set<std::string> out;
    for (const auto& k : report.keywords(true)) out.insert(k);
    return out;
}

inline std::set<std::string> request_keywords_from_trace(const http::Trace& trace) {
    std::set<std::string> out;
    for (const auto& t : trace.transactions) {
        for (const auto& q : t.request.uri.query) out.insert(q.key);
        for (auto& k : core::TraceMatcher::payload_keywords(t.request.body_kind,
                                                            t.request.body)) {
            out.insert(std::move(k));
        }
    }
    return out;
}

inline std::set<std::string> response_keywords_from_trace(const http::Trace& trace) {
    std::set<std::string> out;
    for (const auto& t : trace.transactions) {
        for (auto& k : core::TraceMatcher::payload_keywords(t.response.body_kind,
                                                            t.response.body)) {
            out.insert(std::move(k));
        }
    }
    return out;
}

// ----------------------------------------------------------- formatting --

inline void print_rule(int width = 118) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

}  // namespace extractocol::bench

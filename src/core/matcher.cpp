#include "core/matcher.hpp"

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "text/uri.hpp"
#include "text/xml.hpp"

namespace extractocol::core {

using http::BodyKind;

namespace {

void json_keywords(const text::Json& v, std::vector<std::string>& out) {
    if (v.is_object()) {
        for (const auto& [k, value] : v.members()) {
            out.push_back(k);
            json_keywords(value, out);
        }
    } else if (v.is_array()) {
        for (const auto& item : v.items()) json_keywords(item, out);
    }
}

void xml_keywords(const text::XmlElement& e, std::vector<std::string>& out) {
    out.push_back(e.name);
    for (const auto& [k, v] : e.attributes) {
        (void)v;
        out.push_back(k);
    }
    for (const auto& c : e.children) xml_keywords(*c, out);
}

void account_json(const text::Json& v, const std::set<std::string>& keywords,
                  ByteAccounting& acc, bool parent_known) {
    if (v.is_object()) {
        for (const auto& [k, value] : v.members()) {
            bool known = keywords.count(k) > 0;
            if (known) {
                acc.key_bytes += k.size();
            } else {
                acc.wildcard_bytes += k.size();
            }
            account_json(value, keywords, acc, known);
        }
    } else if (v.is_array()) {
        for (const auto& item : v.items()) account_json(item, keywords, acc, parent_known);
    } else {
        std::size_t bytes = v.is_string() ? v.as_string().size() : v.dump().size();
        if (parent_known) {
            acc.value_bytes += bytes;
        } else {
            acc.wildcard_bytes += bytes;
        }
    }
}

void account_xml(const text::XmlElement& e, const std::set<std::string>& keywords,
                 ByteAccounting& acc) {
    bool known = keywords.count(e.name) > 0;
    if (known) {
        acc.key_bytes += e.name.size();
    } else {
        acc.wildcard_bytes += e.name.size();
    }
    for (const auto& [k, v] : e.attributes) {
        if (keywords.count(k) > 0) {
            acc.key_bytes += k.size();
            acc.value_bytes += v.size();
        } else {
            acc.wildcard_bytes += k.size() + v.size();
        }
    }
    if (!e.text.empty()) {
        if (known) {
            acc.value_bytes += e.text.size();
        } else {
            acc.wildcard_bytes += e.text.size();
        }
    }
    for (const auto& c : e.children) account_xml(*c, keywords, acc);
}

void account_query(const std::vector<text::QueryParam>& params,
                   const std::set<std::string>& keywords, ByteAccounting& acc) {
    for (const auto& p : params) {
        if (keywords.count(p.key) > 0) {
            acc.key_bytes += p.key.size();
            acc.value_bytes += p.value.size();
        } else {
            acc.wildcard_bytes += p.key.size() + p.value.size();
        }
    }
}

/// Structural response match: every keyword the signature demands appears in
/// the payload (responses legitimately contain keys the app never reads, so
/// a full-payload regex match is the wrong test — §5.1).
bool keywords_subset(const std::vector<std::string>& demanded, BodyKind kind,
                     const std::string& body) {
    if (demanded.empty()) return true;
    auto present = TraceMatcher::payload_keywords(kind, body);
    std::set<std::string> have(present.begin(), present.end());
    return std::all_of(demanded.begin(), demanded.end(),
                       [&have](const std::string& k) { return have.count(k) > 0; });
}

}  // namespace

TraceMatcher::TraceMatcher(const AnalysisReport& report) : report_(&report) {
    obs::Span span("sig.regex_compile", "sig");
    obs::Counter& compiles = obs::counter("sig.regex_compiles");
    compiled_.reserve(report.transactions.size());
    for (const auto& t : report.transactions) {
        CompiledSignature cs;
        auto uri = text::Regex::compile(t.uri_regex);
        compiles.add(1);
        if (uri.ok()) {
            cs.uri = std::move(uri).take();
        } else {
            log::warn().kv("regex", t.uri_regex).kv("error", uri.error().message)
                << "signature regex failed to compile";
        }
        if (!t.body_regex.empty()) {
            auto body = text::Regex::compile(t.body_regex);
            compiles.add(1);
            if (body.ok()) cs.body = std::move(body).take();
        }
        compiled_.push_back(std::move(cs));
    }
    span.finish();
    static obs::Histogram& compile_ms = obs::histogram("sig.regex_compile_ms");
    compile_ms.observe(span.seconds() * 1000.0);
}

std::vector<std::string> TraceMatcher::payload_keywords(BodyKind kind,
                                                        const std::string& body) {
    std::vector<std::string> out;
    switch (kind) {
        case BodyKind::kJson: {
            auto doc = text::parse_json(body);
            if (doc.ok()) json_keywords(doc.value(), out);
            break;
        }
        case BodyKind::kXml: {
            auto doc = text::parse_xml(body);
            if (doc.ok()) xml_keywords(*doc.value(), out);
            break;
        }
        case BodyKind::kQueryString: {
            for (const auto& p : text::parse_query(body)) out.push_back(p.key);
            break;
        }
        default: break;
    }
    return out;
}

ByteAccounting TraceMatcher::account_payload(const std::vector<std::string>& sig_keywords,
                                             BodyKind kind, const std::string& body) {
    ByteAccounting acc;
    std::set<std::string> keywords(sig_keywords.begin(), sig_keywords.end());
    switch (kind) {
        case BodyKind::kJson: {
            auto doc = text::parse_json(body);
            if (doc.ok()) account_json(doc.value(), keywords, acc, false);
            break;
        }
        case BodyKind::kXml: {
            auto doc = text::parse_xml(body);
            if (doc.ok()) account_xml(*doc.value(), keywords, acc);
            break;
        }
        case BodyKind::kQueryString:
            account_query(text::parse_query(body), keywords, acc);
            break;
        default:
            acc.wildcard_bytes += body.size();
    }
    return acc;
}

std::optional<MatchOutcome> TraceMatcher::match_signature(
    std::size_t index, const http::Transaction& txn, const std::string& uri_text) const {
    const ReportTransaction& candidate = report_->transactions[index];
    if (candidate.signature.method != txn.request.method) return std::nullopt;
    if (!compiled_[index].uri) return std::nullopt;
    auto uri_match = compiled_[index].uri->full_match_info(uri_text);
    if (!uri_match) return std::nullopt;

    // Body: regex match, or keyword-subset fallback for structured
    // payloads whose serialization order differs.
    bool body_ok = true;
    if (candidate.signature.has_body && txn.request.body_kind != BodyKind::kNone) {
        body_ok = false;
        if (compiled_[index].body && compiled_[index].body->full_match(txn.request.body)) {
            body_ok = true;
        } else if (keywords_subset(candidate.signature.body.keywords(),
                                   txn.request.body_kind, txn.request.body)) {
            body_ok = true;
        }
    }
    if (!body_ok) return std::nullopt;

    MatchOutcome outcome;
    outcome.transaction = index;
    outcome.uri_matched = true;
    outcome.body_matched = candidate.signature.has_body;
    outcome.uri_accounting.key_bytes = uri_match->accounting.literal_bytes;
    outcome.uri_accounting.wildcard_bytes = uri_match->accounting.wildcard_bytes;

    // Request payload accounting: query string in the URI plus the body.
    std::vector<std::string> request_keywords;
    if (candidate.signature.has_body) {
        request_keywords = candidate.signature.body.keywords();
    }
    for (auto& k : candidate.signature.uri.keywords()) {
        request_keywords.push_back(std::move(k));
    }
    if (!txn.request.uri.query.empty()) {
        ByteAccounting q;
        std::set<std::string> keys(request_keywords.begin(), request_keywords.end());
        account_query(txn.request.uri.query, keys, q);
        outcome.request_accounting += q;
    }
    if (txn.request.body_kind != BodyKind::kNone) {
        outcome.request_accounting +=
            account_payload(request_keywords, txn.request.body_kind, txn.request.body);
    }

    // Response: structural subset + accounting.
    if (candidate.signature.has_response_body &&
        txn.response.body_kind != BodyKind::kNone) {
        auto demanded = candidate.signature.response_body.keywords();
        outcome.response_matched =
            keywords_subset(demanded, txn.response.body_kind, txn.response.body);
        outcome.response_accounting =
            account_payload(demanded, txn.response.body_kind, txn.response.body);
    }
    return outcome;
}

MatchOutcome TraceMatcher::match(const http::Transaction& txn) const {
    std::string uri_text = txn.request.uri.to_string();
    for (std::size_t i = 0; i < report_->transactions.size(); ++i) {
        if (auto outcome = match_signature(i, txn, uri_text)) return *outcome;
    }
    return {};
}

std::vector<MatchOutcome> TraceMatcher::match_all(const http::Transaction& txn) const {
    std::string uri_text = txn.request.uri.to_string();
    std::vector<MatchOutcome> accepting;
    for (std::size_t i = 0; i < report_->transactions.size(); ++i) {
        auto outcome = match_signature(i, txn, uri_text);
        if (outcome) accepting.push_back(std::move(*outcome));
    }
    return accepting;
}

CoverageSummary TraceMatcher::evaluate(const http::Trace& trace) const {
    CoverageSummary summary;
    summary.signatures_total = report_->transactions.size();
    std::vector<bool> hit(report_->transactions.size(), false);
    for (const auto& txn : trace.transactions) {
        summary.trace_transactions += 1;
        MatchOutcome outcome = match(txn);
        if (outcome.transaction) {
            summary.matched += 1;
            hit[*outcome.transaction] = true;
            summary.request_bytes += outcome.uri_accounting;
            summary.request_bytes += outcome.request_accounting;
            summary.response_bytes += outcome.response_accounting;
        }
    }
    summary.signatures_hit =
        static_cast<std::size_t>(std::count(hit.begin(), hit.end(), true));
    return summary;
}

}  // namespace extractocol::core

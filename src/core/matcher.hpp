// Trace validation (§5.1): matches the regex signatures of an AnalysisReport
// against concrete traffic traces, and computes the evaluation metrics —
// signature coverage, logical-match validity, constant-keyword counts
// (Fig. 7) and the Rk/Rv/Rn matched-byte fractions (Table 2).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "http/message.hpp"
#include "text/regex.hpp"

namespace extractocol::core {

/// Byte accounting over request/response payloads (Table 2):
///   Rk — bytes matching constant keywords of the signature,
///   Rv — bytes of values whose key the signature identifies,
///   Rn — bytes covered only by full wildcards.
struct ByteAccounting {
    std::size_t key_bytes = 0;
    std::size_t value_bytes = 0;
    std::size_t wildcard_bytes = 0;

    [[nodiscard]] std::size_t total() const {
        return key_bytes + value_bytes + wildcard_bytes;
    }
    [[nodiscard]] double rk() const { return ratio(key_bytes); }
    [[nodiscard]] double rv() const { return ratio(value_bytes); }
    [[nodiscard]] double rn() const { return ratio(wildcard_bytes); }

    void operator+=(const ByteAccounting& other) {
        key_bytes += other.key_bytes;
        value_bytes += other.value_bytes;
        wildcard_bytes += other.wildcard_bytes;
    }

private:
    [[nodiscard]] double ratio(std::size_t part) const {
        return total() == 0 ? 0.0
                            : static_cast<double>(part) / static_cast<double>(total());
    }
};

struct MatchOutcome {
    /// Index of the matching report transaction, if any.
    std::optional<std::size_t> transaction;
    bool uri_matched = false;
    bool body_matched = false;
    bool response_matched = false;
    ByteAccounting uri_accounting;       // literal vs wildcard on the URI regex
    ByteAccounting request_accounting;   // query string + body, key-aware
    ByteAccounting response_accounting;
};

struct CoverageSummary {
    std::size_t trace_transactions = 0;
    std::size_t matched = 0;
    /// Signatures with at least one matching trace transaction.
    std::size_t signatures_hit = 0;
    std::size_t signatures_total = 0;
    ByteAccounting request_bytes;
    ByteAccounting response_bytes;
};

class TraceMatcher {
public:
    explicit TraceMatcher(const AnalysisReport& report);

    /// Matches one concrete transaction against the report's signatures.
    /// First accepting signature in report order wins.
    [[nodiscard]] MatchOutcome match(const http::Transaction& txn) const;

    /// Every signature accepting the transaction, in report order. Callers
    /// that assign traffic to signatures one-to-one (the accuracy
    /// observatory) pick among these.
    [[nodiscard]] std::vector<MatchOutcome> match_all(
        const http::Transaction& txn) const;

    /// Runs the whole trace and aggregates.
    [[nodiscard]] CoverageSummary evaluate(const http::Trace& trace) const;

    /// Constant keywords present in a concrete payload (query string keys,
    /// JSON keys, XML tags/attributes) — the trace side of Fig. 7.
    static std::vector<std::string> payload_keywords(http::BodyKind kind,
                                                     const std::string& body);

private:
    struct CompiledSignature {
        std::optional<text::Regex> uri;
        std::optional<text::Regex> body;
    };

    /// Key-aware accounting of a key-value payload against sig keywords.
    [[nodiscard]] static ByteAccounting account_payload(
        const std::vector<std::string>& sig_keywords, http::BodyKind kind,
        const std::string& body);

    /// Full outcome of matching `txn` against signature `index` alone;
    /// nullopt if that signature does not accept the transaction.
    [[nodiscard]] std::optional<MatchOutcome> match_signature(
        std::size_t index, const http::Transaction& txn,
        const std::string& uri_text) const;

    const AnalysisReport* report_;
    std::vector<CompiledSignature> compiled_;
};

}  // namespace extractocol::core

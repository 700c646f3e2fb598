#include "cache/codec.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace extractocol::cache {

namespace {

using text::Json;

// ------------------------------------------------------------- encoding --

Json sig_to_json(const sig::Sig& s) {
    Json obj = Json::object();
    obj.set("k", Json(static_cast<int>(s.kind)));
    if (s.value_type != sig::Sig::ValueType::kAny) {
        obj.set("v", Json(static_cast<int>(s.value_type)));
    }
    if (!s.text.empty()) obj.set("t", Json(s.text));
    if (!s.children.empty()) {
        Json arr = Json::array();
        for (const sig::Sig& c : s.children) arr.push_back(sig_to_json(c));
        obj.set("ch", std::move(arr));
    }
    if (!s.members.empty()) {
        Json arr = Json::array();
        for (const auto& [key, value] : s.members) {
            Json pair = Json::array();
            pair.push_back(Json(key));
            pair.push_back(sig_to_json(value));
            arr.push_back(std::move(pair));
        }
        obj.set("mem", std::move(arr));
    }
    if (!s.xml_text.empty()) {
        Json arr = Json::array();
        for (const sig::Sig& c : s.xml_text) arr.push_back(sig_to_json(c));
        obj.set("xt", std::move(arr));
    }
    if (s.repeated) obj.set("rep", Json(true));
    if (s.reason != sig::UnknownReason::kUnspecified) {
        obj.set("rsn", Json(static_cast<int>(s.reason)));
    }
    if (!s.origin.empty()) obj.set("org", Json(s.origin));
    return obj;
}

Json string_array(const std::vector<std::string>& values) {
    Json arr = Json::array();
    for (const std::string& v : values) arr.push_back(Json(v));
    return arr;
}

Json stmt_ref_json(const xir::StmtRef& site) {
    Json arr = Json::array();
    arr.push_back(Json(static_cast<std::int64_t>(site.method_index)));
    arr.push_back(Json(static_cast<std::int64_t>(site.block)));
    arr.push_back(Json(static_cast<std::int64_t>(site.index)));
    return arr;
}

Json signature_to_json(const sig::TransactionSignature& s) {
    Json obj = Json::object();
    obj.set("m", Json(static_cast<int>(s.method)));
    obj.set("uri", sig_to_json(s.uri));
    Json headers = Json::array();
    for (const auto& [name, value] : s.headers) {
        Json pair = Json::array();
        pair.push_back(sig_to_json(name));
        pair.push_back(sig_to_json(value));
        headers.push_back(std::move(pair));
    }
    obj.set("hdr", std::move(headers));
    obj.set("hb", Json(s.has_body));
    obj.set("body", sig_to_json(s.body));
    obj.set("bk", Json(static_cast<int>(s.body_kind)));
    obj.set("hrb", Json(s.has_response_body));
    obj.set("rbody", sig_to_json(s.response_body));
    obj.set("rk", Json(static_cast<int>(s.response_kind)));
    obj.set("lib", Json(s.library));
    obj.set("cons", Json(static_cast<int>(s.consumer)));
    obj.set("res", string_array(s.resource_refs));
    return obj;
}

Json name_count_array(const std::vector<std::pair<std::string, std::size_t>>& rows) {
    Json arr = Json::array();
    for (const auto& [name, count] : rows) {
        Json pair = Json::array();
        pair.push_back(Json(name));
        pair.push_back(Json(static_cast<std::int64_t>(count)));
        arr.push_back(std::move(pair));
    }
    return arr;
}

Json name_u64_array(const std::vector<std::pair<std::string, std::uint64_t>>& rows) {
    Json arr = Json::array();
    for (const auto& [name, count] : rows) {
        Json pair = Json::array();
        pair.push_back(Json(name));
        pair.push_back(Json(static_cast<std::int64_t>(count)));
        arr.push_back(std::move(pair));
    }
    return arr;
}

// ------------------------------------------------------------- decoding --

/// First-error accumulator: decode helpers return false and record the
/// outermost failure, so the cache layer gets one actionable message.
struct Dec {
    std::string err;

    bool fail(std::string message) {
        if (err.empty()) err = std::move(message);
        return false;
    }
};

bool get_i64(const Json& obj, const char* key, std::int64_t& out, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr || !j->is_int()) return dec.fail(std::string("missing int field '") + key + "'");
    out = j->as_int();
    return true;
}

bool get_size(const Json& obj, const char* key, std::size_t& out, Dec& dec) {
    std::int64_t v = 0;
    if (!get_i64(obj, key, v, dec)) return false;
    if (v < 0) return dec.fail(std::string("negative field '") + key + "'");
    out = static_cast<std::size_t>(v);
    return true;
}

bool get_u64(const Json& obj, const char* key, std::uint64_t& out, Dec& dec) {
    std::int64_t v = 0;
    if (!get_i64(obj, key, v, dec)) return false;
    if (v < 0) return dec.fail(std::string("negative field '") + key + "'");
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool get_bool(const Json& obj, const char* key, bool& out, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr || !j->is_bool()) return dec.fail(std::string("missing bool field '") + key + "'");
    out = j->as_bool();
    return true;
}

bool get_str(const Json& obj, const char* key, std::string& out, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr || !j->is_string()) {
        return dec.fail(std::string("missing string field '") + key + "'");
    }
    out = j->as_string();
    return true;
}

bool get_double(const Json& obj, const char* key, double& out, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr || !j->is_number()) {
        return dec.fail(std::string("missing number field '") + key + "'");
    }
    out = j->as_double();
    return true;
}

const Json* get_array(const Json& obj, const char* key, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr || !j->is_array()) {
        dec.fail(std::string("missing array field '") + key + "'");
        return nullptr;
    }
    return j;
}

/// Bounds-checked enum decode: values outside [0, max] are corruption.
template <typename E>
bool get_enum(const Json& obj, const char* key, int max, E& out, Dec& dec) {
    std::int64_t v = 0;
    if (!get_i64(obj, key, v, dec)) return false;
    if (v < 0 || v > max) return dec.fail(std::string("enum field '") + key + "' out of range");
    out = static_cast<E>(v);
    return true;
}

constexpr int kMaxSigKind = static_cast<int>(sig::Sig::Kind::kXmlElement);
constexpr int kMaxValueType = static_cast<int>(sig::Sig::ValueType::kAny);
constexpr int kMaxUnknownReason = static_cast<int>(sig::UnknownReason::kBudgetExhausted);
constexpr int kMaxMethod = static_cast<int>(http::Method::kPatch);
constexpr int kMaxBodyKind = static_cast<int>(http::BodyKind::kBinary);
constexpr int kMaxConsumerKind = static_cast<int>(semantics::ConsumerKind::kUi);
constexpr int kMaxEventKind = static_cast<int>(xir::EventKind::kOnIntent);

bool decode_sig(const Json& j, sig::Sig& out, Dec& dec) {
    if (!j.is_object()) return dec.fail("sig node is not an object");
    if (!get_enum(j, "k", kMaxSigKind, out.kind, dec)) return false;
    out.value_type = sig::Sig::ValueType::kAny;
    if (j.find("v") != nullptr &&
        !get_enum(j, "v", kMaxValueType, out.value_type, dec)) {
        return false;
    }
    if (j.find("t") != nullptr && !get_str(j, "t", out.text, dec)) return false;
    if (const Json* ch = j.find("ch")) {
        if (!ch->is_array()) return dec.fail("sig 'ch' is not an array");
        out.children.resize(ch->items().size());
        for (std::size_t i = 0; i < ch->items().size(); ++i) {
            if (!decode_sig(ch->items()[i], out.children[i], dec)) return false;
        }
    }
    if (const Json* mem = j.find("mem")) {
        if (!mem->is_array()) return dec.fail("sig 'mem' is not an array");
        out.members.resize(mem->items().size());
        for (std::size_t i = 0; i < mem->items().size(); ++i) {
            const Json& pair = mem->items()[i];
            if (!pair.is_array() || pair.items().size() != 2 ||
                !pair.items()[0].is_string()) {
                return dec.fail("sig member is not a [key, sig] pair");
            }
            out.members[i].first = pair.items()[0].as_string();
            if (!decode_sig(pair.items()[1], out.members[i].second, dec)) return false;
        }
    }
    if (const Json* xt = j.find("xt")) {
        if (!xt->is_array()) return dec.fail("sig 'xt' is not an array");
        out.xml_text.resize(xt->items().size());
        for (std::size_t i = 0; i < xt->items().size(); ++i) {
            if (!decode_sig(xt->items()[i], out.xml_text[i], dec)) return false;
        }
    }
    out.repeated = false;
    if (j.find("rep") != nullptr && !get_bool(j, "rep", out.repeated, dec)) return false;
    out.reason = sig::UnknownReason::kUnspecified;
    if (j.find("rsn") != nullptr &&
        !get_enum(j, "rsn", kMaxUnknownReason, out.reason, dec)) {
        return false;
    }
    if (j.find("org") != nullptr && !get_str(j, "org", out.origin, dec)) return false;
    return true;
}

bool decode_sig_field(const Json& obj, const char* key, sig::Sig& out, Dec& dec) {
    const Json* j = obj.find(key);
    if (j == nullptr) return dec.fail(std::string("missing sig field '") + key + "'");
    return decode_sig(*j, out, dec);
}

bool decode_string_array(const Json& obj, const char* key,
                         std::vector<std::string>& out, Dec& dec) {
    const Json* arr = get_array(obj, key, dec);
    if (arr == nullptr) return false;
    out.reserve(arr->items().size());
    for (const Json& item : arr->items()) {
        if (!item.is_string()) return dec.fail(std::string("field '") + key + "' has a non-string item");
        out.push_back(item.as_string());
    }
    return true;
}

bool decode_stmt_ref(const Json& j, xir::StmtRef& out, Dec& dec) {
    if (!j.is_array() || j.items().size() != 3) return dec.fail("stmt ref is not [method, block, index]");
    for (const Json& part : j.items()) {
        if (!part.is_int() || part.as_int() < 0) return dec.fail("stmt ref has a non-integer part");
    }
    out.method_index = static_cast<std::uint32_t>(j.items()[0].as_int());
    out.block = static_cast<xir::BlockId>(j.items()[1].as_int());
    out.index = static_cast<std::uint32_t>(j.items()[2].as_int());
    return true;
}

bool decode_signature(const Json& j, sig::TransactionSignature& out, Dec& dec) {
    if (!j.is_object()) return dec.fail("signature is not an object");
    if (!get_enum(j, "m", kMaxMethod, out.method, dec)) return false;
    if (!decode_sig_field(j, "uri", out.uri, dec)) return false;
    const Json* headers = get_array(j, "hdr", dec);
    if (headers == nullptr) return false;
    out.headers.resize(headers->items().size());
    for (std::size_t i = 0; i < headers->items().size(); ++i) {
        const Json& pair = headers->items()[i];
        if (!pair.is_array() || pair.items().size() != 2) {
            return dec.fail("header is not a [name, value] sig pair");
        }
        if (!decode_sig(pair.items()[0], out.headers[i].first, dec)) return false;
        if (!decode_sig(pair.items()[1], out.headers[i].second, dec)) return false;
    }
    if (!get_bool(j, "hb", out.has_body, dec)) return false;
    if (!decode_sig_field(j, "body", out.body, dec)) return false;
    if (!get_enum(j, "bk", kMaxBodyKind, out.body_kind, dec)) return false;
    if (!get_bool(j, "hrb", out.has_response_body, dec)) return false;
    if (!decode_sig_field(j, "rbody", out.response_body, dec)) return false;
    if (!get_enum(j, "rk", kMaxBodyKind, out.response_kind, dec)) return false;
    if (!get_str(j, "lib", out.library, dec)) return false;
    if (!get_enum(j, "cons", kMaxConsumerKind, out.consumer, dec)) return false;
    if (!decode_string_array(j, "res", out.resource_refs, dec)) return false;
    return true;
}

bool decode_transaction(const Json& j, core::ReportTransaction& out, Dec& dec) {
    if (!j.is_object()) return dec.fail("transaction is not an object");
    const Json* signature = j.find("sig");
    if (signature == nullptr) return dec.fail("missing transaction field 'sig'");
    if (!decode_signature(*signature, out.signature, dec)) return false;
    if (!get_str(j, "ur", out.uri_regex, dec)) return false;
    if (!get_str(j, "br", out.body_regex, dec)) return false;
    if (!get_str(j, "rr", out.response_regex, dec)) return false;
    if (!decode_string_array(j, "trg", out.triggers, dec)) return false;
    const Json* kinds = get_array(j, "trgk", dec);
    if (kinds == nullptr) return false;
    out.trigger_kinds.reserve(kinds->items().size());
    for (const Json& kind : kinds->items()) {
        if (!kind.is_int() || kind.as_int() < 0 || kind.as_int() > kMaxEventKind) {
            return dec.fail("trigger kind out of range");
        }
        out.trigger_kinds.push_back(static_cast<xir::EventKind>(kind.as_int()));
    }
    if (!decode_string_array(j, "cons", out.consumers, dec)) return false;
    if (!decode_string_array(j, "src", out.sources, dec)) return false;
    const Json* site = j.find("dp");
    if (site == nullptr) return dec.fail("missing transaction field 'dp'");
    if (!decode_stmt_ref(*site, out.dp_site, dec)) return false;
    if (!get_size(j, "ctx", out.context_count, dec)) return false;
    return true;
}

bool decode_name_count(const Json& obj, const char* key,
                       std::vector<std::pair<std::string, std::size_t>>& out, Dec& dec) {
    const Json* arr = get_array(obj, key, dec);
    if (arr == nullptr) return false;
    out.reserve(arr->items().size());
    for (const Json& pair : arr->items()) {
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].is_string() || !pair.items()[1].is_int() ||
            pair.items()[1].as_int() < 0) {
            return dec.fail(std::string("field '") + key + "' row is not [name, count]");
        }
        out.emplace_back(pair.items()[0].as_string(),
                         static_cast<std::size_t>(pair.items()[1].as_int()));
    }
    return true;
}

bool decode_name_u64(const Json& obj, const char* key,
                     std::vector<std::pair<std::string, std::uint64_t>>& out, Dec& dec) {
    const Json* arr = get_array(obj, key, dec);
    if (arr == nullptr) return false;
    out.reserve(arr->items().size());
    for (const Json& pair : arr->items()) {
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].is_string() || !pair.items()[1].is_int() ||
            pair.items()[1].as_int() < 0) {
            return dec.fail(std::string("field '") + key + "' row is not [name, count]");
        }
        out.emplace_back(pair.items()[0].as_string(),
                         static_cast<std::uint64_t>(pair.items()[1].as_int()));
    }
    return true;
}

bool decode_stats(const Json& j, core::AnalysisStats& out, Dec& dec) {
    if (!j.is_object()) return dec.fail("stats is not an object");
    if (!get_size(j, "ts", out.total_statements, dec)) return false;
    if (!get_size(j, "ss", out.slice_statements, dec)) return false;
    if (!get_size(j, "dps", out.dp_sites, dec)) return false;
    if (!get_size(j, "cx", out.contexts, dec)) return false;
    if (!get_size(j, "dic", out.dropped_intent_contexts, dec)) return false;
    if (!get_double(j, "sec", out.analysis_seconds, dec)) return false;
    const Json* phases = get_array(j, "ph", dec);
    if (phases == nullptr) return false;
    out.phases.reserve(phases->items().size());
    for (const Json& pair : phases->items()) {
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].is_string() || !pair.items()[1].is_number()) {
            return dec.fail("phase row is not [name, seconds]");
        }
        out.phases.push_back(
            {pair.items()[0].as_string(), pair.items()[1].as_double()});
    }
    if (!decode_name_u64(j, "ctr", out.counters, dec)) return false;
    if (!get_size(j, "steps", out.budget_steps_used, dec)) return false;
    if (!get_bool(j, "bex", out.budget_exhausted, dec)) return false;
    if (!get_u64(j, "peak", out.peak_bytes, dec)) return false;
    return true;
}

bool decode_audit(const Json& j, core::AnalysisAudit& out, Dec& dec) {
    if (!j.is_object()) return dec.fail("audit is not an object");
    if (!decode_name_count(j, "ur", out.unknown_reasons, dec)) return false;
    if (!get_size(j, "ut", out.unknown_total, dec)) return false;
    const Json* sites = get_array(j, "sites", dec);
    if (sites == nullptr) return false;
    out.dp_sites.resize(sites->items().size());
    for (std::size_t i = 0; i < sites->items().size(); ++i) {
        const Json& row = sites->items()[i];
        core::DpSiteAudit& site = out.dp_sites[i];
        if (!row.is_object()) return dec.fail("audit site is not an object");
        const Json* ref = row.find("s");
        if (ref == nullptr) return dec.fail("missing audit site field 's'");
        if (!decode_stmt_ref(*ref, site.site, dec)) return false;
        if (!get_str(row, "dp", site.dp, dec)) return false;
        if (!get_str(row, "loc", site.location, dec)) return false;
        if (!get_str(row, "out", site.outcome, dec)) return false;
        if (!get_size(row, "cx", site.contexts, dec)) return false;
        if (!get_size(row, "dic", site.dropped_intent_contexts, dec)) return false;
        if (!get_size(row, "b", site.built, dec)) return false;
    }
    if (!decode_name_u64(j, "um", out.unmodeled_apis, dec)) return false;
    return true;
}

}  // namespace

text::Json report_to_json(const core::AnalysisReport& report) {
    Json txns = Json::array();
    for (const core::ReportTransaction& t : report.transactions) {
        Json obj = Json::object();
        obj.set("sig", signature_to_json(t.signature));
        obj.set("ur", Json(t.uri_regex));
        obj.set("br", Json(t.body_regex));
        obj.set("rr", Json(t.response_regex));
        obj.set("trg", string_array(t.triggers));
        Json kinds = Json::array();
        for (xir::EventKind kind : t.trigger_kinds) {
            kinds.push_back(Json(static_cast<int>(kind)));
        }
        obj.set("trgk", std::move(kinds));
        obj.set("cons", string_array(t.consumers));
        obj.set("src", string_array(t.sources));
        obj.set("dp", stmt_ref_json(t.dp_site));
        obj.set("ctx", Json(static_cast<std::int64_t>(t.context_count)));
        txns.push_back(std::move(obj));
    }

    Json deps = Json::array();
    for (const txn::Dependency& d : report.dependencies) {
        Json row = Json::array();
        row.push_back(Json(static_cast<std::int64_t>(d.from)));
        row.push_back(Json(static_cast<std::int64_t>(d.to)));
        row.push_back(Json(d.response_field));
        row.push_back(Json(d.request_field));
        row.push_back(Json(d.via));
        deps.push_back(std::move(row));
    }

    const core::AnalysisStats& s = report.stats;
    Json stats = Json::object();
    stats.set("ts", Json(static_cast<std::int64_t>(s.total_statements)));
    stats.set("ss", Json(static_cast<std::int64_t>(s.slice_statements)));
    stats.set("dps", Json(static_cast<std::int64_t>(s.dp_sites)));
    stats.set("cx", Json(static_cast<std::int64_t>(s.contexts)));
    stats.set("dic", Json(static_cast<std::int64_t>(s.dropped_intent_contexts)));
    // Doubles survive the round trip exactly: the printer renders %.17g,
    // which is lossless for binary64 — a warm run replays the cold run's
    // timings bit-for-bit.
    stats.set("sec", Json(s.analysis_seconds));
    Json phases = Json::array();
    for (const obs::PhaseTiming& p : s.phases) {
        Json pair = Json::array();
        pair.push_back(Json(p.name));
        pair.push_back(Json(p.seconds));
        phases.push_back(std::move(pair));
    }
    stats.set("ph", std::move(phases));
    stats.set("ctr", name_u64_array(s.counters));
    stats.set("steps", Json(static_cast<std::int64_t>(s.budget_steps_used)));
    stats.set("bex", Json(s.budget_exhausted));
    stats.set("peak", Json(static_cast<std::int64_t>(s.peak_bytes)));

    const core::AnalysisAudit& a = report.audit;
    Json audit = Json::object();
    audit.set("ur", name_count_array(a.unknown_reasons));
    audit.set("ut", Json(static_cast<std::int64_t>(a.unknown_total)));
    Json sites = Json::array();
    for (const core::DpSiteAudit& site : a.dp_sites) {
        Json row = Json::object();
        row.set("s", stmt_ref_json(site.site));
        row.set("dp", Json(site.dp));
        row.set("loc", Json(site.location));
        row.set("out", Json(site.outcome));
        row.set("cx", Json(static_cast<std::int64_t>(site.contexts)));
        row.set("dic", Json(static_cast<std::int64_t>(site.dropped_intent_contexts)));
        row.set("b", Json(static_cast<std::int64_t>(site.built)));
        sites.push_back(std::move(row));
    }
    audit.set("sites", std::move(sites));
    audit.set("um", name_u64_array(a.unmodeled_apis));

    Json doc = Json::object();
    doc.set("app", Json(report.app_name));
    doc.set("txns", std::move(txns));
    doc.set("deps", std::move(deps));
    doc.set("stats", std::move(stats));
    doc.set("audit", std::move(audit));
    return doc;
}

Result<core::AnalysisReport> report_from_json(const text::Json& doc) {
    Dec dec;
    core::AnalysisReport report;
    if (!doc.is_object()) return Error("report is not an object");
    if (!get_str(doc, "app", report.app_name, dec)) return Error(dec.err);

    const Json* txns = get_array(doc, "txns", dec);
    if (txns == nullptr) return Error(dec.err);
    report.transactions.resize(txns->items().size());
    for (std::size_t i = 0; i < txns->items().size(); ++i) {
        if (!decode_transaction(txns->items()[i], report.transactions[i], dec)) {
            return Error("transaction " + std::to_string(i) + ": " + dec.err);
        }
    }

    const Json* deps = get_array(doc, "deps", dec);
    if (deps == nullptr) return Error(dec.err);
    report.dependencies.resize(deps->items().size());
    for (std::size_t i = 0; i < deps->items().size(); ++i) {
        const Json& row = deps->items()[i];
        txn::Dependency& d = report.dependencies[i];
        if (!row.is_array() || row.items().size() != 5 || !row.items()[0].is_int() ||
            !row.items()[1].is_int() || !row.items()[2].is_string() ||
            !row.items()[3].is_string() || !row.items()[4].is_string()) {
            return Error("dependency " + std::to_string(i) + " is malformed");
        }
        std::int64_t from = row.items()[0].as_int();
        std::int64_t to = row.items()[1].as_int();
        // Edges index into the transaction vector; out-of-range indices
        // would crash every consumer, so they are corruption here.
        if (from < 0 || to < 0 ||
            static_cast<std::size_t>(from) >= report.transactions.size() ||
            static_cast<std::size_t>(to) >= report.transactions.size()) {
            return Error("dependency " + std::to_string(i) + " index out of range");
        }
        d.from = static_cast<std::size_t>(from);
        d.to = static_cast<std::size_t>(to);
        d.response_field = row.items()[2].as_string();
        d.request_field = row.items()[3].as_string();
        d.via = row.items()[4].as_string();
    }

    const Json* stats = doc.find("stats");
    if (stats == nullptr) return Error("missing field 'stats'");
    if (!decode_stats(*stats, report.stats, dec)) return Error("stats: " + dec.err);

    const Json* audit = doc.find("audit");
    if (audit == nullptr) return Error("missing field 'audit'");
    if (!decode_audit(*audit, report.audit, dec)) return Error("audit: " + dec.err);

    return report;
}

}  // namespace extractocol::cache

#include "sig/sig.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "text/regex.hpp"

namespace extractocol::sig {

const char* unknown_reason_name(UnknownReason reason) {
    switch (reason) {
        case UnknownReason::kUnspecified: return "unspecified";
        case UnknownReason::kUnmodeledApi: return "unmodeled_api";
        case UnknownReason::kDerivedString: return "derived_string";
        case UnknownReason::kLoopWidened: return "loop_widened";
        case UnknownReason::kDisjunctionCapped: return "disjunction_capped";
        case UnknownReason::kTaintDepthCutoff: return "taint_depth_cutoff";
        case UnknownReason::kReflection: return "reflection";
        case UnknownReason::kDynamicInput: return "dynamic_input";
        case UnknownReason::kExternalState: return "external_state";
        case UnknownReason::kResourceValue: return "resource_value";
        case UnknownReason::kResponseOpaque: return "response_opaque";
        case UnknownReason::kBudgetExhausted: return "budget_exhausted";
    }
    return "unspecified";
}

// ----------------------------------------------------------- constructors --

Sig Sig::constant(std::string value) {
    Sig s;
    s.kind = Kind::kConst;
    s.text = std::move(value);
    return s;
}

Sig Sig::unknown(ValueType type, UnknownReason reason, std::string origin) {
    Sig s;
    s.kind = Kind::kUnknown;
    s.value_type = type;
    s.reason = reason;
    s.origin = std::move(origin);
    return s;
}

Sig Sig::concat(Sig a, Sig b) { return concat_all({std::move(a), std::move(b)}); }

Sig Sig::concat_all(std::vector<Sig> parts) {
    Sig s;
    s.kind = Kind::kConcat;
    for (auto& part : parts) {
        if (part.kind == Kind::kConcat) {
            for (auto& inner : part.children) s.children.push_back(std::move(inner));
        } else if (part.kind == Kind::kConst && part.text.empty()) {
            continue;  // empty literal is the concat identity
        } else {
            s.children.push_back(std::move(part));
        }
    }
    // Fold adjacent constants.
    std::vector<Sig> folded;
    for (auto& part : s.children) {
        if (!folded.empty() && folded.back().kind == Kind::kConst &&
            part.kind == Kind::kConst) {
            folded.back().text += part.text;
        } else {
            folded.push_back(std::move(part));
        }
    }
    s.children = std::move(folded);
    if (s.children.empty()) return constant("");
    if (s.children.size() == 1) return std::move(s.children[0]);
    return s;
}

Sig Sig::alt(Sig a, Sig b) {
    if (a == b) return a;
    Sig s;
    s.kind = Kind::kAlt;
    auto absorb = [&s](Sig v) {
        if (v.kind == Kind::kAlt) {
            for (auto& inner : v.children) s.children.push_back(std::move(inner));
        } else {
            s.children.push_back(std::move(v));
        }
    };
    absorb(std::move(a));
    absorb(std::move(b));
    // Deduplicate branches.
    std::vector<Sig> unique;
    for (auto& branch : s.children) {
        bool seen = false;
        for (const auto& u : unique) {
            if (u == branch) {
                seen = true;
                break;
            }
        }
        if (!seen) unique.push_back(std::move(branch));
    }
    s.children = std::move(unique);
    if (s.children.size() == 1) return std::move(s.children[0]);
    // Past the arm cap the disjunction stops describing anything an operator
    // could act on; collapse it to an audited unknown instead of growing an
    // unbounded (and regex-hostile) alternation.
    if (s.children.size() > kMaxAltArms) {
        static obs::Counter& capped =
            obs::counter("sig.unknown_reason.disjunction_capped");
        capped.add(1);
        return unknown(ValueType::kAny, UnknownReason::kDisjunctionCapped, "alt");
    }
    return s;
}

Sig Sig::rep(Sig body) {
    Sig s;
    s.kind = Kind::kRep;
    s.children.push_back(std::move(body));
    return s;
}

Sig Sig::json_object() {
    Sig s;
    s.kind = Kind::kJsonObject;
    return s;
}

Sig Sig::json_array() {
    Sig s;
    s.kind = Kind::kJsonArray;
    return s;
}

Sig Sig::xml_element(std::string tag) {
    Sig s;
    s.kind = Kind::kXmlElement;
    s.text = std::move(tag);
    return s;
}

// ------------------------------------------------------------- structure --

bool Sig::operator==(const Sig& other) const {
    if (kind != other.kind || value_type != other.value_type || text != other.text ||
        repeated != other.repeated) {
        return false;
    }
    return children == other.children && members == other.members &&
           xml_text == other.xml_text;
}

bool Sig::is_pure_wildcard() const {
    switch (kind) {
        case Kind::kConst: return text.empty();
        case Kind::kUnknown: return true;
        case Kind::kConcat:
        case Kind::kAlt:
        case Kind::kRep:
        case Kind::kJsonArray:
            return std::all_of(children.begin(), children.end(),
                               [](const Sig& c) { return c.is_pure_wildcard(); });
        case Kind::kJsonObject: return members.empty();
        case Kind::kXmlElement: return false;  // the tag itself is a constant
    }
    return false;
}

void Sig::set_member(const std::string& key, Sig value) {
    for (auto& [k, v] : members) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    members.emplace_back(key, std::move(value));
}

const Sig* Sig::member(const std::string& key) const {
    for (const auto& [k, v] : members) {
        if (k == key) return &v;
    }
    return nullptr;
}

Sig* Sig::member(const std::string& key) {
    for (auto& [k, v] : members) {
        if (k == key) return &v;
    }
    return nullptr;
}

// -------------------------------------------------------------- renderings --

namespace {

void regex_of(const Sig& s, std::string& out);

void regex_of_json_value(const Sig& s, std::string& out) {
    switch (s.kind) {
        case Sig::Kind::kJsonObject:
        case Sig::Kind::kJsonArray:
            regex_of(s, out);
            break;
        case Sig::Kind::kConst:
            // A constant leaf may be a string or number in serialized form;
            // accept an optionally-quoted rendering.
            out += "\"?";
            out += text::Regex::escape(s.text);
            out += "\"?";
            break;
        case Sig::Kind::kUnknown:
            if (s.value_type == Sig::ValueType::kInt) {
                out += "\"?-?[0-9]+\"?";
            } else if (s.value_type == Sig::ValueType::kBool) {
                out += "(true|false|\"true\"|\"false\"|\"TRUE\"|\"FALSE\")";
            } else {
                out += "(\"(\\\\\"|[^\"])*\"|[^,}\\]]*)";
            }
            break;
        default:
            regex_of(s, out);
    }
}

void regex_of(const Sig& s, std::string& out) {
    switch (s.kind) {
        case Sig::Kind::kConst:
            out += text::Regex::escape(s.text);
            break;
        case Sig::Kind::kUnknown:
            out += s.value_type == Sig::ValueType::kInt ? "[0-9]+" : ".*";
            break;
        case Sig::Kind::kConcat:
            for (const auto& c : s.children) regex_of(c, out);
            break;
        case Sig::Kind::kAlt: {
            out += "(";
            for (std::size_t i = 0; i < s.children.size(); ++i) {
                if (i) out += "|";
                regex_of(s.children[i], out);
            }
            out += ")";
            break;
        }
        case Sig::Kind::kRep: {
            out += "(";
            regex_of(s.children[0], out);
            out += ")*";
            break;
        }
        case Sig::Kind::kJsonObject: {
            // Canonical serialization: members in recorded order, arbitrary
            // whitespace not modeled (our traces are compact JSON).
            out += "\\{";
            for (std::size_t i = 0; i < s.members.size(); ++i) {
                if (i) out += ",";
                out += "\"";
                out += text::Regex::escape(s.members[i].first);
                out += "\":";
                regex_of_json_value(s.members[i].second, out);
            }
            out += "\\}";
            break;
        }
        case Sig::Kind::kJsonArray: {
            out += "\\[";
            if (!s.children.empty()) {
                std::string item;
                regex_of_json_value(s.children[0], item);
                if (s.repeated) {
                    out += "(" + item + ")?(," + item + ")*";
                } else {
                    for (std::size_t i = 0; i < s.children.size(); ++i) {
                        if (i) out += ",";
                        regex_of_json_value(s.children[i], out);
                    }
                }
            } else {
                out += ".*";
            }
            out += "\\]";
            break;
        }
        case Sig::Kind::kXmlElement: {
            out += "<";
            // An unknown root tag (the app never names it) matches any name.
            out += s.text.empty() ? "[^ />]*" : text::Regex::escape(s.text);
            for (const auto& [k, v] : s.members) {
                out += ".*";
                out += text::Regex::escape(k);
                out += "=\"";
                regex_of(v, out);
                out += "\"";
            }
            out += ".*";  // rest of the open tag, text, unmodeled attributes
            for (const auto& c : s.children) {
                regex_of(c, out);
                out += ".*";
            }
            break;
        }
    }
}

void display_of(const Sig& s, std::string& out) {
    switch (s.kind) {
        case Sig::Kind::kConst:
            out += "(" + s.text + ")";
            break;
        case Sig::Kind::kUnknown:
            out += s.value_type == Sig::ValueType::kInt ? "[0-9]+" : ".*";
            break;
        case Sig::Kind::kConcat:
            for (const auto& c : s.children) display_of(c, out);
            break;
        case Sig::Kind::kAlt: {
            out += "(";
            for (std::size_t i = 0; i < s.children.size(); ++i) {
                if (i) out += " | ";
                std::string branch;
                display_of(s.children[i], branch);
                out += branch;
            }
            out += ")";
            break;
        }
        case Sig::Kind::kRep: {
            std::string body;
            display_of(s.children[0], body);
            out += "rep{" + body + "}";
            break;
        }
        default: {
            out += s.to_json_schema().dump();
        }
    }
}

}  // namespace

std::string Sig::to_regex() const {
    std::string out;
    regex_of(*this, out);
    return out;
}

std::string Sig::to_display() const {
    std::string out;
    display_of(*this, out);
    return out;
}

text::Json Sig::to_json_schema() const {
    switch (kind) {
        case Kind::kConst: {
            text::Json obj = text::Json::object();
            obj.set("const", text::Json(text));
            return obj;
        }
        case Kind::kUnknown: {
            text::Json obj = text::Json::object();
            switch (value_type) {
                case ValueType::kInt: obj.set("type", text::Json("integer")); break;
                case ValueType::kBool: obj.set("type", text::Json("boolean")); break;
                case ValueType::kString: obj.set("type", text::Json("string")); break;
                case ValueType::kAny: obj.set("type", text::Json("any")); break;
            }
            return obj;
        }
        case Kind::kJsonObject: {
            text::Json obj = text::Json::object();
            obj.set("type", text::Json("object"));
            text::Json props = text::Json::object();
            for (const auto& [k, v] : members) props.set(k, v.to_json_schema());
            obj.set("properties", std::move(props));
            return obj;
        }
        case Kind::kJsonArray: {
            text::Json obj = text::Json::object();
            obj.set("type", text::Json("array"));
            if (!children.empty()) obj.set("items", children[0].to_json_schema());
            return obj;
        }
        case Kind::kXmlElement: {
            text::Json obj = text::Json::object();
            obj.set("type", text::Json("xml"));
            obj.set("tag", text::Json(text));
            if (!members.empty()) {
                text::Json attrs = text::Json::object();
                for (const auto& [k, v] : members) attrs.set(k, v.to_json_schema());
                obj.set("attributes", std::move(attrs));
            }
            if (!children.empty()) {
                text::Json kids = text::Json::array();
                for (const auto& c : children) kids.push_back(c.to_json_schema());
                obj.set("children", std::move(kids));
            }
            return obj;
        }
        default: {
            text::Json obj = text::Json::object();
            obj.set("pattern", text::Json(to_regex()));
            return obj;
        }
    }
}

text::Json Sig::to_provenance_json() const {
    text::Json node = text::Json::object();
    switch (kind) {
        case Kind::kConst:
            node.set("kind", text::Json("const"));
            node.set("text", text::Json(text));
            break;
        case Kind::kUnknown: {
            node.set("kind", text::Json("unknown"));
            switch (value_type) {
                case ValueType::kInt: node.set("type", text::Json("integer")); break;
                case ValueType::kBool: node.set("type", text::Json("boolean")); break;
                case ValueType::kString: node.set("type", text::Json("string")); break;
                case ValueType::kAny: node.set("type", text::Json("any")); break;
            }
            node.set("reason", text::Json(std::string(unknown_reason_name(reason))));
            break;
        }
        case Kind::kConcat:
        case Kind::kAlt:
        case Kind::kRep: {
            node.set("kind", text::Json(kind == Kind::kConcat
                                            ? "concat"
                                            : (kind == Kind::kAlt ? "alt" : "rep")));
            text::Json parts = text::Json::array();
            for (const auto& c : children) parts.push_back(c.to_provenance_json());
            node.set(kind == Kind::kAlt ? "arms" : "parts", std::move(parts));
            break;
        }
        case Kind::kJsonObject: {
            node.set("kind", text::Json("json_object"));
            text::Json props = text::Json::object();
            for (const auto& [k, v] : members) props.set(k, v.to_provenance_json());
            node.set("members", std::move(props));
            break;
        }
        case Kind::kJsonArray: {
            node.set("kind", text::Json("json_array"));
            if (repeated) node.set("repeated", text::Json(true));
            text::Json items = text::Json::array();
            for (const auto& c : children) items.push_back(c.to_provenance_json());
            node.set("items", std::move(items));
            break;
        }
        case Kind::kXmlElement: {
            node.set("kind", text::Json("xml_element"));
            node.set("tag", text::Json(text));
            if (!members.empty()) {
                text::Json attrs = text::Json::object();
                for (const auto& [k, v] : members) attrs.set(k, v.to_provenance_json());
                node.set("attributes", std::move(attrs));
            }
            if (!children.empty()) {
                text::Json kids = text::Json::array();
                for (const auto& c : children) kids.push_back(c.to_provenance_json());
                node.set("children", std::move(kids));
            }
            if (!xml_text.empty()) {
                node.set("text_content", xml_text[0].to_provenance_json());
            }
            break;
        }
    }
    if (!origin.empty()) node.set("origin", text::Json(origin));
    return node;
}

std::size_t Sig::count_unknown_reasons(
    std::vector<std::pair<std::string, std::size_t>>& out) const {
    if (kind == Kind::kUnknown) {
        std::string name = unknown_reason_name(reason);
        for (auto& [n, c] : out) {
            if (n == name) {
                ++c;
                return 1;
            }
        }
        out.emplace_back(std::move(name), 1);
        return 1;
    }
    std::size_t n = 0;
    for (const auto& c : children) n += c.count_unknown_reasons(out);
    for (const auto& [k, v] : members) {
        (void)k;
        n += v.count_unknown_reasons(out);
    }
    for (const auto& t : xml_text) n += t.count_unknown_reasons(out);
    return n;
}

namespace {
void dtd_of(const Sig& s, std::string& out) {
    if (s.kind != Sig::Kind::kXmlElement) return;
    out += "<!ELEMENT " + s.text + " ";
    if (s.children.empty()) {
        out += s.xml_text.empty() ? "EMPTY" : "(#PCDATA)";
    } else {
        out += "(";
        for (std::size_t i = 0; i < s.children.size(); ++i) {
            if (i) out += ",";
            out += s.children[i].text;
            if (s.children[i].repeated) out += "*";
        }
        out += ")";
    }
    out += ">\n";
    for (const auto& [attr, value] : s.members) {
        (void)value;
        out += "<!ATTLIST " + s.text + " " + attr + " CDATA #IMPLIED>\n";
    }
    for (const auto& c : s.children) dtd_of(c, out);
}
}  // namespace

std::string Sig::to_dtd() const {
    std::string out;
    dtd_of(*this, out);
    return out;
}

// --------------------------------------------------------------- analytics --

void Sig::collect_keywords(std::vector<std::string>& out, bool in_structure) const {
    switch (kind) {
        case Kind::kJsonObject:
            for (const auto& [k, v] : members) {
                out.push_back(k);
                v.collect_keywords(out, true);
            }
            break;
        case Kind::kJsonArray:
        case Kind::kConcat:
        case Kind::kAlt:
        case Kind::kRep:
            for (const auto& c : children) c.collect_keywords(out, in_structure);
            break;
        case Kind::kXmlElement:
            out.push_back(text);
            for (const auto& [k, v] : members) {
                out.push_back(k);
                v.collect_keywords(out, true);
            }
            for (const auto& c : children) c.collect_keywords(out, true);
            for (const auto& t : xml_text) t.collect_keywords(out, true);
            break;
        case Kind::kConst: {
            if (in_structure) break;  // constant *values* inside JSON are not keys
            // Flat strings (query strings / URI): keys are the tokens that
            // look like "key=" between separators.
            const std::string& t = text;
            std::size_t start = 0;
            while (start < t.size()) {
                auto eq = t.find('=', start);
                if (eq == std::string::npos) break;
                std::size_t key_start = t.rfind('&', eq);
                key_start = (key_start == std::string::npos || key_start < start)
                                ? start
                                : key_start + 1;
                auto qmark = t.rfind('?', eq);
                if (qmark != std::string::npos && qmark >= key_start) {
                    key_start = qmark + 1;
                }
                if (eq > key_start) out.push_back(t.substr(key_start, eq - key_start));
                start = eq + 1;
            }
            break;
        }
        case Kind::kUnknown: break;
    }
}

std::vector<std::string> Sig::keywords() const {
    std::vector<std::string> out;
    collect_keywords(out, false);
    return out;
}

std::size_t Sig::constant_bytes() const {
    std::size_t n = 0;
    switch (kind) {
        case Kind::kConst: return text.size();
        case Kind::kUnknown: return 0;
        case Kind::kXmlElement:
            n += text.size();
            [[fallthrough]];
        case Kind::kJsonObject:
            for (const auto& [k, v] : members) n += k.size() + v.constant_bytes();
            for (const auto& c : children) n += c.constant_bytes();
            for (const auto& t : xml_text) n += t.constant_bytes();
            return n;
        default:
            for (const auto& c : children) n += c.constant_bytes();
            return n;
    }
}

// ------------------------------------------------------------------ merges --

Sig merge_alt(Sig a, Sig b) { return Sig::alt(std::move(a), std::move(b)); }

void tag_unknowns(Sig& s, UnknownReason reason, const std::string& origin) {
    if (s.kind == Sig::Kind::kUnknown) {
        if (s.reason == UnknownReason::kUnspecified) {
            s.reason = reason;
            if (s.origin.empty()) s.origin = origin;
        }
        return;
    }
    for (auto& c : s.children) tag_unknowns(c, reason, origin);
    for (auto& [k, v] : s.members) {
        (void)k;
        tag_unknowns(v, reason, origin);
    }
    for (auto& t : s.xml_text) tag_unknowns(t, reason, origin);
}

Sig widen_loop(const Sig& base, const Sig& grown) {
    if (base == grown) return base;
    static obs::Counter& widened = obs::counter("sig.unknown_reason.loop_widened");
    widened.add(1);
    // JSON arrays grown inside a loop become repeated.
    if (base.kind == Sig::Kind::kJsonArray && grown.kind == Sig::Kind::kJsonArray) {
        Sig out = grown;
        if (!out.children.empty()) {
            out.children.resize(1);
            out.repeated = true;
        }
        out.origin = "loop";
        return out;
    }
    // String growth: find the common prefix of the flattened concat forms and
    // wrap the variant tail in rep{}.
    auto flatten = [](const Sig& s) -> std::vector<Sig> {
        if (s.kind == Sig::Kind::kConcat) return s.children;
        return {s};
    };
    std::vector<Sig> base_parts = flatten(base);
    std::vector<Sig> grown_parts = flatten(grown);
    std::size_t common = 0;
    while (common < base_parts.size() && common < grown_parts.size() &&
           base_parts[common] == grown_parts[common]) {
        ++common;
    }
    // Constant folding may have merged the shared literal with the loop
    // body's first literal: split "pfx&k=" against base "pfx".
    if (common + 1 == base_parts.size() && common < grown_parts.size() &&
        base_parts[common].kind == Sig::Kind::kConst &&
        grown_parts[common].kind == Sig::Kind::kConst &&
        grown_parts[common].text.size() > base_parts[common].text.size() &&
        grown_parts[common].text.compare(0, base_parts[common].text.size(),
                                         base_parts[common].text) == 0) {
        grown_parts[common] = Sig::constant(
            grown_parts[common].text.substr(base_parts[common].text.size()));
        grown_parts.insert(grown_parts.begin() + static_cast<std::ptrdiff_t>(common),
                           base_parts[common]);
        ++common;
    }
    if (common == base_parts.size() && grown_parts.size() > common) {
        std::vector<Sig> tail(grown_parts.begin() + static_cast<std::ptrdiff_t>(common),
                              grown_parts.end());
        std::vector<Sig> out = base_parts;
        Sig body = Sig::concat_all(std::move(tail));
        tag_unknowns(body, UnknownReason::kLoopWidened, "loop");
        Sig repeated = Sig::rep(std::move(body));
        repeated.origin = "loop";
        out.push_back(std::move(repeated));
        return Sig::concat_all(std::move(out));
    }
    // Unrelated growth: fall back to a rep-absorbed alternation so the
    // fixpoint terminates.
    if (grown.kind == Sig::Kind::kConcat && !grown_parts.empty() &&
        grown_parts.back().kind == Sig::Kind::kRep) {
        return grown;  // already widened
    }
    Sig out = merge_alt(base, grown);
    if (out.origin.empty()) out.origin = "loop";
    return out;
}

}  // namespace extractocol::sig

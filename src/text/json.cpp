#include "text/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace extractocol::text {

const Json* Json::find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : members()) {
        if (k == key) return &v;
    }
    return nullptr;
}

void Json::set(std::string_view key, Json value) {
    for (auto& [k, v] : members()) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    members().emplace_back(std::string(key), std::move(value));
}

namespace {

/// Whether `c` must be written as an escape inside JSON quotes.
bool needs_escape(unsigned char c) { return c == '"' || c == '\\' || c < 0x20; }

/// Appends the escaped form of `s` to `out`: each run of bytes that need no
/// escape is appended in one call.
void escape_into(std::string& out, std::string_view s) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (!needs_escape(c)) continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

}  // namespace

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    escape_into(out, s);
    return out;
}

namespace {

void dump_to(const Json& v, std::string& out, int indent, int depth) {
    const bool pretty = indent > 0;
    auto newline = [&](int d) {
        if (!pretty) return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (v.kind()) {
        case Json::Kind::kNull: out += "null"; break;
        case Json::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
        case Json::Kind::kInt: out += std::to_string(v.as_int()); break;
        case Json::Kind::kDouble: {
            double d = v.as_double();
            if (std::isfinite(d)) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.17g", d);
                out += buf;
            } else {
                out += "null";  // JSON has no Inf/NaN
            }
            break;
        }
        case Json::Kind::kString:
            out.push_back('"');
            escape_into(out, v.as_string());
            out.push_back('"');
            break;
        case Json::Kind::kArray: {
            out.push_back('[');
            const auto& items = v.items();
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i != 0) out.push_back(',');
                newline(depth + 1);
                dump_to(items[i], out, indent, depth + 1);
            }
            if (!items.empty()) newline(depth);
            out.push_back(']');
            break;
        }
        case Json::Kind::kObject: {
            out.push_back('{');
            const auto& members = v.members();
            for (std::size_t i = 0; i < members.size(); ++i) {
                if (i != 0) out.push_back(',');
                newline(depth + 1);
                out.push_back('"');
                escape_into(out, members[i].first);
                out += pretty ? "\": " : "\":";
                dump_to(members[i].second, out, indent, depth + 1);
            }
            if (!members.empty()) newline(depth);
            out.push_back('}');
            break;
        }
    }
}

class Parser {
public:
    explicit Parser(std::string_view input) : input_(input) {}

    Result<Json> parse() {
        skip_ws();
        auto value = parse_value(0);
        if (!value.ok()) return value;
        skip_ws();
        if (pos_ != input_.size()) return fail("trailing characters after document");
        return value;
    }

private:
    Result<Json> fail(const std::string& why) {
        return Error("json parse error at offset " + std::to_string(pos_) + ": " + why);
    }

    void skip_ws() {
        while (pos_ < input_.size()) {
            char c = input_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    [[nodiscard]] bool at_end() const { return pos_ >= input_.size(); }
    [[nodiscard]] char peek() const { return input_[pos_]; }

    bool consume(char c) {
        if (!at_end() && input_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool consume_literal(std::string_view lit) {
        if (input_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    /// `depth`: the arrays/objects enclosing this value.
    Result<Json> parse_value(std::size_t depth) {
        if (at_end()) return fail("unexpected end of input");
        char c = peek();
        if ((c == '{' || c == '[') && depth == kMaxJsonDepth) {
            return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        switch (c) {
            case '{': return parse_object(depth + 1);
            case '[': return parse_array(depth + 1);
            case '"': {
                auto s = parse_string();
                if (!s.ok()) return s.error();
                return Json(std::move(s).take());
            }
            case 't':
                if (consume_literal("true")) return Json(true);
                return fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return Json(false);
                return fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return Json(nullptr);
                return fail("invalid literal");
            default: return parse_number();
        }
    }

    Result<Json> parse_object(std::size_t depth) {
        ++pos_;  // '{'
        Json obj = Json::object();
        skip_ws();
        if (consume('}')) return obj;
        while (true) {
            skip_ws();
            if (at_end() || peek() != '"') return fail("expected object key");
            auto key = parse_string();
            if (!key.ok()) return key.error();
            skip_ws();
            if (!consume(':')) return fail("expected ':'");
            skip_ws();
            auto value = parse_value(depth);
            if (!value.ok()) return value;
            obj.members().emplace_back(std::move(key).take(), std::move(value).take());
            skip_ws();
            if (consume(',')) continue;
            if (consume('}')) return obj;
            return fail("expected ',' or '}'");
        }
    }

    Result<Json> parse_array(std::size_t depth) {
        ++pos_;  // '['
        Json arr = Json::array();
        skip_ws();
        if (consume(']')) return arr;
        while (true) {
            skip_ws();
            auto value = parse_value(depth);
            if (!value.ok()) return value;
            arr.push_back(std::move(value).take());
            skip_ws();
            if (consume(',')) continue;
            if (consume(']')) return arr;
            return fail("expected ',' or ']'");
        }
    }

    Result<std::string> parse_string() {
        ++pos_;  // opening quote
        std::string out;
        while (true) {
            // Append the run up to the next quote or backslash in one call.
            std::size_t run = pos_;
            while (pos_ < input_.size() && input_[pos_] != '"' && input_[pos_] != '\\') ++pos_;
            out.append(input_.data() + run, pos_ - run);
            if (at_end()) return Error("unterminated string");
            if (input_[pos_++] == '"') return out;
            if (at_end()) return Error("unterminated escape");
            char e = input_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > input_.size()) return Error("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = input_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else return Error("bad \\u escape");
                    }
                    // Encode BMP code point as UTF-8 (surrogate pairs collapse
                    // to replacement; protocol payloads in this repo are ASCII).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: return Error("unknown escape");
            }
        }
    }

    Result<Json> parse_number() {
        std::size_t start = pos_;
        if (consume('-')) {}
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        bool is_double = false;
        if (consume('.')) {
            is_double = true;
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (!at_end() && (peek() == 'e' || peek() == 'E')) {
            is_double = true;
            ++pos_;
            if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        std::string_view token = input_.substr(start, pos_ - start);
        if (token.empty() || token == "-") return fail("invalid number");
        if (!is_double) {
            std::int64_t value = 0;
            auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size()) return Json(value);
        }
        double value = 0;
        auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec != std::errc() || ptr != token.data() + token.size()) {
            return fail("invalid number");
        }
        return Json(value);
    }

    std::string_view input_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
    std::string out;
    dump_to(*this, out, 0, 0);
    return out;
}

std::string Json::dump_pretty() const {
    std::string out;
    dump_to(*this, out, 2, 0);
    return out;
}

Result<Json> parse_json(std::string_view input) { return Parser(input).parse(); }

}  // namespace extractocol::text

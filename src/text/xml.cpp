#include "text/xml.hpp"

#include <cctype>

namespace extractocol::text {

const std::string* XmlElement::attribute(std::string_view key) const {
    for (const auto& [k, v] : attributes) {
        if (k == key) return &v;
    }
    return nullptr;
}

const XmlElement* XmlElement::child(std::string_view tag) const {
    for (const auto& c : children) {
        if (c->name == tag) return c.get();
    }
    return nullptr;
}

std::vector<const XmlElement*> XmlElement::children_named(std::string_view tag) const {
    std::vector<const XmlElement*> out;
    for (const auto& c : children) {
        if (c->name == tag) out.push_back(c.get());
    }
    return out;
}

XmlElementPtr XmlElement::clone() const {
    auto copy = std::make_unique<XmlElement>();
    copy->name = name;
    copy->attributes = attributes;
    copy->text = text;
    copy->children.reserve(children.size());
    for (const auto& c : children) copy->children.push_back(c->clone());
    return copy;
}

std::string xml_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            case '\'': out += "&apos;"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

namespace {

void dump_to(const XmlElement& e, std::string& out) {
    out.push_back('<');
    out += e.name;
    for (const auto& [k, v] : e.attributes) {
        out.push_back(' ');
        out += k;
        out += "=\"";
        out += xml_escape(v);
        out.push_back('"');
    }
    if (e.children.empty() && e.text.empty()) {
        out += "/>";
        return;
    }
    out.push_back('>');
    out += xml_escape(e.text);
    for (const auto& c : e.children) dump_to(*c, out);
    out += "</";
    out += e.name;
    out.push_back('>');
}

class Parser {
public:
    explicit Parser(std::string_view input) : input_(input) {}

    Result<XmlElementPtr> parse() {
        skip_misc();
        auto root = parse_element(1);
        if (!root.ok()) return root;
        skip_misc();
        if (pos_ != input_.size()) return fail("trailing content after root element");
        return root;
    }

private:
    Result<XmlElementPtr> fail(const std::string& why) {
        return Error("xml parse error at offset " + std::to_string(pos_) + ": " + why);
    }

    [[nodiscard]] bool at_end() const { return pos_ >= input_.size(); }
    [[nodiscard]] char peek() const { return input_[pos_]; }

    void skip_ws() {
        while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
    }

    // Skips whitespace, the <?xml?> prolog, and comments between elements.
    void skip_misc() {
        while (true) {
            skip_ws();
            if (input_.substr(pos_, 2) == "<?") {
                std::size_t end = input_.find("?>", pos_);
                pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
            } else if (input_.substr(pos_, 4) == "<!--") {
                std::size_t end = input_.find("-->", pos_);
                pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
            } else {
                return;
            }
        }
    }

    static bool is_name_char(char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '-' ||
               c == '.' || c == ':';
    }

    std::string parse_name() {
        std::size_t start = pos_;
        while (!at_end() && is_name_char(peek())) ++pos_;
        return std::string(input_.substr(start, pos_ - start));
    }

    std::string decode_entities(std::string_view s) {
        std::string out;
        out.reserve(s.size());
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i] != '&') {
                out.push_back(s[i]);
                continue;
            }
            std::size_t semi = s.find(';', i);
            if (semi == std::string_view::npos) {
                out.push_back('&');
                continue;
            }
            std::string_view entity = s.substr(i + 1, semi - i - 1);
            if (entity == "amp") out.push_back('&');
            else if (entity == "lt") out.push_back('<');
            else if (entity == "gt") out.push_back('>');
            else if (entity == "quot") out.push_back('"');
            else if (entity == "apos") out.push_back('\'');
            else {
                out.push_back('&');
                continue;  // unknown entity: keep verbatim
            }
            i = semi;
        }
        return out;
    }

    /// `depth`: this element's nesting level (the root is 1).
    Result<XmlElementPtr> parse_element(std::size_t depth) {
        if (at_end() || peek() != '<') return fail("expected '<'");
        if (depth > kMaxXmlDepth) {
            return fail("nesting deeper than " + std::to_string(kMaxXmlDepth) + " levels");
        }
        ++pos_;
        auto element = std::make_unique<XmlElement>();
        element->name = parse_name();
        if (element->name.empty()) return fail("expected element name");
        while (true) {
            skip_ws();
            if (at_end()) return fail("unterminated start tag");
            if (peek() == '/') {
                ++pos_;
                if (at_end() || peek() != '>') return fail("expected '>' after '/'");
                ++pos_;
                return element;  // self-closing
            }
            if (peek() == '>') {
                ++pos_;
                break;
            }
            std::string key = parse_name();
            if (key.empty()) return fail("expected attribute name");
            skip_ws();
            if (at_end() || peek() != '=') return fail("expected '=' in attribute");
            ++pos_;
            skip_ws();
            if (at_end() || (peek() != '"' && peek() != '\'')) {
                return fail("expected quoted attribute value");
            }
            char quote = peek();
            ++pos_;
            std::size_t start = pos_;
            while (!at_end() && peek() != quote) ++pos_;
            if (at_end()) return fail("unterminated attribute value");
            element->attributes.emplace_back(
                std::move(key), decode_entities(input_.substr(start, pos_ - start)));
            ++pos_;
        }
        // Content until matching close tag.
        while (true) {
            if (at_end()) return fail("unterminated element <" + element->name + ">");
            if (peek() == '<') {
                if (input_.substr(pos_, 4) == "<!--") {
                    std::size_t end = input_.find("-->", pos_);
                    if (end == std::string_view::npos) return fail("unterminated comment");
                    pos_ = end + 3;
                    continue;
                }
                if (input_.substr(pos_, 2) == "</") {
                    pos_ += 2;
                    std::string closing = parse_name();
                    if (closing != element->name) {
                        return fail("mismatched close tag </" + closing + ">");
                    }
                    skip_ws();
                    if (at_end() || peek() != '>') return fail("expected '>'");
                    ++pos_;
                    return element;
                }
                auto child = parse_element(depth + 1);
                if (!child.ok()) return child;
                element->children.push_back(std::move(child).take());
            } else {
                std::size_t start = pos_;
                while (!at_end() && peek() != '<') ++pos_;
                element->text += decode_entities(input_.substr(start, pos_ - start));
            }
        }
    }

    std::string_view input_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string XmlElement::dump() const {
    std::string out;
    dump_to(*this, out);
    return out;
}

Result<XmlElementPtr> parse_xml(std::string_view input) { return Parser(input).parse(); }

}  // namespace extractocol::text

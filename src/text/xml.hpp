// A small XML document model sufficient for Android-app protocol payloads:
// elements with attributes and mixed text/element content. No namespaces,
// DTD validation, or processing-instruction semantics — matching the subset
// the paper's semantic models cover (org.xml-style pull parsing of
// element/attribute trees, e.g. res/values/strings.xml and XML responses).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.hpp"

namespace extractocol::text {

struct XmlElement;
using XmlElementPtr = std::unique_ptr<XmlElement>;

struct XmlElement {
    std::string name;
    std::vector<std::pair<std::string, std::string>> attributes;  // insertion order
    std::vector<XmlElementPtr> children;
    std::string text;  // concatenated character data directly inside this element

    [[nodiscard]] const std::string* attribute(std::string_view key) const;
    /// First child element with the given tag name, or nullptr.
    [[nodiscard]] const XmlElement* child(std::string_view tag) const;
    /// All child elements with the given tag name.
    [[nodiscard]] std::vector<const XmlElement*> children_named(std::string_view tag) const;

    [[nodiscard]] std::string dump() const;

    /// Deep copy (XmlElement itself is move-only because of unique_ptr kids).
    [[nodiscard]] XmlElementPtr clone() const;
};

/// Deepest element nesting parse_xml accepts; it bounds the parser's
/// recursion, so hostile input gets an error instead of a stack overflow.
inline constexpr std::size_t kMaxXmlDepth = 512;

/// Parses one XML document (a single root element; leading <?xml?> prolog and
/// comments are skipped). Nesting deeper than kMaxXmlDepth is an error.
Result<XmlElementPtr> parse_xml(std::string_view input);

std::string xml_escape(std::string_view s);

}  // namespace extractocol::text

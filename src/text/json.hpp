// A self-contained JSON document model with parser and printer.
//
// Design notes:
//  * Object member order is preserved (vector of pairs) so signatures and
//    traces serialize deterministically; lookup is linear, which is fine for
//    protocol-sized documents.
//  * Integers and doubles are kept distinct: Extractocol's signature language
//    distinguishes `num integer` constants from generic numbers (Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/result.hpp"

namespace extractocol::text {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;
using JsonObject = std::vector<JsonMember>;

class Json {
public:
    enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}            // NOLINT
    Json(bool b) : value_(b) {}                          // NOLINT
    Json(std::int64_t n) : value_(n) {}                  // NOLINT
    Json(int n) : value_(static_cast<std::int64_t>(n)) {}  // NOLINT
    Json(double d) : value_(d) {}                        // NOLINT
    Json(std::string s) : value_(std::move(s)) {}        // NOLINT
    Json(const char* s) : value_(std::string(s)) {}      // NOLINT
    Json(JsonArray a) : value_(std::move(a)) {}          // NOLINT
    Json(JsonObject o) : value_(std::move(o)) {}         // NOLINT

    static Json array() { return Json(JsonArray{}); }
    static Json object() { return Json(JsonObject{}); }

    [[nodiscard]] Kind kind() const { return static_cast<Kind>(value_.index()); }
    [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
    [[nodiscard]] bool is_bool() const { return kind() == Kind::kBool; }
    [[nodiscard]] bool is_int() const { return kind() == Kind::kInt; }
    [[nodiscard]] bool is_double() const { return kind() == Kind::kDouble; }
    [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
    [[nodiscard]] bool is_string() const { return kind() == Kind::kString; }
    [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }
    [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }

    [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
    [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
    [[nodiscard]] double as_double() const {
        return is_int() ? static_cast<double>(as_int()) : std::get<double>(value_);
    }
    [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
    /// Mutable access, so a caller can move a large string out of a parsed
    /// document instead of copying it.
    [[nodiscard]] std::string& as_string() { return std::get<std::string>(value_); }

    [[nodiscard]] const JsonArray& items() const { return std::get<JsonArray>(value_); }
    [[nodiscard]] JsonArray& items() { return std::get<JsonArray>(value_); }
    [[nodiscard]] const JsonObject& members() const { return std::get<JsonObject>(value_); }
    [[nodiscard]] JsonObject& members() { return std::get<JsonObject>(value_); }

    /// Object member access; returns nullptr if absent or not an object.
    [[nodiscard]] const Json* find(std::string_view key) const;
    [[nodiscard]] Json* find(std::string_view key) {
        return const_cast<Json*>(std::as_const(*this).find(key));
    }

    /// Sets (or replaces) an object member. Requires is_object().
    void set(std::string_view key, Json value);

    /// Appends to an array. Requires is_array().
    void push_back(Json value) { items().push_back(std::move(value)); }

    bool operator==(const Json& other) const = default;

    /// Compact serialization (no whitespace).
    [[nodiscard]] std::string dump() const;
    /// Pretty serialization with 2-space indentation.
    [[nodiscard]] std::string dump_pretty() const;

private:
    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, JsonArray,
                 JsonObject>
        value_;
};

/// Deepest array/object nesting parse_json accepts. Real documents stay far
/// below it (corpus reports and cache entries nest under 20 levels); it
/// bounds the parser's recursion, so hostile input gets an error instead of
/// a stack overflow.
inline constexpr std::size_t kMaxJsonDepth = 512;

/// Parses a complete JSON document. Trailing non-whitespace, or nesting
/// deeper than kMaxJsonDepth, is an error.
Result<Json> parse_json(std::string_view input);

/// Escapes a string for inclusion inside JSON quotes (no surrounding quotes).
std::string json_escape(std::string_view s);

}  // namespace extractocol::text

// xir — the intermediate representation standing in for Jimple (the 3-address
// IR Soot derives from Dalvik bytecode, on which Extractocol's analyses run).
//
// Shape of the IR:
//  * A Program is a set of Classes plus an event registry (Android lifecycle /
//    UI / timer / push entry points) and a resource table (strings.xml).
//  * A Class has fields and Methods; single inheritance via `super`.
//  * A Method is a CFG of BasicBlocks of Statements; locals are indexed;
//    every block ends in a terminator (If / Goto / Return).
//  * Statements are a closed variant: constant/copy/field/array moves, object
//    allocation, invocations, and terminators — the Jimple statement set
//    restricted to what protocol-processing code exercises.
//
// API ("library") methods are *not* present as bodies: calls whose target
// class is not defined in the Program are phantom calls, interpreted by the
// semantic model (src/semantics) during analysis and by the interpreter's
// runtime during fuzzing — exactly how Soot treats the Android SDK.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "support/result.hpp"

namespace extractocol::xir {

// ----------------------------------------------------------- identifiers --

using LocalId = std::uint32_t;
using BlockId = std::uint32_t;

/// Fully-qualified method reference "com.example.Cls.method".
struct MethodRef {
    std::string class_name;
    std::string method_name;

    [[nodiscard]] std::string qualified() const { return class_name + "." + method_name; }
    bool operator==(const MethodRef&) const = default;
};

struct MethodRefHash {
    std::size_t operator()(const MethodRef& r) const {
        return std::hash<std::string>{}(r.class_name) * 31 +
               std::hash<std::string>{}(r.method_name);
    }
};

/// Identifies one statement in a program: (method, block, statement index).
struct StmtRef {
    std::uint32_t method_index = 0;  // index into Program::method_table()
    BlockId block = 0;
    std::uint32_t index = 0;

    bool operator==(const StmtRef&) const = default;
    auto operator<=>(const StmtRef&) const = default;
};

struct StmtRefHash {
    std::size_t operator()(const StmtRef& r) const {
        return (static_cast<std::size_t>(r.method_index) << 40) ^
               (static_cast<std::size_t>(r.block) << 20) ^ r.index;
    }
};

// ----------------------------------------------------------------- types --

/// Types are interned strings: "int", "long", "boolean", "double", "void",
/// "java.lang.String", array types with "[]" suffix.
using Type = std::string;

inline bool is_integer_type(const Type& t) { return t == "int" || t == "long"; }
inline bool is_string_type(const Type& t) { return t == "java.lang.String"; }
inline bool is_array_type(const Type& t) {
    return t.size() > 2 && t.compare(t.size() - 2, 2, "[]") == 0;
}

// ------------------------------------------------------------- constants --

struct Constant {
    enum class Kind { kNull, kInt, kDouble, kString, kBool };
    Kind kind = Kind::kNull;
    std::int64_t int_value = 0;
    double double_value = 0;
    std::string string_value;
    bool bool_value = false;

    static Constant null() { return {}; }
    static Constant of_int(std::int64_t v) {
        Constant c;
        c.kind = Kind::kInt;
        c.int_value = v;
        return c;
    }
    static Constant of_double(double v) {
        Constant c;
        c.kind = Kind::kDouble;
        c.double_value = v;
        return c;
    }
    static Constant of_string(std::string v) {
        Constant c;
        c.kind = Kind::kString;
        c.string_value = std::move(v);
        return c;
    }
    static Constant of_bool(bool v) {
        Constant c;
        c.kind = Kind::kBool;
        c.bool_value = v;
        return c;
    }

    bool operator==(const Constant&) const = default;

    [[nodiscard]] std::string to_display() const;
};

/// An operand of a statement: a local variable or an embedded constant.
struct Operand {
    enum class Kind { kLocal, kConstant };
    Kind kind = Kind::kConstant;
    LocalId local = 0;
    Constant constant;

    Operand() = default;
    Operand(LocalId id) : kind(Kind::kLocal), local(id) {}  // NOLINT: ergonomic
    Operand(Constant c) : kind(Kind::kConstant), constant(std::move(c)) {}  // NOLINT

    [[nodiscard]] bool is_local() const { return kind == Kind::kLocal; }
    [[nodiscard]] bool is_constant() const { return kind == Kind::kConstant; }
    bool operator==(const Operand&) const = default;
};

// ------------------------------------------------------------ statements --

/// dst = constant
struct AssignConst {
    LocalId dst;
    Constant value;
};

/// dst = src
struct AssignCopy {
    LocalId dst;
    LocalId src;
};

/// dst = new ClassName
struct NewObject {
    LocalId dst;
    std::string class_name;
};

/// dst = base.field
struct LoadField {
    LocalId dst;
    LocalId base;
    std::string field;
};

/// base.field = src
struct StoreField {
    LocalId base;
    std::string field;
    Operand src;
};

/// dst = ClassName.field (static)
struct LoadStatic {
    LocalId dst;
    std::string class_name;
    std::string field;
};

/// ClassName.field = src (static)
struct StoreStatic {
    std::string class_name;
    std::string field;
    Operand src;
};

/// dst = array[index]
struct LoadArray {
    LocalId dst;
    LocalId array;
    Operand index;
};

/// array[index] = src
struct StoreArray {
    LocalId array;
    Operand index;
    Operand src;
};

/// dst = lhs <op> rhs  (arithmetic / string concat by '+')
struct BinaryOp {
    enum class Op { kAdd, kSub, kMul, kDiv, kConcat };
    LocalId dst;
    Op op;
    Operand lhs;
    Operand rhs;
};

enum class InvokeKind { kVirtual, kStatic, kSpecial /* constructors */ };

/// [dst =] base.method(args...) or Class.method(args...)
struct Invoke {
    std::optional<LocalId> dst;
    InvokeKind kind = InvokeKind::kVirtual;
    MethodRef callee;
    std::optional<LocalId> base;  // receiver for virtual/special
    std::vector<Operand> args;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// if (lhs op rhs) goto then_block else goto else_block
struct If {
    Operand lhs;
    CmpOp op = CmpOp::kEq;
    Operand rhs;
    BlockId then_block = 0;
    BlockId else_block = 0;
};

struct Goto {
    BlockId target = 0;
};

struct Return {
    std::optional<Operand> value;
};

struct Nop {};

using Statement =
    std::variant<Nop, AssignConst, AssignCopy, NewObject, LoadField, StoreField,
                 LoadStatic, StoreStatic, LoadArray, StoreArray, BinaryOp, Invoke, If,
                 Goto, Return>;

[[nodiscard]] bool is_terminator(const Statement& stmt);

/// Calls `fn(LocalId)` for every local a statement reads (operands, bases,
/// receivers, args), in operand order, without allocating.
template <typename Fn>
void for_each_use(const Statement& stmt, Fn&& fn) {
    auto operand = [&fn](const Operand& op) {
        if (op.is_local()) fn(op.local);
    };
    std::visit(
        [&](const auto& s) {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, AssignCopy>) {
                fn(s.src);
            } else if constexpr (std::is_same_v<T, LoadField>) {
                fn(s.base);
            } else if constexpr (std::is_same_v<T, StoreField>) {
                fn(s.base);
                operand(s.src);
            } else if constexpr (std::is_same_v<T, StoreStatic>) {
                operand(s.src);
            } else if constexpr (std::is_same_v<T, LoadArray>) {
                fn(s.array);
                operand(s.index);
            } else if constexpr (std::is_same_v<T, StoreArray>) {
                fn(s.array);
                operand(s.index);
                operand(s.src);
            } else if constexpr (std::is_same_v<T, BinaryOp> || std::is_same_v<T, If>) {
                operand(s.lhs);
                operand(s.rhs);
            } else if constexpr (std::is_same_v<T, Invoke>) {
                if (s.base) fn(*s.base);
                for (const auto& a : s.args) operand(a);
            } else if constexpr (std::is_same_v<T, Return>) {
                if (s.value) operand(*s.value);
            }
        },
        stmt);
}

/// Local variables read by a statement, as for_each_use visits them.
std::vector<LocalId> uses_of(const Statement& stmt);

/// Local defined by a statement, if any.
std::optional<LocalId> def_of(const Statement& stmt);

/// One-line textual form (for dumps, debugging, and the .xapk format).
std::string to_display(const Statement& stmt);

// ----------------------------------------------------------------- method --

struct LocalVar {
    std::string name;
    Type type;
};

struct BasicBlock {
    std::vector<Statement> statements;

    /// Successor block ids derived from the terminator.
    [[nodiscard]] std::vector<BlockId> successors() const;
};

/// Event kinds an entry-point method can be registered for. The distinction
/// drives the fuzzing-coverage model in the evaluation (§5.1): auto fuzzing
/// reaches only plain clickables; manual fuzzing also drives custom UI and
/// login flows; timers / server pushes / side-effectful actions are reached
/// by neither.
enum class EventKind {
    kOnCreate,     // app startup
    kOnClick,      // standard clickable — reachable by auto + manual fuzzing
    kOnCustomUi,   // custom-rendered UI — manual fuzzing only (PUMA misses it)
    kOnLogin,      // requires credentials — manual fuzzing only
    kOnTimer,      // time-triggered — no fuzzer reaches it
    kOnServerPush, // server-triggered — no fuzzer reaches it
    kOnAction,     // real-world side effects (purchase...) — no fuzzer
    kOnLocation,   // location-service callback — async producer event
    kOnIntent,     // Android intent — Extractocol limitation: not analyzed
};

std::string_view event_kind_name(EventKind kind);
Result<EventKind> parse_event_kind(std::string_view name);

struct Method {
    std::string name;
    std::string class_name;  // owning class (redundant but handy)
    bool is_static = false;
    Type return_type = "void";
    /// Locals; params occupy the first `param_count` slots (slot 0 = `this`
    /// for instance methods).
    std::vector<LocalVar> locals;
    std::uint32_t param_count = 0;
    std::vector<BasicBlock> blocks;  // block 0 is the entry

    [[nodiscard]] MethodRef ref() const { return {class_name, name}; }
    [[nodiscard]] const Statement* statement(BlockId block, std::uint32_t index) const;
    [[nodiscard]] std::size_t statement_count() const;
};

// ----------------------------------------------------------------- class --

struct Field {
    std::string name;
    Type type;
};

struct Class {
    std::string name;
    std::string super;  // empty = java.lang.Object
    std::vector<Field> fields;
    std::vector<Method> methods;

    [[nodiscard]] const Method* method(std::string_view method_name) const;
    [[nodiscard]] const Field* field(std::string_view field_name) const;
};

// --------------------------------------------------------------- program --

struct EventRegistration {
    MethodRef handler;
    EventKind kind = EventKind::kOnClick;
    /// Human-readable trigger label, e.g. "click:refresh_button".
    std::string label;
};

class Program {
public:
    std::string app_name;
    std::vector<Class> classes;
    std::vector<EventRegistration> events;
    /// Resource table (stands in for res/values/strings.xml): id -> value.
    std::vector<std::pair<std::string, std::string>> resources;

    /// Rebuilds the lookup indices; call after mutating classes. Also assigns
    /// the flat method indices used by StmtRef.
    void reindex();

    [[nodiscard]] const Class* find_class(std::string_view name) const;
    [[nodiscard]] const Method* find_method(const MethodRef& ref) const;
    /// Resolves a virtual call walking up the super chain from `ref.class_name`.
    [[nodiscard]] const Method* resolve_virtual(const MethodRef& ref) const;

    [[nodiscard]] const std::string* resource(std::string_view id) const;

    /// Flat method table: StmtRef.method_index indexes this.
    [[nodiscard]] const std::vector<const Method*>& method_table() const { return method_table_; }
    [[nodiscard]] std::optional<std::uint32_t> method_index(const MethodRef& ref) const;
    [[nodiscard]] const Method& method_at(std::uint32_t index) const {
        return *method_table_[index];
    }

    [[nodiscard]] const Statement& statement(const StmtRef& ref) const;
    [[nodiscard]] std::size_t total_statements() const;

private:
    std::vector<const Method*> method_table_;
    std::unordered_map<std::string, std::uint32_t> class_index_;
    std::unordered_map<std::string, std::uint32_t> method_index_;  // qualified name
};

}  // namespace extractocol::xir

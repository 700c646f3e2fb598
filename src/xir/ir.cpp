#include "xir/ir.hpp"

#include <stdexcept>

#include "support/strings.hpp"

namespace extractocol::xir {

// ------------------------------------------------------------- constants --

std::string Constant::to_display() const {
    switch (kind) {
        case Kind::kNull: return "null";
        case Kind::kInt: return std::to_string(int_value);
        case Kind::kDouble: return std::to_string(double_value);
        case Kind::kString: return "\"" + string_value + "\"";
        case Kind::kBool: return bool_value ? "true" : "false";
    }
    return "?";
}

namespace {
std::string operand_display(const Operand& op) {
    if (op.is_local()) return "$" + std::to_string(op.local);
    return op.constant.to_display();
}

const char* cmp_name(CmpOp op) {
    switch (op) {
        case CmpOp::kEq: return "==";
        case CmpOp::kNe: return "!=";
        case CmpOp::kLt: return "<";
        case CmpOp::kLe: return "<=";
        case CmpOp::kGt: return ">";
        case CmpOp::kGe: return ">=";
    }
    return "?";
}

const char* binop_name(BinaryOp::Op op) {
    switch (op) {
        case BinaryOp::Op::kAdd: return "+";
        case BinaryOp::Op::kSub: return "-";
        case BinaryOp::Op::kMul: return "*";
        case BinaryOp::Op::kDiv: return "/";
        case BinaryOp::Op::kConcat: return "++";
    }
    return "?";
}
}  // namespace

// ------------------------------------------------------------ statements --

bool is_terminator(const Statement& stmt) {
    return std::holds_alternative<If>(stmt) || std::holds_alternative<Goto>(stmt) ||
           std::holds_alternative<Return>(stmt);
}

std::vector<LocalId> uses_of(const Statement& stmt) {
    std::vector<LocalId> out;
    for_each_use(stmt, [&out](LocalId use) { out.push_back(use); });
    return out;
}

std::optional<LocalId> def_of(const Statement& stmt) {
    return std::visit(
        [](const auto& s) -> std::optional<LocalId> {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, AssignConst> || std::is_same_v<T, AssignCopy> ||
                          std::is_same_v<T, NewObject> || std::is_same_v<T, LoadField> ||
                          std::is_same_v<T, LoadStatic> || std::is_same_v<T, LoadArray> ||
                          std::is_same_v<T, BinaryOp>) {
                return s.dst;
            } else if constexpr (std::is_same_v<T, Invoke>) {
                return s.dst;
            } else {
                return std::nullopt;
            }
        },
        stmt);
}

std::string to_display(const Statement& stmt) {
    return std::visit(
        [](const auto& s) -> std::string {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, Nop>) {
                return "nop";
            } else if constexpr (std::is_same_v<T, AssignConst>) {
                return "$" + std::to_string(s.dst) + " = " + s.value.to_display();
            } else if constexpr (std::is_same_v<T, AssignCopy>) {
                return "$" + std::to_string(s.dst) + " = $" + std::to_string(s.src);
            } else if constexpr (std::is_same_v<T, NewObject>) {
                return "$" + std::to_string(s.dst) + " = new " + s.class_name;
            } else if constexpr (std::is_same_v<T, LoadField>) {
                return "$" + std::to_string(s.dst) + " = $" + std::to_string(s.base) + "." +
                       s.field;
            } else if constexpr (std::is_same_v<T, StoreField>) {
                return "$" + std::to_string(s.base) + "." + s.field + " = " +
                       operand_display(s.src);
            } else if constexpr (std::is_same_v<T, LoadStatic>) {
                return "$" + std::to_string(s.dst) + " = " + s.class_name + "." + s.field;
            } else if constexpr (std::is_same_v<T, StoreStatic>) {
                return s.class_name + "." + s.field + " = " + operand_display(s.src);
            } else if constexpr (std::is_same_v<T, LoadArray>) {
                return "$" + std::to_string(s.dst) + " = $" + std::to_string(s.array) + "[" +
                       operand_display(s.index) + "]";
            } else if constexpr (std::is_same_v<T, StoreArray>) {
                return "$" + std::to_string(s.array) + "[" + operand_display(s.index) +
                       "] = " + operand_display(s.src);
            } else if constexpr (std::is_same_v<T, BinaryOp>) {
                return "$" + std::to_string(s.dst) + " = " + operand_display(s.lhs) + " " +
                       binop_name(s.op) + " " + operand_display(s.rhs);
            } else if constexpr (std::is_same_v<T, Invoke>) {
                std::string out;
                if (s.dst) out = "$" + std::to_string(*s.dst) + " = ";
                if (s.base) {
                    out += "$" + std::to_string(*s.base) + ".";
                    out += s.callee.qualified();
                } else {
                    out += s.callee.qualified();
                }
                out += "(";
                for (std::size_t i = 0; i < s.args.size(); ++i) {
                    if (i) out += ", ";
                    out += operand_display(s.args[i]);
                }
                out += ")";
                return out;
            } else if constexpr (std::is_same_v<T, If>) {
                return "if " + operand_display(s.lhs) + " " + cmp_name(s.op) + " " +
                       operand_display(s.rhs) + " goto b" + std::to_string(s.then_block) +
                       " else b" + std::to_string(s.else_block);
            } else if constexpr (std::is_same_v<T, Goto>) {
                return "goto b" + std::to_string(s.target);
            } else if constexpr (std::is_same_v<T, Return>) {
                return s.value ? "return " + operand_display(*s.value) : "return";
            }
        },
        stmt);
}

// ----------------------------------------------------------------- blocks --

std::vector<BlockId> BasicBlock::successors() const {
    if (statements.empty()) return {};
    const Statement& last = statements.back();
    if (const auto* branch = std::get_if<If>(&last)) {
        if (branch->then_block == branch->else_block) return {branch->then_block};
        return {branch->then_block, branch->else_block};
    }
    if (const auto* jump = std::get_if<Goto>(&last)) return {jump->target};
    return {};  // Return (or malformed; verifier rejects the latter)
}

// ----------------------------------------------------------------- events --

std::string_view event_kind_name(EventKind kind) {
    switch (kind) {
        case EventKind::kOnCreate: return "create";
        case EventKind::kOnClick: return "click";
        case EventKind::kOnCustomUi: return "custom_ui";
        case EventKind::kOnLogin: return "login";
        case EventKind::kOnTimer: return "timer";
        case EventKind::kOnServerPush: return "server_push";
        case EventKind::kOnAction: return "action";
        case EventKind::kOnLocation: return "location";
        case EventKind::kOnIntent: return "intent";
    }
    return "?";
}

Result<EventKind> parse_event_kind(std::string_view name) {
    for (EventKind kind :
         {EventKind::kOnCreate, EventKind::kOnClick, EventKind::kOnCustomUi,
          EventKind::kOnLogin, EventKind::kOnTimer, EventKind::kOnServerPush,
          EventKind::kOnAction, EventKind::kOnLocation, EventKind::kOnIntent}) {
        if (event_kind_name(kind) == name) return kind;
    }
    return Error("unknown event kind: " + std::string(name));
}

// ----------------------------------------------------------------- method --

const Statement* Method::statement(BlockId block, std::uint32_t index) const {
    if (block >= blocks.size()) return nullptr;
    const auto& stmts = blocks[block].statements;
    if (index >= stmts.size()) return nullptr;
    return &stmts[index];
}

std::size_t Method::statement_count() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.statements.size();
    return n;
}

// ------------------------------------------------------------------ class --

const Method* Class::method(std::string_view method_name) const {
    for (const auto& m : methods) {
        if (m.name == method_name) return &m;
    }
    return nullptr;
}

const Field* Class::field(std::string_view field_name) const {
    for (const auto& f : fields) {
        if (f.name == field_name) return &f;
    }
    return nullptr;
}

// ---------------------------------------------------------------- program --

void Program::reindex() {
    method_table_.clear();
    class_index_.clear();
    method_index_.clear();
    for (std::uint32_t ci = 0; ci < classes.size(); ++ci) {
        class_index_[classes[ci].name] = ci;
        for (auto& m : classes[ci].methods) {
            m.class_name = classes[ci].name;
            method_index_[m.ref().qualified()] =
                static_cast<std::uint32_t>(method_table_.size());
            method_table_.push_back(&m);
        }
    }
}

const Class* Program::find_class(std::string_view name) const {
    auto it = class_index_.find(std::string(name));
    if (it == class_index_.end()) return nullptr;
    return &classes[it->second];
}

const Method* Program::find_method(const MethodRef& ref) const {
    auto it = method_index_.find(ref.qualified());
    if (it == method_index_.end()) return nullptr;
    return method_table_[it->second];
}

const Method* Program::resolve_virtual(const MethodRef& ref) const {
    std::string current = ref.class_name;
    while (!current.empty()) {
        const Class* cls = find_class(current);
        if (!cls) return nullptr;
        if (const Method* m = cls->method(ref.method_name)) return m;
        current = cls->super;
    }
    return nullptr;
}

const std::string* Program::resource(std::string_view id) const {
    for (const auto& [key, value] : resources) {
        if (key == id) return &value;
    }
    return nullptr;
}

std::optional<std::uint32_t> Program::method_index(const MethodRef& ref) const {
    auto it = method_index_.find(ref.qualified());
    if (it == method_index_.end()) return std::nullopt;
    return it->second;
}

const Statement& Program::statement(const StmtRef& ref) const {
    const Method& m = method_at(ref.method_index);
    const Statement* stmt = m.statement(ref.block, ref.index);
    if (!stmt) throw std::out_of_range("StmtRef out of range in " + m.ref().qualified());
    return *stmt;
}

std::size_t Program::total_statements() const {
    std::size_t n = 0;
    for (const Method* m : method_table_) n += m->statement_count();
    return n;
}

}  // namespace extractocol::xir

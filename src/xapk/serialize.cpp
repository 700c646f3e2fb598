#include "xapk/serialize.hpp"

#include <charconv>
#include <iterator>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"
#include "xir/verify.hpp"

namespace extractocol::xapk {

using namespace xir;

// Statement mnemonics, one line each, whitespace-separated tokens; strings
// are double-quoted with backslash escapes. Operand forms:
//   $N        local
//   "..."     string constant
//   123       int constant
//   d:1.5     double constant
//   true/false/null
// Optional destinations use "_" when absent.

namespace {

std::string quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default: out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

std::string operand_text(const Operand& op) {
    if (op.is_local()) return "$" + std::to_string(op.local);
    const Constant& c = op.constant;
    switch (c.kind) {
        case Constant::Kind::kNull: return "null";
        case Constant::Kind::kBool: return c.bool_value ? "true" : "false";
        case Constant::Kind::kInt: return std::to_string(c.int_value);
        case Constant::Kind::kDouble: {
            char buf[40];
            std::snprintf(buf, sizeof buf, "d:%.17g", c.double_value);
            return buf;
        }
        case Constant::Kind::kString: return quote(c.string_value);
    }
    return "null";
}

const char* cmp_text(CmpOp op) {
    switch (op) {
        case CmpOp::kEq: return "eq";
        case CmpOp::kNe: return "ne";
        case CmpOp::kLt: return "lt";
        case CmpOp::kLe: return "le";
        case CmpOp::kGt: return "gt";
        case CmpOp::kGe: return "ge";
    }
    return "eq";
}

const char* bin_text(BinaryOp::Op op) {
    switch (op) {
        case BinaryOp::Op::kAdd: return "add";
        case BinaryOp::Op::kSub: return "sub";
        case BinaryOp::Op::kMul: return "mul";
        case BinaryOp::Op::kDiv: return "div";
        case BinaryOp::Op::kConcat: return "cat";
    }
    return "add";
}

const char* invoke_kind_text(InvokeKind kind) {
    switch (kind) {
        case InvokeKind::kVirtual: return "virtual";
        case InvokeKind::kStatic: return "static";
        case InvokeKind::kSpecial: return "special";
    }
    return "virtual";
}

void write_statement(std::ostream& out, const Statement& stmt) {
    std::visit(
        [&](const auto& s) {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, Nop>) {
                out << "nop";
            } else if constexpr (std::is_same_v<T, AssignConst>) {
                out << "const $" << s.dst << " " << operand_text(Operand(s.value));
            } else if constexpr (std::is_same_v<T, AssignCopy>) {
                out << "copy $" << s.dst << " $" << s.src;
            } else if constexpr (std::is_same_v<T, NewObject>) {
                out << "new $" << s.dst << " " << s.class_name;
            } else if constexpr (std::is_same_v<T, LoadField>) {
                out << "getf $" << s.dst << " $" << s.base << " " << s.field;
            } else if constexpr (std::is_same_v<T, StoreField>) {
                out << "putf $" << s.base << " " << s.field << " " << operand_text(s.src);
            } else if constexpr (std::is_same_v<T, LoadStatic>) {
                out << "gets $" << s.dst << " " << s.class_name << " " << s.field;
            } else if constexpr (std::is_same_v<T, StoreStatic>) {
                out << "puts " << s.class_name << " " << s.field << " "
                    << operand_text(s.src);
            } else if constexpr (std::is_same_v<T, LoadArray>) {
                out << "geta $" << s.dst << " $" << s.array << " " << operand_text(s.index);
            } else if constexpr (std::is_same_v<T, StoreArray>) {
                out << "puta $" << s.array << " " << operand_text(s.index) << " "
                    << operand_text(s.src);
            } else if constexpr (std::is_same_v<T, BinaryOp>) {
                out << "bin $" << s.dst << " " << bin_text(s.op) << " "
                    << operand_text(s.lhs) << " " << operand_text(s.rhs);
            } else if constexpr (std::is_same_v<T, Invoke>) {
                out << "call ";
                if (s.dst) out << "$" << *s.dst;
                else out << "_";
                out << " " << invoke_kind_text(s.kind) << " " << s.callee.qualified() << " ";
                if (s.base) out << "$" << *s.base;
                else out << "_";
                for (const auto& a : s.args) out << " " << operand_text(a);
            } else if constexpr (std::is_same_v<T, If>) {
                out << "if " << operand_text(s.lhs) << " " << cmp_text(s.op) << " "
                    << operand_text(s.rhs) << " b" << s.then_block << " b" << s.else_block;
            } else if constexpr (std::is_same_v<T, Goto>) {
                out << "goto b" << s.target;
            } else if constexpr (std::is_same_v<T, Return>) {
                out << "ret " << (s.value ? operand_text(*s.value) : std::string("_"));
            }
        },
        stmt);
}

}  // namespace

std::string write_xapk(const Program& program) {
    std::ostringstream out;
    out << "xapk 1\n";
    out << "app " << quote(program.app_name) << "\n";
    for (const auto& [id, value] : program.resources) {
        out << "resource " << id << " " << quote(value) << "\n";
    }
    for (const auto& event : program.events) {
        out << "event " << event_kind_name(event.kind) << " "
            << event.handler.qualified() << " " << quote(event.label) << "\n";
    }
    for (const auto& cls : program.classes) {
        out << "class " << cls.name;
        if (!cls.super.empty()) out << " extends " << cls.super;
        out << "\n";
        for (const auto& field : cls.fields) {
            out << "  field " << field.name << " " << field.type << "\n";
        }
        for (const auto& method : cls.methods) {
            out << "  method " << method.name << " " << (method.is_static ? 1 : 0) << " "
                << method.param_count << " " << method.return_type << "\n";
            for (const auto& local : method.locals) {
                out << "    local " << local.name << " " << local.type << "\n";
            }
            for (BlockId b = 0; b < method.blocks.size(); ++b) {
                out << "    block " << b << "\n";
                for (const auto& stmt : method.blocks[b].statements) {
                    out << "      ";
                    write_statement(out, stmt);
                    out << "\n";
                }
            }
        }
    }
    return out.str();
}

// ----------------------------------------------------------------- parse --

namespace {

/// Splits a line into views of its tokens, treating double-quoted runs (with
/// backslash escapes) as single tokens. A quoted token keeps its quotes and
/// its escapes undecoded; unquote() decodes it when it becomes a string.
/// Returns false on an unterminated string literal.
bool tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
    tokens.clear();
    std::size_t i = 0;
    while (i < line.size()) {
        if (line[i] == ' ' || line[i] == '\t') {
            ++i;
            continue;
        }
        std::size_t start = i;
        if (line[i] == '"') {
            ++i;
            while (i < line.size() && line[i] != '"') {
                i += (line[i] == '\\' && i + 1 < line.size()) ? 2 : 1;
            }
            if (i >= line.size()) return false;
            ++i;  // closing quote
        } else {
            while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        }
        tokens.push_back(line.substr(start, i - start));
    }
    return true;
}

bool is_quoted(std::string_view token) {
    return token.size() >= 2 && token.front() == '"' && token.back() == '"';
}

/// The decoded contents of a quoted token. Copied as is when it has no
/// escape; the tokenizer guarantees every backslash has a successor.
std::string unquote(std::string_view token) {
    std::string_view body = token.substr(1, token.size() - 2);
    if (body.find('\\') == std::string_view::npos) return std::string(body);
    std::string out;
    out.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\' || i + 1 == body.size()) {
            out.push_back(body[i]);
            continue;
        }
        switch (body[++i]) {
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            default: out.push_back(body[i]);
        }
    }
    return out;
}

bool has_escapes(std::string_view token) {
    return is_quoted(token) && token.find('\\') != std::string_view::npos;
}

/// A token as an identifier or in an error message: verbatim, except that a
/// quoted token with escapes is shown decoded between its quotes.
std::string token_text(std::string_view token) {
    if (!has_escapes(token)) return std::string(token);
    return '"' + unquote(token) + '"';
}

Error bad(const char* what, std::string_view token) {
    return Error(std::string(what) + token_text(token));
}

/// Whole-token number parse; false on garbage and on overflow.
template <typename T>
bool parse_number(std::string_view digits, T& value) {
    auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
    return ec == std::errc() && ptr == digits.data() + digits.size();
}

Result<Operand> parse_operand(std::string_view token) {
    if (token.empty()) return Error("empty operand");
    if (token[0] == '$') {
        LocalId id = 0;
        if (!parse_number(token.substr(1), id)) return bad("bad local operand: ", token);
        return Operand(id);
    }
    if (is_quoted(token)) return Operand(Constant::of_string(unquote(token)));
    if (token == "null") return Operand(Constant::null());
    if (token == "true") return Operand(Constant::of_bool(true));
    if (token == "false") return Operand(Constant::of_bool(false));
    if (strings::starts_with(token, "d:")) {
        double parsed = 0;
        if (!parse_number(token.substr(2), parsed)) {
            return bad("bad double operand: ", token);
        }
        return Operand(Constant::of_double(parsed));
    }
    std::int64_t value = 0;
    if (parse_number(token, value)) return Operand(Constant::of_int(value));
    return bad("bad operand: ", token);
}

/// Guarded decimal parse for header fields (method param counts, block
/// indices): garbage and overflow become an Error instead of a std::stoul
/// throw escaping parse_xapk's Result contract.
Result<std::uint32_t> parse_u32(std::string_view token, const char* what) {
    std::uint32_t value = 0;
    if (!parse_number(token, value)) {
        return Error(std::string("bad ") + what + ": " + token_text(token));
    }
    return value;
}

Result<LocalId> parse_local(std::string_view token) {
    auto op = parse_operand(token);
    if (!op.ok()) return op.error();
    if (!op.value().is_local()) return bad("expected local, got ", token);
    return op.value().local;
}

Result<BlockId> parse_block_ref(std::string_view token) {
    BlockId id = 0;
    if (token.size() < 2 || token[0] != 'b' || !parse_number(token.substr(1), id)) {
        return bad("bad block ref: ", token);
    }
    return id;
}

Result<CmpOp> parse_cmp(std::string_view token) {
    if (token == "eq") return CmpOp::kEq;
    if (token == "ne") return CmpOp::kNe;
    if (token == "lt") return CmpOp::kLt;
    if (token == "le") return CmpOp::kLe;
    if (token == "gt") return CmpOp::kGt;
    if (token == "ge") return CmpOp::kGe;
    return bad("bad cmp op: ", token);
}

Result<BinaryOp::Op> parse_bin(std::string_view token) {
    if (token == "add") return BinaryOp::Op::kAdd;
    if (token == "sub") return BinaryOp::Op::kSub;
    if (token == "mul") return BinaryOp::Op::kMul;
    if (token == "div") return BinaryOp::Op::kDiv;
    if (token == "cat") return BinaryOp::Op::kConcat;
    return bad("bad binary op: ", token);
}

Result<InvokeKind> parse_invoke_kind(std::string_view token) {
    if (token == "virtual") return InvokeKind::kVirtual;
    if (token == "static") return InvokeKind::kStatic;
    if (token == "special") return InvokeKind::kSpecial;
    return bad("bad invoke kind: ", token);
}

MethodRef parse_method_ref(std::string_view token) {
    std::string decoded;
    if (has_escapes(token)) token = decoded = token_text(token);
    auto dot = token.rfind('.');
    if (dot == std::string_view::npos) return {"", std::string(token)};
    return {std::string(token.substr(0, dot)), std::string(token.substr(dot + 1))};
}

/// Parses one statement line and appends the statement to `out`.
Status parse_statement(const std::vector<std::string_view>& t, std::vector<Statement>& out) {
    std::string_view op = t[0];
    auto need = [&](std::size_t n) -> Status {
        if (t.size() < n) return Error("statement '" + token_text(op) + "' needs more tokens");
        return Status::success();
    };
    auto emit = [&out](auto stmt) {
        out.emplace_back(std::move(stmt));
        return Status::success();
    };

    if (op == "nop") return emit(Nop{});
    if (op == "const") {
        if (auto s = need(3); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        if (!dst.ok()) return dst.error();
        auto value = parse_operand(t[2]);
        if (!value.ok()) return value.error();
        if (value.value().is_local()) return Error("const with local operand");
        return emit(AssignConst{dst.value(), std::move(value).take().constant});
    }
    if (op == "copy") {
        if (auto s = need(3); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        auto src = parse_local(t[2]);
        if (!dst.ok()) return dst.error();
        if (!src.ok()) return src.error();
        return emit(AssignCopy{dst.value(), src.value()});
    }
    if (op == "new") {
        if (auto s = need(3); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        if (!dst.ok()) return dst.error();
        return emit(NewObject{dst.value(), token_text(t[2])});
    }
    if (op == "getf") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        auto base = parse_local(t[2]);
        if (!dst.ok()) return dst.error();
        if (!base.ok()) return base.error();
        return emit(LoadField{dst.value(), base.value(), token_text(t[3])});
    }
    if (op == "putf") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto base = parse_local(t[1]);
        if (!base.ok()) return base.error();
        auto src = parse_operand(t[3]);
        if (!src.ok()) return src.error();
        return emit(StoreField{base.value(), token_text(t[2]), std::move(src).take()});
    }
    if (op == "gets") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        if (!dst.ok()) return dst.error();
        return emit(LoadStatic{dst.value(), token_text(t[2]), token_text(t[3])});
    }
    if (op == "puts") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto src = parse_operand(t[3]);
        if (!src.ok()) return src.error();
        return emit(StoreStatic{token_text(t[1]), token_text(t[2]), std::move(src).take()});
    }
    if (op == "geta") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        auto array = parse_local(t[2]);
        if (!dst.ok()) return dst.error();
        if (!array.ok()) return array.error();
        auto index = parse_operand(t[3]);
        if (!index.ok()) return index.error();
        return emit(LoadArray{dst.value(), array.value(), std::move(index).take()});
    }
    if (op == "puta") {
        if (auto s = need(4); !s.ok()) return s.error();
        auto array = parse_local(t[1]);
        if (!array.ok()) return array.error();
        auto index = parse_operand(t[2]);
        auto src = parse_operand(t[3]);
        if (!index.ok()) return index.error();
        if (!src.ok()) return src.error();
        return emit(StoreArray{array.value(), std::move(index).take(), std::move(src).take()});
    }
    if (op == "bin") {
        if (auto s = need(5); !s.ok()) return s.error();
        auto dst = parse_local(t[1]);
        if (!dst.ok()) return dst.error();
        auto kind = parse_bin(t[2]);
        if (!kind.ok()) return kind.error();
        auto lhs = parse_operand(t[3]);
        auto rhs = parse_operand(t[4]);
        if (!lhs.ok()) return lhs.error();
        if (!rhs.ok()) return rhs.error();
        return emit(BinaryOp{dst.value(), kind.value(), std::move(lhs).take(),
                             std::move(rhs).take()});
    }
    if (op == "call") {
        if (auto s = need(5); !s.ok()) return s.error();
        Invoke call;
        if (t[1] != "_") {
            auto dst = parse_local(t[1]);
            if (!dst.ok()) return dst.error();
            call.dst = dst.value();
        }
        auto kind = parse_invoke_kind(t[2]);
        if (!kind.ok()) return kind.error();
        call.kind = kind.value();
        call.callee = parse_method_ref(t[3]);
        if (t[4] != "_") {
            auto base = parse_local(t[4]);
            if (!base.ok()) return base.error();
            call.base = base.value();
        }
        call.args.reserve(t.size() - 5);
        for (std::size_t i = 5; i < t.size(); ++i) {
            auto arg = parse_operand(t[i]);
            if (!arg.ok()) return arg.error();
            call.args.push_back(std::move(arg).take());
        }
        return emit(std::move(call));
    }
    if (op == "if") {
        if (auto s = need(6); !s.ok()) return s.error();
        auto lhs = parse_operand(t[1]);
        auto cmp = parse_cmp(t[2]);
        auto rhs = parse_operand(t[3]);
        auto then_block = parse_block_ref(t[4]);
        auto else_block = parse_block_ref(t[5]);
        if (!lhs.ok()) return lhs.error();
        if (!cmp.ok()) return cmp.error();
        if (!rhs.ok()) return rhs.error();
        if (!then_block.ok()) return then_block.error();
        if (!else_block.ok()) return else_block.error();
        return emit(If{std::move(lhs).take(), cmp.value(), std::move(rhs).take(),
                       then_block.value(), else_block.value()});
    }
    if (op == "goto") {
        if (auto s = need(2); !s.ok()) return s.error();
        auto target = parse_block_ref(t[1]);
        if (!target.ok()) return target.error();
        return emit(Goto{target.value()});
    }
    if (op == "ret") {
        if (auto s = need(2); !s.ok()) return s.error();
        if (t[1] == "_") return emit(Return{});
        auto value = parse_operand(t[1]);
        if (!value.ok()) return value.error();
        return emit(Return{std::move(value).take()});
    }
    return bad("unknown statement mnemonic: ", op);
}

}  // namespace

Result<Program> parse_xapk(std::string_view input) {
    obs::Span span("xapk.parse_text", "xapk");
    static obs::Counter& lines_parsed = obs::counter("xapk.lines_parsed");
    Program program;
    Class* current_class = nullptr;
    Method* current_method = nullptr;
    BasicBlock* current_block = nullptr;
    // Views into `input`, reused by every line.
    std::vector<std::string_view> t;
    // The current block's statements, moved into it in one exact allocation
    // when the block ends.
    std::vector<Statement> pending;
    auto end_block = [&] {
        if (current_block) {
            current_block->statements.assign(std::make_move_iterator(pending.begin()),
                                             std::make_move_iterator(pending.end()));
        }
        pending.clear();
    };

    std::size_t line_number = 0;
    std::size_t pos = 0;
    while (pos <= input.size()) {
        std::size_t end = input.find('\n', pos);
        std::string_view raw =
            input.substr(pos, end == std::string_view::npos ? input.size() - pos : end - pos);
        pos = (end == std::string_view::npos) ? input.size() + 1 : end + 1;
        ++line_number;

        std::string_view line = strings::trim(raw);
        if (line.empty() || line[0] == '#') continue;
        auto fail = [&](const std::string& why) -> Result<Program> {
            return Error("xapk line " + std::to_string(line_number) + ": " + why);
        };
        if (!tokenize(line, t)) return fail("unterminated string literal");
        if (t.empty()) continue;

        std::string_view keyword = t[0];
        if (keyword == "xapk") {
            if (t.size() != 2 || t[1] != "1") return fail("unsupported xapk version");
        } else if (keyword == "app") {
            if (t.size() != 2 || !is_quoted(t[1])) return fail("app needs quoted name");
            program.app_name = unquote(t[1]);
        } else if (keyword == "resource") {
            if (t.size() != 3 || !is_quoted(t[2])) return fail("resource id \"value\"");
            program.resources.emplace_back(token_text(t[1]), unquote(t[2]));
        } else if (keyword == "event") {
            if (t.size() != 4 || !is_quoted(t[3])) return fail("event kind method \"label\"");
            auto kind = parse_event_kind(token_text(t[1]));
            if (!kind.ok()) return fail(kind.error().message);
            program.events.push_back({parse_method_ref(t[2]), kind.value(), unquote(t[3])});
        } else if (keyword == "class") {
            if (t.size() != 2 && !(t.size() == 4 && t[2] == "extends")) {
                return fail("class NAME [extends SUPER]");
            }
            end_block();
            Class cls;
            cls.name = token_text(t[1]);
            if (t.size() == 4) cls.super = token_text(t[3]);
            program.classes.push_back(std::move(cls));
            current_class = &program.classes.back();
            current_method = nullptr;
            current_block = nullptr;
        } else if (keyword == "field") {
            if (!current_class) return fail("field outside class");
            if (t.size() != 3) return fail("field NAME TYPE");
            current_class->fields.push_back({token_text(t[1]), token_text(t[2])});
        } else if (keyword == "method") {
            if (!current_class) return fail("method outside class");
            if (t.size() != 5) return fail("method NAME STATIC PARAMS RET");
            end_block();
            Method method;
            method.name = token_text(t[1]);
            method.class_name = current_class->name;
            method.is_static = t[2] == "1";
            auto params = parse_u32(t[3], "method param count");
            if (!params.ok()) return fail(params.error().message);
            method.param_count = params.value();
            method.return_type = token_text(t[4]);
            current_class->methods.push_back(std::move(method));
            current_method = &current_class->methods.back();
            current_block = nullptr;
        } else if (keyword == "local") {
            if (!current_method) return fail("local outside method");
            if (t.size() != 3) return fail("local NAME TYPE");
            current_method->locals.push_back({token_text(t[1]), token_text(t[2])});
        } else if (keyword == "block") {
            if (!current_method) return fail("block outside method");
            if (t.size() != 2) return fail("block INDEX");
            auto index = parse_u32(t[1], "block index");
            if (!index.ok()) return fail(index.error().message);
            if (index.value() != current_method->blocks.size()) {
                return fail("blocks must appear in order");
            }
            end_block();
            current_method->blocks.emplace_back();
            current_block = &current_method->blocks.back();
        } else {
            if (!current_block) return fail("statement outside block");
            if (auto s = parse_statement(t, pending); !s.ok()) return fail(s.error().message);
        }
    }

    end_block();
    program.reindex();
    if (auto status = xir::verify(program); !status.ok()) {
        return Error("parsed xapk failed verification: " + status.error().message);
    }
    lines_parsed.add(line_number);
    static obs::Counter& programs_parsed = obs::counter("xapk.programs_parsed");
    programs_parsed.add(1);
    span.finish();
    static obs::Histogram& parse_ms = obs::histogram("xapk.parse_ms");
    parse_ms.observe(span.seconds() * 1000.0);
    return program;
}

}  // namespace extractocol::xapk

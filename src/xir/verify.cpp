#include "xir/verify.hpp"

namespace extractocol::xir {

namespace {
Error method_error(const Method& m, const std::string& why) {
    return Error("method " + m.ref().qualified() + ": " + why);
}
}  // namespace

Status verify_method(const Method& method) {
    if (method.blocks.empty()) return method_error(method, "no blocks");
    if (method.param_count > method.locals.size()) {
        return method_error(method, "param_count exceeds locals");
    }
    const auto local_count = static_cast<LocalId>(method.locals.size());
    const auto block_count = static_cast<BlockId>(method.blocks.size());

    for (BlockId b = 0; b < block_count; ++b) {
        const auto& stmts = method.blocks[b].statements;
        if (stmts.empty() || !is_terminator(stmts.back())) {
            return method_error(method, "block b" + std::to_string(b) + " not terminated");
        }
        for (std::size_t i = 0; i < stmts.size(); ++i) {
            const Statement& stmt = stmts[i];
            if (is_terminator(stmt) && i + 1 != stmts.size()) {
                return method_error(method, "terminator mid-block in b" + std::to_string(b));
            }
            std::optional<LocalId> bad_use;
            for_each_use(stmt, [&](LocalId use) {
                if (!bad_use && use >= local_count) bad_use = use;
            });
            if (bad_use) {
                return method_error(method, "use of undeclared local $" +
                                                std::to_string(*bad_use) + " in " +
                                                to_display(stmt));
            }
            if (auto def = def_of(stmt); def && *def >= local_count) {
                return method_error(method,
                                    "def of undeclared local $" + std::to_string(*def));
            }
            if (const auto* branch = std::get_if<If>(&stmt)) {
                if (branch->then_block >= block_count || branch->else_block >= block_count) {
                    return method_error(method, "branch target out of range");
                }
            }
            if (const auto* jump = std::get_if<Goto>(&stmt)) {
                if (jump->target >= block_count) {
                    return method_error(method, "goto target out of range");
                }
            }
        }
    }
    return Status::success();
}

Status verify(const Program& program) {
    for (const auto& cls : program.classes) {
        for (const auto& method : cls.methods) {
            if (method.class_name != cls.name) {
                return Error("method " + method.name + " has stale class_name (reindex?)");
            }
            if (auto status = verify_method(method); !status.ok()) return status;
        }
    }
    for (const auto& event : program.events) {
        if (!program.find_method(event.handler)) {
            return Error("event handler not found: " + event.handler.qualified());
        }
    }
    return Status::success();
}

}  // namespace extractocol::xir

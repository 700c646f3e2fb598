// .xapk — the on-disk container standing in for an APK. It packages the
// app's IR "bytecode", manifest metadata (event registrations), and the
// resource table, in a line-oriented textual format with a full round-trip
// guarantee (write ∘ parse = identity). Extractocol's pipeline takes one of
// these as its *only* input, mirroring the paper's binary-only setting.
#pragma once

#include <string>
#include <string_view>

#include "support/result.hpp"
#include "xir/ir.hpp"

namespace extractocol::xapk {

/// Serializes a program to the .xapk text format.
std::string write_xapk(const xir::Program& program);

/// Parses a .xapk document; the returned program is reindexed and verified.
/// Tokens are views into `input`; a string is decoded or copied only when
/// it lands in the program. Every error reads "xapk line N: ..." (N is
/// 1-based), except a failed verification of the whole program.
Result<xir::Program> parse_xapk(std::string_view input);

}  // namespace extractocol::xapk

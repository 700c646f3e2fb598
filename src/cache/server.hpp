// Layer 2 of fleet-scale re-analysis: `extractocol --serve <socket>`, a
// long-lived daemon over a Unix domain socket. One process keeps the
// semantic model, interned strings, and the report cache warm; clients send
// newline-delimited JSON requests and get one JSON response line each:
//
//   -> {"id": 1, "file": "/abs/path/app.xapk"}
//   -> {"id": 2, "xapk": "<serialized app text>"}
//   -> {"op": "ping"}
//   -> {"op": "shutdown"}
//   <- {"id": 1, "ok": true, "file": "...", "cached": true, "report": {...}}
//   <- {"ok": false, "error": "..."}
//
// Misses run through Analyzer::analyze_batch (the daemon's --jobs pool) and
// render the public report once, for the response and the cache entry
// alike; hits splice those stored bytes into the response line without
// decoding or re-rendering (ReportCache::load_rendered). Each connection is
// served by its own thread, so concurrent clients racing on the same miss
// exercise the cache's atomic-rename last-writer-wins path. At most 64
// connections are served at once; one more gets a single
// `{"ok":false,"error":"busy: ..."}` line and is closed (`status` counts
// it under connections.rejected). Admin connections count against the
// cap: while it is full, status, metrics and shutdown requests get `busy`
// too, and only SIGTERM/SIGINT still reach the daemon. A `file` naming a FIFO or socket is
// refused ("not a regular file") rather than read. SIGTERM/SIGINT (or an
// {"op":"shutdown"} request) stop the accept loop via a self-pipe, drain
// open connections, and unlink the socket.
//
// Observability: every request gets a monotonic id, runs inside its own
// obs::RunScope, and becomes one obs::AppRunRecord — op, cache key,
// hit/miss, error, wall + per-phase seconds, response bytes — folded into
// the daemon's own obs::RequestTelemetry (tallies, lifetime latency and a
// one-minute sliding window), optionally appended to a JSONL access
// journal (--journal, size-rotated), and logged with a per-phase breakdown
// when slower than --slow-ms. The admin plane rides the same protocol:
//
//   -> {"op": "status"}                      <- {"ok":true,"status":{...}}
//   -> {"op": "metrics"}                     <- {"ok":true,"metrics":"<prom text>"}
//   -> {"op": "metrics", "format": "json"}   <- {"ok":true,"metrics":{...}}
//   -> {"op": "health"}                      <- {"ok":true,"healthy":true}
//
// Every daemon.* figure the status and metrics ops report — the counter
// tally of its requests' scope counts, the windows, latency, in-flight
// requests and open connections — belongs to this daemon alone, read in
// one snapshot, so it is a function of the requests it served, not of
// whatever else runs in the process. The metrics op adds the registry's
// other gauges and histograms. When tracing is on, each request records a
// "request.<op>" trace span on its connection's thread ("conn-<n>").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/analyzer.hpp"

namespace extractocol::cache {

struct ServeOptions {
    std::string socket_path;
    core::AnalyzerOptions analyzer;
    /// Persistent cache to serve from; nullopt = every request analyzes.
    std::optional<CacheOptions> cache;
    /// Access journal: one JSONL record per request (empty = no journal).
    std::string journal_path;
    /// Journal rotation threshold (see obs::JournalOptions).
    std::uint64_t journal_max_bytes = 64ull << 20;
    /// Log a per-phase breakdown for requests slower than this many
    /// milliseconds (negative = disabled; 0 logs every request).
    double slow_ms = -1;
};

/// Runs the daemon until SIGTERM/SIGINT or a shutdown request; returns the
/// process exit code (0 on clean shutdown, 1 on setup failure).
[[nodiscard]] int serve(const ServeOptions& options);

/// Client mode (`--connect`): sends one analysis request per file to a
/// running daemon and prints each raw JSON response line to stdout.
/// Retries the initial connect until `connect_timeout_seconds` so a test
/// can launch daemon and client back to back. Returns 0 iff every response
/// was ok.
[[nodiscard]] int connect_and_analyze(const std::string& socket_path,
                                      const std::vector<std::string>& files,
                                      double connect_timeout_seconds = 10.0);

/// Admin client (`--connect <sock> --status` / `--metrics-live`): sends one
/// admin op to a running daemon and prints the result to stdout — "status"
/// pretty-prints the daemon's status document, "metrics" prints the live
/// Prometheus text exposition verbatim. Returns 0 iff the daemon answered
/// ok (the error is printed to stderr otherwise).
[[nodiscard]] int connect_admin(const std::string& socket_path, const std::string& op,
                                double connect_timeout_seconds = 10.0);

}  // namespace extractocol::cache

#include "cache/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "text/json.hpp"

namespace extractocol::cache {

namespace {

// Self-pipe write end for the signal handlers. write() is async-signal-safe;
// the accept loop polls the read end. Set before handlers are installed.
// Atomic because daemons may serve concurrently in one process (tests do);
// a signal then wakes the most recently started one.
std::atomic<int> g_wake_fd{-1};

/// Largest request the daemon accepts, whether it arrives as one protocol
/// line or as the file a `file` request names.
constexpr std::size_t kMaxRequestBytes = 64u << 20;

/// Most connections served at once; the accept loop answers one more with
/// a `busy` error line and closes it. Admin connections count too: while
/// the cap is full, status, metrics and shutdown requests are refused the
/// same way, and only SIGTERM/SIGINT still stop the daemon.
constexpr std::size_t kMaxConnections = 64;

void wake_on_signal(int) {
    char byte = 'x';
    [[maybe_unused]] ssize_t n = ::write(g_wake_fd.load(), &byte, 1);
}

bool write_all(int fd, std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/// Open connections shared between the accept loop (shutdown broadcast)
/// and the per-connection threads (self-removal on close).
struct ConnectionSet {
    std::mutex mutex;
    std::vector<int> fds;

    /// Registers `fd` unless kMaxConnections are already open.
    bool try_add(int fd) {
        std::lock_guard<std::mutex> lock(mutex);
        if (fds.size() >= kMaxConnections) return false;
        fds.push_back(fd);
        return true;
    }
    void remove(int fd) {
        std::lock_guard<std::mutex> lock(mutex);
        fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
    }
    std::int64_t active() {
        std::lock_guard<std::mutex> lock(mutex);
        return static_cast<std::int64_t>(fds.size());
    }
    void shutdown_all() {
        std::lock_guard<std::mutex> lock(mutex);
        // SHUT_RDWR unblocks any read()/write() in flight; the connection
        // threads then fall out of their loops and close their fds.
        for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
    }
};

/// Per-connection threads with self-reported completion, so the accept loop
/// can reap finished threads as it goes. A long-lived daemon must not keep
/// one joinable std::thread per connection ever accepted: a finished but
/// unjoined thread retains its pthread resources (stack included) until the
/// join, which would grow the process without bound with connection count.
struct WorkerSet {
    std::mutex mutex;
    std::map<std::thread::id, std::thread> active;
    std::vector<std::thread::id> finished;

    void add(std::thread worker) {
        std::thread::id id = worker.get_id();
        std::lock_guard<std::mutex> lock(mutex);
        active.emplace(id, std::move(worker));
    }
    /// Called by a connection thread as its last act before returning.
    void mark_finished(std::thread::id id) {
        std::lock_guard<std::mutex> lock(mutex);
        finished.push_back(id);
    }
    /// Joins every thread that announced completion. Joining under the lock
    /// is safe: a finished thread never takes the lock again. An id not yet
    /// in `active` (its spawner lost the registration race) stays queued
    /// for the next pass.
    void reap() {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<std::thread::id> pending;
        for (std::thread::id id : finished) {
            auto it = active.find(id);
            if (it == active.end()) {
                pending.push_back(id);
                continue;
            }
            it->second.join();
            active.erase(it);
        }
        finished = std::move(pending);
    }
    /// Shutdown drain. Threads may still be running, so they are joined
    /// OUTSIDE the lock — a running thread needs it for mark_finished.
    void join_all() {
        std::map<std::thread::id, std::thread> taken;
        {
            std::lock_guard<std::mutex> lock(mutex);
            taken.swap(active);
            finished.clear();
        }
        for (auto& [id, worker] : taken) worker.join();
    }
};

struct ServerState {
    const core::Analyzer* analyzer = nullptr;
    const core::AnalyzerOptions* analyzer_options = nullptr;
    ReportCache* cache = nullptr;
    int wake_fd = -1;  // shutdown-request path (same pipe as the signals)

    // --- observability (PR 10) ---
    obs::RequestTelemetry* telemetry = nullptr;
    obs::Journal* journal = nullptr;  // nullable: --journal not given
    double slow_ms = -1;              // negative = slow logging disabled
    std::chrono::steady_clock::time_point started{};
    std::atomic<std::uint64_t> connections_rejected{0};
    /// One id per accepted connection, so the last one handed out is also
    /// the count of connections accepted.
    std::atomic<std::uint64_t> next_connection_id{0};
    ConnectionSet connections;
};

/// The status op's document (see server.hpp). Volatile fields — pid,
/// uptime, ids, latency measurements — are what the determinism test
/// normalizes; everything else is a function of the requests served.
text::Json status_json(ServerState& state) {
    const obs::RequestStats stats = state.telemetry->snapshot();
    text::Json doc = text::Json::object();
    doc.set("analyzer", text::Json(std::string(core::kAnalyzerVersion)));
    doc.set("pid", text::Json(static_cast<std::int64_t>(::getpid())));
    double uptime = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  state.started)
                        .count();
    doc.set("uptime_seconds", text::Json(uptime));

    text::Json requests = text::Json::object();
    auto count = [](std::uint64_t n) { return text::Json(static_cast<std::int64_t>(n)); };
    requests.set("served", count(stats.counter("daemon.requests")));
    requests.set("errors", count(stats.counter("daemon.request_errors")));
    // The request asking is itself still in flight, so this is >= 1.
    requests.set("inflight", text::Json(stats.inflight));
    text::Json ops = text::Json::object();
    for (const auto& [op, count] : stats.ops) {
        ops.set(op, text::Json(static_cast<std::int64_t>(count)));
    }
    requests.set("ops", std::move(ops));
    doc.set("requests", std::move(requests));

    text::Json connections = text::Json::object();
    connections.set("active", text::Json(state.connections.active()));
    connections.set("accepted",
                    text::Json(static_cast<std::int64_t>(
                        state.next_connection_id.load(std::memory_order_relaxed))));
    connections.set("rejected",
                    text::Json(static_cast<std::int64_t>(
                        state.connections_rejected.load(std::memory_order_relaxed))));
    doc.set("connections", std::move(connections));

    text::Json latency = text::Json::object();
    latency.set("window_seconds", text::Json(stats.window_seconds));
    latency.set("lifetime", obs::histogram_stats_json(stats.latency_ms));
    latency.set("window", obs::histogram_stats_json(stats.window.latency_ms));
    doc.set("latency_ms", std::move(latency));

    if (state.cache != nullptr) {
        text::Json cache = state.cache->stats_json();
        cache.set("window_hits", count(stats.window.hits));
        cache.set("window_misses", count(stats.window.misses));
        doc.set("cache", std::move(cache));
    } else {
        doc.set("cache", text::Json());
    }
    return doc;
}

text::Json error_response(const text::Json* id, const std::string& message) {
    text::Json response = text::Json::object();
    if (id != nullptr) response.set("id", *id);
    response.set("ok", text::Json(false));
    response.set("error", text::Json(message));
    return response;
}

/// Reads the file a `file` request names, at most kMaxRequestBytes of it.
/// The open never blocks and FIFOs and sockets are refused: reading one
/// waits on a writer that may never come, which would hang the connection.
/// Returns the error message, or an empty string with `text` filled.
std::string read_request_file(const std::string& path, std::string& text) {
    int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0) {
        // open(2) reports a socket as ENXIO.
        return errno == ENXIO ? "not a regular file: " + path : "cannot open " + path;
    }
    std::string error;
    struct stat info {};
    if (::fstat(fd, &info) != 0) {
        error = "cannot open " + path;
    } else if (S_ISFIFO(info.st_mode) || S_ISSOCK(info.st_mode)) {
        error = "not a regular file: " + path;
    }
    // Bounded read: a named device such as /dev/zero never ends. The text
    // is allocated once, for a regular file's size or else for the cap
    // (pages are only touched as data arrives).
    char chunk[1 << 16];
    if (error.empty()) {
        std::size_t expected = kMaxRequestBytes;
        if (S_ISREG(info.st_mode)) {
            expected = std::min(static_cast<std::size_t>(info.st_size), kMaxRequestBytes);
        }
        text.reserve(expected + sizeof chunk);
    }
    while (error.empty()) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
            error = "cannot read " + path + ": " + std::strerror(errno);
        } else if (n == 0) {
            break;
        } else {
            text.append(chunk, static_cast<std::size_t>(n));
            if (text.size() > kMaxRequestBytes) error = "file too large: " + path;
        }
    }
    ::close(fd);
    return error;
}

/// A response in two parts: `head` holds every member but the report, and
/// `report`, when non-empty, is the compact rendering of the report that
/// follows as the last member. run_request splices them into the bytes
/// `head.dump()` would give with `"report"` set last, without parsing or
/// re-rendering the report (a cache hit serves its stored bytes).
struct Reply {
    Reply() = default;
    Reply(text::Json head_doc) : head(std::move(head_doc)) {}  // NOLINT: implicit
    text::Json head;
    std::string report;
};

/// Handles one request line; returns the response, sets `shutdown` when the
/// daemon should stop after responding, and fills the telemetry skeleton of
/// `record` (op, file, key, cached, and the analysis fields). The caller
/// derives error/wall/bytes from the response it is about to write, so the
/// error paths here stay single-line.
Reply handle_request(ServerState& state, const std::string& line, bool& shutdown,
                     obs::AppRunRecord& record) {
    Result<text::Json> parsed = text::parse_json(line);
    if (!parsed.ok()) {
        return error_response(nullptr, "bad request: " + parsed.error().message);
    }
    text::Json request = std::move(parsed).take();
    if (!request.is_object()) return error_response(nullptr, "bad request: not an object");
    const text::Json* id = request.find("id");

    if (const text::Json* op = request.find("op")) {
        if (!op->is_string()) return error_response(id, "bad request: 'op' must be a string");
        const std::string& name = op->as_string();
        text::Json response = text::Json::object();
        if (id != nullptr) response.set("id", *id);
        if (name == "ping") {
            record.op = "ping";
            response.set("ok", text::Json(true));
            response.set("pong", text::Json(true));
            // Echo identity so a client can assert which daemon (and which
            // analyzer vintage) answered before trusting cached reports.
            response.set("version", text::Json(std::string(core::kAnalyzerVersion)));
            response.set("pid", text::Json(static_cast<std::int64_t>(::getpid())));
            response.set("cache", state.cache != nullptr ? state.cache->stats_json()
                                                         : text::Json());
            return response;
        }
        if (name == "status") {
            record.op = "status";
            response.set("ok", text::Json(true));
            response.set("status", status_json(state));
            return response;
        }
        if (name == "metrics") {
            record.op = "metrics";
            std::string format = "prometheus";
            if (const text::Json* f = request.find("format")) {
                if (!f->is_string()) {
                    return error_response(id, "bad request: 'format' must be a string");
                }
                format = f->as_string();
            }
            if (format != "prometheus" && format != "json") {
                return error_response(id,
                                   "bad request: unknown metrics format '" + format + "'");
            }
            // This daemon's counters and series, next to the registry's
            // live gauges and histograms.
            obs::MetricsSnapshot metrics = state.telemetry->snapshot().merged_into(
                obs::MetricsRegistry::global().snapshot(), state.connections.active());
            response.set("ok", text::Json(true));
            response.set("format", text::Json(format));
            if (format == "prometheus") {
                response.set("metrics", text::Json(metrics.to_prometheus()));
            } else {
                response.set("metrics", metrics.to_json());
            }
            return response;
        }
        if (name == "health") {
            record.op = "health";
            response.set("ok", text::Json(true));
            response.set("healthy", text::Json(true));
            return response;
        }
        if (name == "shutdown") {
            record.op = "shutdown";
            shutdown = true;
            response.set("ok", text::Json(true));
            response.set("shutdown", text::Json(true));
            return response;
        }
        // Unknown ops stay op="invalid" in telemetry: the tally and journal
        // must not grow one bucket per misspelling a client invents.
        return error_response(id, "bad request: unknown op '" + name + "'");
    }

    std::string label;
    std::string text;
    if (const text::Json* file = request.find("file")) {
        if (!file->is_string()) return error_response(id, "bad request: 'file' must be a string");
        record.op = "file";
        label = file->as_string();
        record.file = label;
        std::string error = read_request_file(label, text);
        if (!error.empty()) return error_response(id, error);
    } else if (text::Json* xapk = request.find("xapk")) {
        if (!xapk->is_string()) return error_response(id, "bad request: 'xapk' must be a string");
        record.op = "xapk";
        label = "<inline>";
        record.file = label;
        text = std::move(xapk->as_string());  // the request is done with it
    } else {
        return error_response(id, "bad request: expected 'file', 'xapk', or 'op'");
    }

    Reply reply;
    reply.head = text::Json::object();
    if (id != nullptr) reply.head.set("id", *id);
    if (state.cache != nullptr) {
        record.key = ReportCache::key_for(text);
        if (std::optional<RenderedHit> hit = state.cache->load_rendered(record.key)) {
            record.cached = true;
            record.phases = std::move(hit->phases);
            record.peak_bytes = hit->peak_bytes;
            reply.head.set("ok", text::Json(true));
            reply.head.set("file", text::Json(label));
            reply.head.set("cached", text::Json(true));
            reply.report = std::move(hit->report);
            return reply;
        }
    }

    std::vector<core::BatchInput> inputs(1);
    inputs[0].file = label;
    inputs[0].text = std::move(text);
    std::vector<core::BatchItem> items = state.analyzer->analyze_batch(std::move(inputs));
    const core::BatchItem& item = items[0];
    record = core::telemetry_record(item, *state.analyzer_options, std::move(record));
    if (!item.ok()) {
        reply.head.set("ok", text::Json(false));
        reply.head.set("file", text::Json(item.file));
        reply.head.set("error", text::Json(item.error));
        return reply;
    }
    // Rendered once: the same bytes answer this miss and every later hit.
    // Errors are never cached: a contained failure must re-analyze next time.
    reply.report = item.report->to_json().dump();
    if (state.cache != nullptr) state.cache->store(record.key, *item.report, reply.report);
    reply.head.set("ok", text::Json(true));
    reply.head.set("file", text::Json(item.file));
    reply.head.set("cached", text::Json(false));
    return reply;
}

/// Renders "parse=1.2ms taint=3.4ms ..." for the slow-request log line.
std::string phase_breakdown(const std::vector<obs::PhaseTiming>& phases) {
    std::string out;
    char buf[64];
    for (const obs::PhaseTiming& phase : phases) {
        std::snprintf(buf, sizeof buf, "%s%s=%.3fms", out.empty() ? "" : " ",
                      phase.name.c_str(), phase.seconds * 1000.0);
        out += buf;
    }
    return out;
}

/// Runs one request end to end: telemetry id, run scope, timing, trace
/// span, journal line, slow log. Returns the serialized response (newline
/// included).
std::string run_request(ServerState& state, std::uint64_t connection_id,
                        const std::string& line, bool& shutdown) {
    obs::AppRunRecord record;
    record.request_id = state.telemetry->next_request_id();
    record.connection_id = connection_id;
    record.op = "invalid";
    // Every counter the request bumps, on this thread or on the analysis
    // workers, lands in this scope and from there in the daemon's tally.
    obs::RunScope scope;
    auto start = std::chrono::steady_clock::now();
    Reply reply = handle_request(state, line, shutdown, record);
    auto end = std::chrono::steady_clock::now();
    auto counters = scope.close().counters;
    std::string payload = reply.head.dump();
    if (!reply.report.empty()) {
        // `"report":<bytes>` joins as the last member: exactly the dump of
        // the whole response with the report set last.
        payload.pop_back();  // the head's closing '}'
        payload.reserve(payload.size() + reply.report.size() + 12);
        payload += ",\"report\":";
        payload += reply.report;
        payload += '}';
    }
    payload += '\n';  // compact dump has no raw newlines: one response = one line

    record.wall_seconds = std::chrono::duration<double>(end - start).count();
    record.response_bytes = payload.size();
    if (const text::Json* error = reply.head.find("error");
        error != nullptr && error->is_string()) {
        record.error = error->as_string();
    }

    obs::TraceRecorder& tracer = obs::TraceRecorder::global();
    if (tracer.enabled()) {
        obs::TraceEvent event;
        event.name = "request." + record.op;  // bounded name set: ops, not ids
        event.category = "daemon";
        event.start_us = tracer.to_us(start);
        event.duration_us = tracer.to_us(end) - event.start_us;
        event.thread = tracer.thread_number();
        tracer.record(std::move(event));
    }
    state.telemetry->record(record, counters);
    if (state.journal != nullptr) state.journal->append(record.journal_json());
    double ms = record.wall_seconds * 1000.0;
    if (state.slow_ms >= 0 && ms >= state.slow_ms) {
        log::warn()
                .kv("request", record.request_id)
                .kv("connection", record.connection_id)
                .kv("op", record.op)
                .kv("ms", ms)
                .kv("cached", record.cached ? "true" : "false")
                .kv("phases", phase_breakdown(record.phases))
            << "daemon: slow request";
    }
    return payload;
}

void serve_connection(ServerState& state, int fd) {
    std::uint64_t connection_id =
        state.next_connection_id.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::TraceRecorder& tracer = obs::TraceRecorder::global();
    if (tracer.enabled()) {
        // One labeled Perfetto row per connection, so request spans carry
        // their connection attribution without per-span payloads.
        tracer.name_current_thread("conn-" + std::to_string(connection_id));
    }
    // Framing is linear in the bytes received: each read scans only its new
    // bytes for newlines, and the consumed lines leave the buffer in one
    // erase per read.
    std::string buffer;
    char chunk[4096];
    bool shutdown = false;
    bool dead = false;
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;  // client closed (or shutdown_all unblocked us)
        std::size_t scan = buffer.size();
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t line_start = 0;
        std::size_t newline = 0;
        while ((newline = buffer.find('\n', scan)) != std::string::npos) {
            std::string line = buffer.substr(line_start, newline - line_start);
            line_start = scan = newline + 1;
            if (line.empty()) continue;
            std::string payload = run_request(state, connection_id, line, shutdown);
            bool sent = write_all(fd, payload);
            if (shutdown) {
                char byte = 'x';
                [[maybe_unused]] ssize_t w = ::write(state.wake_fd, &byte, 1);
            }
            if (!sent || shutdown) {
                dead = true;
                break;
            }
        }
        buffer.erase(0, line_start);
        // A "line" past the cap with no newline is not a protocol client.
        if (dead || buffer.size() > kMaxRequestBytes) break;
    }
    state.connections.remove(fd);
    ::close(fd);
}

}  // namespace

int serve(const ServeOptions& options) {
    const std::string& path = options.socket_path;
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "error: socket path too long: %s\n", path.c_str());
        return 1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    // A leftover socket file from a crashed daemon would make bind() fail.
    // Probe it: a live daemon accepts the connect (refuse to double-bind);
    // a dead one refuses, and the stale file is unlinked.
    if (std::filesystem::exists(path)) {
        int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe >= 0) {
            int rc = ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
            ::close(probe);
            if (rc == 0) {
                std::fprintf(stderr, "error: %s already has a live daemon\n",
                             path.c_str());
                return 1;
            }
        }
        ::unlink(path.c_str());
    }

    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
        return 1;
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd, 16) != 0) {
        std::fprintf(stderr, "error: cannot listen on %s: %s\n", path.c_str(),
                     std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }

    int wake[2] = {-1, -1};
    if (::pipe(wake) != 0) {
        std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
        ::close(listen_fd);
        ::unlink(path.c_str());
        return 1;
    }
    g_wake_fd = wake[1];

    struct sigaction wake_action{};
    wake_action.sa_handler = wake_on_signal;
    sigemptyset(&wake_action.sa_mask);
    struct sigaction old_term{}, old_int{}, old_pipe{};
    struct sigaction ignore_action{};
    ignore_action.sa_handler = SIG_IGN;
    sigemptyset(&ignore_action.sa_mask);
    ::sigaction(SIGTERM, &wake_action, &old_term);
    ::sigaction(SIGINT, &wake_action, &old_int);
    // A client vanishing mid-response must not kill the daemon.
    ::sigaction(SIGPIPE, &ignore_action, &old_pipe);

    // Built once, shared by every request: the warm semantic model and
    // interned strings are the daemon's whole point. No progress callback —
    // the daemon's stderr is a log, not a terminal.
    core::AnalyzerOptions analyzer_options = options.analyzer;
    analyzer_options.batch_progress = nullptr;
    core::Analyzer analyzer(analyzer_options);
    std::unique_ptr<ReportCache> cache;
    if (options.cache) cache = std::make_unique<ReportCache>(*options.cache);
    obs::RequestTelemetry telemetry;
    std::unique_ptr<obs::Journal> journal;
    if (!options.journal_path.empty()) {
        obs::JournalOptions journal_options;
        journal_options.path = options.journal_path;
        journal_options.max_bytes = options.journal_max_bytes;
        journal = std::make_unique<obs::Journal>(std::move(journal_options));
    }

    ServerState state;
    state.analyzer = &analyzer;
    state.analyzer_options = &analyzer_options;
    state.cache = cache.get();
    state.wake_fd = wake[1];
    state.telemetry = &telemetry;
    state.journal = journal.get();
    state.slow_ms = options.slow_ms;
    state.started = std::chrono::steady_clock::now();

    WorkerSet workers;
    const std::string busy =
        error_response(nullptr, "busy: " + std::to_string(kMaxConnections) +
                                    " connections already open")
            .dump() +
        "\n";

    log::info().kv("socket", path).kv("jobs", analyzer_options.jobs)
        << "cache: daemon listening";

    for (;;) {
        // Reclaim finished connection threads before (possibly) blocking in
        // poll, so idle periods don't pin completed threads either.
        workers.reap();
        pollfd fds[2] = {{wake[0], POLLIN, 0}, {listen_fd, POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[0].revents != 0) break;  // signal or shutdown request
        if ((fds[1].revents & POLLIN) == 0) continue;
        int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (!state.connections.try_add(conn)) {
            // Over the cap: one error line, then close. The send never
            // blocks the accept loop; the line fits an empty socket buffer.
            state.connections_rejected.fetch_add(1, std::memory_order_relaxed);
            [[maybe_unused]] ssize_t n =
                ::send(conn, busy.data(), busy.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
            ::close(conn);
            continue;
        }
        workers.add(std::thread([&state, &workers, conn] {
            serve_connection(state, conn);
            workers.mark_finished(std::this_thread::get_id());
        }));
    }

    // Clean shutdown: stop accepting, unblock in-flight connections, drain.
    ::close(listen_fd);
    ::unlink(path.c_str());
    state.connections.shutdown_all();
    workers.join_all();
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    int own_wake_fd = wake[1];
    g_wake_fd.compare_exchange_strong(own_wake_fd, -1);
    ::close(wake[0]);
    ::close(wake[1]);
    const obs::RequestStats stats = telemetry.snapshot();
    if (cache) {
        CacheStats s = cache->stats();
        log::info()
                .kv("requests", stats.counter("daemon.requests"))
                .kv("errors", stats.counter("daemon.request_errors"))
                .kv("hits", s.hits)
                .kv("misses", s.misses)
                .kv("corrupt_entries", s.corrupt_entries)
            << "cache: daemon stopped";
    } else {
        log::info()
                .kv("requests", stats.counter("daemon.requests"))
                .kv("errors", stats.counter("daemon.request_errors"))
            << "cache: daemon stopped";
    }
    return 0;
}

namespace {

/// Connects to a daemon socket, retrying until the timeout: tests (and
/// scripts) start daemon + client back to back, and the daemon needs a
/// moment to bind. Returns the fd, or -1 with the error already printed.
int connect_with_retry(const std::string& socket_path, double timeout_seconds) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "error: socket path too long: %s\n", socket_path.c_str());
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
        return -1;
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_seconds);
    while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        if (std::chrono::steady_clock::now() >= deadline) {
            std::fprintf(stderr, "error: cannot connect to %s: %s\n",
                         socket_path.c_str(), std::strerror(errno));
            ::close(fd);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return fd;
}

/// Reads one newline-terminated response into `line` (carrying partial data
/// across calls in `buffer`). Returns false with the error printed when the
/// daemon closes first.
bool read_response_line(int fd, std::string& buffer, std::string& line) {
    char chunk[4096];
    std::size_t scan = 0;  // bytes already searched for the newline
    std::size_t newline = 0;
    while ((newline = buffer.find('\n', scan)) == std::string::npos) {
        scan = buffer.size();
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            std::fprintf(stderr, "error: daemon closed the connection\n");
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    return true;
}

}  // namespace

int connect_and_analyze(const std::string& socket_path,
                        const std::vector<std::string>& files,
                        double connect_timeout_seconds) {
    int fd = connect_with_retry(socket_path, connect_timeout_seconds);
    if (fd < 0) return 1;

    int exit_code = 0;
    std::string buffer;
    for (std::size_t i = 0; i < files.size(); ++i) {
        // Absolute paths: the daemon resolves them from its own cwd.
        std::error_code ec;
        std::filesystem::path absolute = std::filesystem::absolute(files[i], ec);
        text::Json request = text::Json::object();
        request.set("id", text::Json(static_cast<std::int64_t>(i + 1)));
        request.set("file", text::Json(ec ? files[i] : absolute.string()));
        if (!write_all(fd, request.dump() + "\n")) {
            std::fprintf(stderr, "error: daemon connection lost\n");
            ::close(fd);
            return 1;
        }
        std::string line;
        if (!read_response_line(fd, buffer, line)) {
            ::close(fd);
            return 1;
        }
        std::printf("%s\n", line.c_str());
        Result<text::Json> response = text::parse_json(line);
        const text::Json* ok =
            response.ok() && response.value().is_object() ? response.value().find("ok")
                                                          : nullptr;
        if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) exit_code = 1;
    }
    ::close(fd);
    return exit_code;
}

int connect_admin(const std::string& socket_path, const std::string& op,
                  double connect_timeout_seconds) {
    int fd = connect_with_retry(socket_path, connect_timeout_seconds);
    if (fd < 0) return 1;

    text::Json request = text::Json::object();
    request.set("op", text::Json(op));
    // The admin client's metrics view is the scrape format; the JSON form
    // stays reachable through the raw protocol.
    if (op == "metrics") request.set("format", text::Json("prometheus"));
    if (!write_all(fd, request.dump() + "\n")) {
        std::fprintf(stderr, "error: daemon connection lost\n");
        ::close(fd);
        return 1;
    }
    std::string buffer;
    std::string line;
    if (!read_response_line(fd, buffer, line)) {
        ::close(fd);
        return 1;
    }
    ::close(fd);

    Result<text::Json> parsed = text::parse_json(line);
    if (!parsed.ok() || !parsed.value().is_object()) {
        std::fprintf(stderr, "error: bad daemon response: %s\n", line.c_str());
        return 1;
    }
    const text::Json& response = parsed.value();
    const text::Json* ok = response.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        const text::Json* error = response.find("error");
        std::fprintf(stderr, "error: %s\n",
                     error != nullptr && error->is_string() ? error->as_string().c_str()
                                                            : line.c_str());
        return 1;
    }
    if (op == "status") {
        const text::Json* status = response.find("status");
        if (status == nullptr) {
            std::fprintf(stderr, "error: response carries no status: %s\n", line.c_str());
            return 1;
        }
        std::printf("%s\n", status->dump_pretty().c_str());
        return 0;
    }
    const text::Json* metrics = response.find("metrics");
    if (metrics == nullptr || !metrics->is_string()) {
        std::fprintf(stderr, "error: response carries no metrics text: %s\n",
                     line.c_str());
        return 1;
    }
    // The exposition text already ends each sample with '\n'.
    std::fputs(metrics->as_string().c_str(), stdout);
    return 0;
}

}  // namespace extractocol::cache

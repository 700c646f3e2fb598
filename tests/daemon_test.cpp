// In-process daemon observability tests (PR 10): the --serve admin plane
// (ping/status/metrics/health), per-request telemetry, the JSONL access
// journal with rotation, and slow-request logging. serve() runs on a test
// thread against a temp Unix socket; clients are raw sockets, so these
// tests exercise the real protocol path end to end. The stress test drives
// N concurrent clients with mixed ops and is the intended tsan workload:
// request records, journal appends, the telemetry ring, and the in-flight
// and connection counts all race here if they can race at all.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/server.hpp"
#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "daemon_harness.hpp"
#include "obs/metrics.hpp"
#include "support/log.hpp"
#include "text/json.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;
using extractocol::testing::DaemonFixture;
using extractocol::testing::TempDir;
namespace fs = std::filesystem;
using text::Json;

namespace {

cache::ServeOptions base_options(const TempDir& dir) {
    cache::ServeOptions options;
    options.socket_path = (dir.path / "daemon.sock").string();
    options.analyzer.jobs = 1;
    return options;
}

/// Serialized corpus app text for inline {"xapk": ...} requests.
std::string corpus_text(const std::string& name) {
    corpus::CorpusApp app = corpus::build_app(name);
    return xapk::write_xapk(app.program);
}

std::string xapk_request(const std::string& text, int id) {
    Json request = Json::object();
    request.set("id", Json(static_cast<std::int64_t>(id)));
    request.set("xapk", Json(text));
    return request.dump();
}

std::vector<Json> read_journal(const fs::path& path) {
    return extractocol::testing::read_journal_file(path);
}

bool ok_of(const Json& response) { return extractocol::testing::response_ok(response); }

bool write_bytes(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/// Reads `count` response lines, in arrival order (null Json for a line
/// that does not parse; fewer lines when the daemon closes first).
std::vector<Json> read_responses(int fd, std::size_t count) {
    std::vector<Json> out;
    std::string buffer;
    char chunk[4096];
    while (out.size() < count) {
        std::size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
            auto parsed = text::parse_json(std::string_view(buffer).substr(0, newline));
            out.push_back(parsed.ok() ? parsed.value() : Json());
            buffer.erase(0, newline + 1);
            continue;
        }
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
}

std::int64_t id_of(const Json& response) {
    const Json* id = response.is_object() ? response.find("id") : nullptr;
    return id != nullptr && id->is_int() ? id->as_int() : -1;
}

}  // namespace

TEST(DaemonTest, HostileNestingGetsAnErrorAndTheDaemonLives) {
    TempDir dir("nesting");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    Json rejected = DaemonFixture::request(fd, std::string(1'000'000, '['));
    ASSERT_TRUE(rejected.is_object());
    EXPECT_FALSE(ok_of(rejected));
    EXPECT_NE(rejected.find("error")->as_string().find("nesting"), std::string::npos);
    // Same connection, same daemon: it still answers.
    EXPECT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));
    ::close(fd);
    fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));
    ::close(fd);
}

TEST(DaemonTest, EndlessFileGetsAnErrorWithinTheRequestCap) {
    TempDir dir("endless_file");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    auto start = std::chrono::steady_clock::now();
    Json rejected = DaemonFixture::request(fd, R"({"id":1,"file":"/dev/zero"})");
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_TRUE(rejected.is_object());
    EXPECT_FALSE(ok_of(rejected));
    EXPECT_NE(rejected.find("error")->as_string().find("file too large"),
              std::string::npos);
    EXPECT_LT(seconds, 1.0);
    // Same connection: the daemon still answers.
    EXPECT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));
    ::close(fd);
}

TEST(DaemonTest, FifoFileGetsAnErrorInsteadOfHanging) {
    // A FIFO with no writer would block a plain open() or read() forever;
    // the daemon refuses it at once and keeps the connection.
    TempDir dir("fifo");
    fs::path fifo = dir.path / "no_writer.fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    Json request = Json::object();
    request.set("id", Json(1));
    request.set("file", Json(fifo.string()));
    auto start = std::chrono::steady_clock::now();
    Json rejected = DaemonFixture::request(fd, request.dump());
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_TRUE(rejected.is_object());
    EXPECT_FALSE(ok_of(rejected));
    EXPECT_NE(rejected.find("error")->as_string().find("not a regular file"),
              std::string::npos);
    EXPECT_LT(seconds, 1.0);
    EXPECT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));
    ::close(fd);
}

TEST(DaemonTest, ConnectionPastTheCapGetsBusyThenEof) {
    TempDir dir("conn_cap");
    DaemonFixture daemon(base_options(dir));
    constexpr int kCap = 64;
    std::vector<int> held;
    for (int i = 0; i < kCap; ++i) {
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0) << "connection " << i;
        held.push_back(fd);
    }
    // The accept loop takes connections in order, so these 64 are open
    // when it reaches the next one.
    ASSERT_TRUE(ok_of(DaemonFixture::request(held.back(), R"({"op":"ping"})")));
    int extra = daemon.connect_fd();
    ASSERT_GE(extra, 0);
    std::vector<Json> busy = read_responses(extra, 2);  // one line, then EOF
    ASSERT_EQ(busy.size(), 1u);
    EXPECT_FALSE(ok_of(busy[0]));
    EXPECT_EQ(busy[0].find("error")->as_string().rfind("busy: ", 0), 0u);
    ::close(extra);

    // Once one closes, a new connection is served (after the daemon has
    // seen the close, hence the retry).
    ::close(held.back());
    held.pop_back();
    bool served = false;
    for (int attempt = 0; attempt < 200 && !served; ++attempt) {
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0);
        served = ok_of(DaemonFixture::request(fd, R"({"op":"ping"})"));
        ::close(fd);
        if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(served);

    Json status = DaemonFixture::request(held.front(), R"({"op":"status"})");
    ASSERT_TRUE(ok_of(status));
    EXPECT_GE(status.find("status")->find("connections")->find("rejected")->as_int(), 1);
    for (int fd : held) ::close(fd);
    // Wait for the daemon to see the closes, so the fixture's shutdown
    // request gets a slot.
    for (int attempt = 0; attempt < 200; ++attempt) {
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0);
        Json probe = DaemonFixture::request(fd, R"({"op":"status"})");
        ::close(fd);
        if (ok_of(probe) &&
            probe.find("status")->find("connections")->find("active")->as_int() == 1) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

TEST(DaemonTest, PipelinedAndByteSplitRequestsAreAnsweredInOrder) {
    TempDir dir("framing");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    // Three requests in one write.
    ASSERT_TRUE(write_bytes(fd, "{\"id\":1,\"op\":\"ping\"}\n"
                                "{\"id\":2,\"op\":\"health\"}\n"
                                "{\"id\":3,\"op\":\"ping\"}\n"));
    std::vector<Json> pipelined = read_responses(fd, 3);
    ASSERT_EQ(pipelined.size(), 3u);
    for (std::size_t i = 0; i < pipelined.size(); ++i) {
        EXPECT_TRUE(ok_of(pipelined[i]));
        EXPECT_EQ(id_of(pipelined[i]), static_cast<std::int64_t>(i + 1));
    }
    // One request, one byte per write, then two more whose bytes share
    // writes with each other.
    for (char byte : std::string("{\"id\":4,\"op\":\"ping\"}\n")) {
        ASSERT_TRUE(write_bytes(fd, std::string_view(&byte, 1)));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(write_bytes(fd, "{\"id\":5,\"op\":\"pi"));
    ASSERT_TRUE(write_bytes(fd, "ng\"}\n{\"id\":6,\"op\":\"health\"}"));
    ASSERT_TRUE(write_bytes(fd, "\n"));
    std::vector<Json> split = read_responses(fd, 3);
    ASSERT_EQ(split.size(), 3u);
    for (std::size_t i = 0; i < split.size(); ++i) {
        EXPECT_TRUE(ok_of(split[i]));
        EXPECT_EQ(id_of(split[i]), static_cast<std::int64_t>(i + 4));
    }
    ::close(fd);
}

TEST(DaemonTest, PingEchoesVersionAndPid) {
    TempDir dir("ping");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    Json response = DaemonFixture::request(fd, R"({"op":"ping"})");
    ::close(fd);
    ASSERT_TRUE(ok_of(response));
    EXPECT_TRUE(response.find("pong")->as_bool());
    // The daemon runs in this process, so the echo is checkable exactly.
    EXPECT_EQ(response.find("version")->as_string(), core::kAnalyzerVersion);
    EXPECT_EQ(response.find("pid")->as_int(), static_cast<std::int64_t>(::getpid()));
}

TEST(DaemonTest, HealthAndUnknownOps) {
    TempDir dir("health");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    Json health = DaemonFixture::request(fd, R"({"op":"health"})");
    ASSERT_TRUE(ok_of(health));
    EXPECT_TRUE(health.find("healthy")->as_bool());
    Json unknown = DaemonFixture::request(fd, R"({"op":"frobnicate"})");
    EXPECT_FALSE(ok_of(unknown));
    Json bad_format = DaemonFixture::request(fd, R"({"op":"metrics","format":"xml"})");
    EXPECT_FALSE(ok_of(bad_format));
    ::close(fd);
}

TEST(DaemonTest, StatusReportsRequestsCacheAndLatencyWindow) {
    TempDir dir("status");
    cache::ServeOptions options = base_options(dir);
    cache::CacheOptions cache_options;
    cache_options.dir = (dir.path / "cache").string();
    options.cache = cache_options;
    DaemonFixture daemon(options);

    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    std::string text = corpus_text("blippex");
    Json cold = DaemonFixture::request(fd, xapk_request(text, 1));
    ASSERT_TRUE(ok_of(cold));
    EXPECT_FALSE(cold.find("cached")->as_bool());
    Json warm = DaemonFixture::request(fd, xapk_request(text, 2));
    ASSERT_TRUE(ok_of(warm));
    EXPECT_TRUE(warm.find("cached")->as_bool());

    Json response = DaemonFixture::request(fd, R"({"op":"status"})");
    ASSERT_TRUE(ok_of(response));
    const Json* status = response.find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->find("analyzer")->as_string(), core::kAnalyzerVersion);
    EXPECT_EQ(status->find("pid")->as_int(), static_cast<std::int64_t>(::getpid()));
    EXPECT_GE(status->find("uptime_seconds")->as_double(), 0.0);

    const Json* requests = status->find("requests");
    ASSERT_NE(requests, nullptr);
    // The status request itself is still in flight, so served counts only
    // the two analyses — and inflight counts just the status request.
    EXPECT_EQ(requests->find("served")->as_int(), 2);
    EXPECT_EQ(requests->find("errors")->as_int(), 0);
    EXPECT_EQ(requests->find("inflight")->as_int(), 1);
    const Json* ops = requests->find("ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->find("xapk")->as_int(), 2);

    const Json* connections = status->find("connections");
    ASSERT_NE(connections, nullptr);
    EXPECT_EQ(connections->find("active")->as_int(), 1);
    EXPECT_EQ(connections->find("accepted")->as_int(), 1);

    const Json* latency = status->find("latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_DOUBLE_EQ(latency->find("window_seconds")->as_double(), 60.0);
    EXPECT_EQ(latency->find("lifetime")->find("count")->as_int(), 2);
    EXPECT_EQ(latency->find("window")->find("count")->as_int(), 2);
    EXPECT_FALSE(latency->find("window")->find("p95")->is_null());

    const Json* cache_block = status->find("cache");
    ASSERT_NE(cache_block, nullptr);
    ASSERT_TRUE(cache_block->is_object());
    EXPECT_EQ(cache_block->find("hits")->as_int(), 1);
    EXPECT_EQ(cache_block->find("misses")->as_int(), 1);
    EXPECT_EQ(cache_block->find("window_hits")->as_int(), 1);
    EXPECT_EQ(cache_block->find("window_misses")->as_int(), 1);
    ::close(fd);
}

TEST(DaemonTest, StatusOfOneDaemonShowsNoneOfAnothersRequests) {
    // Daemon A serves several requests and keeps its connection open while
    // daemon B, in the same process, serves two; B's status must show
    // exactly B's own latency samples, window tallies and connections.
    TempDir dir_a("own_status_a");
    TempDir dir_b("own_status_b");
    auto with_cache = [](const TempDir& dir) {
        cache::ServeOptions options = base_options(dir);
        cache::CacheOptions cache_options;
        cache_options.dir = (dir.path / "cache").string();
        options.cache = cache_options;
        return options;
    };
    DaemonFixture daemon_a(with_cache(dir_a));
    DaemonFixture daemon_b(with_cache(dir_b));
    const std::string text = corpus_text("blippex");

    int fd_a = daemon_a.connect_fd();
    ASSERT_GE(fd_a, 0);
    for (int i = 1; i <= 4; ++i) {  // one miss, three hits
        ASSERT_TRUE(ok_of(DaemonFixture::request(fd_a, xapk_request(text, i))));
    }
    ASSERT_TRUE(ok_of(DaemonFixture::request(fd_a, R"({"op":"ping"})")));

    int fd_b = daemon_b.connect_fd();
    ASSERT_GE(fd_b, 0);
    for (int i = 1; i <= 2; ++i) {  // one miss, one hit
        ASSERT_TRUE(ok_of(DaemonFixture::request(fd_b, xapk_request(text, i))));
    }
    Json response = DaemonFixture::request(fd_b, R"({"op":"status"})");
    ASSERT_TRUE(ok_of(response));
    const Json* status = response.find("status");
    ASSERT_NE(status, nullptr);
    const Json* latency = status->find("latency_ms");
    EXPECT_EQ(latency->find("lifetime")->find("count")->as_int(), 2);
    EXPECT_EQ(latency->find("window")->find("count")->as_int(), 2);
    EXPECT_EQ(status->find("cache")->find("window_hits")->as_int(), 1);
    EXPECT_EQ(status->find("cache")->find("window_misses")->as_int(), 1);
    EXPECT_EQ(status->find("connections")->find("active")->as_int(), 1);
    EXPECT_EQ(status->find("requests")->find("inflight")->as_int(), 1);

    // A's status, on its still-open connection, shows only A's work.
    Json response_a = DaemonFixture::request(fd_a, R"({"op":"status"})");
    ASSERT_TRUE(ok_of(response_a));
    const Json* status_a = response_a.find("status");
    EXPECT_EQ(status_a->find("latency_ms")->find("lifetime")->find("count")->as_int(), 5);
    EXPECT_EQ(status_a->find("cache")->find("window_hits")->as_int(), 3);
    EXPECT_EQ(status_a->find("cache")->find("window_misses")->as_int(), 1);
    EXPECT_EQ(status_a->find("connections")->find("active")->as_int(), 1);
    ::close(fd_a);
    ::close(fd_b);
}

TEST(DaemonTest, MetricsOpServesPrometheusAndJsonDeltas) {
    TempDir dir("metrics");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));

    Json prom = DaemonFixture::request(fd, R"({"op":"metrics"})");
    ASSERT_TRUE(ok_of(prom));
    EXPECT_EQ(prom.find("format")->as_string(), "prometheus");
    const std::string& exposition = prom.find("metrics")->as_string();
    EXPECT_NE(exposition.find("# TYPE"), std::string::npos);
    // The daemon's own series: the ping is served and in its window, the
    // scrape itself is in flight on the one open connection.
    for (const char* sample :
         {"\ndaemon_requests 1\n", "\ndaemon_requests_window 1\n",
          "\ndaemon_request_errors_window 0\n", "\ndaemon_cache_hits_window 0\n",
          "\ndaemon_cache_misses_window 0\n", "\ndaemon_connections_active 1\n",
          "\ndaemon_requests_inflight 1\n", "\ndaemon_request_ms_count 1\n",
          "\ndaemon_request_ms_window_count 1\n"}) {
        EXPECT_NE(exposition.find(sample), std::string::npos) << sample;
    }

    Json as_json = DaemonFixture::request(fd, R"({"op":"metrics","format":"json"})");
    ASSERT_TRUE(ok_of(as_json));
    const Json* metrics = as_json.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->is_object());
    // The metrics op reports the delta since daemon start: the ping above
    // is visible, whatever this test process ran beforehand is not.
    const Json* counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("daemon.requests"), nullptr);
    EXPECT_EQ(counters->find("daemon.requests")->as_int(), 2);  // ping + prom scrape
    ::close(fd);
}

namespace {

/// The metrics op's counters as JSON (null on failure).
Json metrics_counters(int fd) {
    Json response = DaemonFixture::request(fd, R"({"op":"metrics","format":"json"})");
    const Json* metrics = ok_of(response) ? response.find("metrics") : nullptr;
    const Json* counters = metrics != nullptr ? metrics->find("counters") : nullptr;
    return counters != nullptr ? *counters : Json();
}

std::int64_t counter_of(const Json& counters, const char* name) {
    const Json* value = counters.is_object() ? counters.find(name) : nullptr;
    return value != nullptr && value->is_int() ? value->as_int() : 0;
}

}  // namespace

TEST(DaemonTest, FailedFileReadIsNotACacheMiss) {
    // A file request whose read fails never looks the cache up, so the
    // daemon's miss tally must agree with the cache's own.
    TempDir dir("unread");
    cache::ServeOptions options = base_options(dir);
    cache::CacheOptions cache_options;
    cache_options.dir = (dir.path / "cache").string();
    options.cache = cache_options;
    DaemonFixture daemon(options);
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(ok_of(DaemonFixture::request(fd, xapk_request(corpus_text("blippex"), 1))));
    EXPECT_FALSE(ok_of(DaemonFixture::request(fd, R"({"file":"/nonexistent"})")));

    Json counters = metrics_counters(fd);
    EXPECT_EQ(counter_of(counters, "cache.misses"), 1);
    EXPECT_EQ(counter_of(counters, "daemon.cache.misses"),
              counter_of(counters, "cache.misses"));
    EXPECT_EQ(counter_of(counters, "daemon.request_errors"), 1);
    ::close(fd);
}

TEST(DaemonTest, UnmodeledApisStayInTheReportNotInTheMetrics) {
    // The unmodeled-API table is report data: a served report carries the
    // same table a direct analysis does, and neither the registry nor the
    // metrics op grows a per-API series for it.
    constexpr std::string_view kAuditPrefix = "audit.unmodeled_api.";
    TempDir dir("unmodeled");
    DaemonFixture daemon(base_options(dir));
    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    const std::string text = corpus_text("Letgo");
    Json response = DaemonFixture::request(fd, xapk_request(text, 1));
    ASSERT_TRUE(ok_of(response));

    core::AnalyzerOptions options = base_options(dir).analyzer;
    Result<core::AnalysisReport> direct = core::Analyzer(options).analyze_xapk(text);
    ASSERT_TRUE(direct.ok());
    ASSERT_FALSE(direct.value().audit.unmodeled_apis.empty());
    const Json* report = response.find("report");
    const Json* audit = report != nullptr ? report->find("audit") : nullptr;
    const Json* served = audit != nullptr ? audit->find("unmodeled_apis") : nullptr;
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->dump(), direct.value().audit.to_json().find("unmodeled_apis")->dump());

    Json counters = metrics_counters(fd);
    ASSERT_TRUE(counters.is_object());
    EXPECT_GT(counter_of(counters, "taint.unmodeled_api_calls"), 0);
    for (const auto& [name, value] : counters.members()) {
        EXPECT_NE(name.rfind(kAuditPrefix, 0), 0u) << name;
    }
    for (const auto& [name, value] : obs::MetricsRegistry::global().snapshot().counters) {
        EXPECT_NE(name.rfind(kAuditPrefix, 0), 0u) << name;
    }
    ::close(fd);
}

TEST(DaemonTest, TwoDaemonsInOneProcessEachCountOnlyTheirOwnWork) {
    // Two daemons serve at once in one process. Each metrics op reports
    // exactly its own requests and cache hits, however the other daemon's
    // work interleaves with them.
    TempDir dir_a("two_a");
    TempDir dir_b("two_b");
    auto with_cache = [](const TempDir& dir) {
        cache::ServeOptions options = base_options(dir);
        cache::CacheOptions cache_options;
        cache_options.dir = (dir.path / "cache").string();
        options.cache = cache_options;
        return options;
    };
    DaemonFixture daemon_a(with_cache(dir_a));
    DaemonFixture daemon_b(with_cache(dir_b));
    const std::string text = corpus_text("blippex");
    // A: one miss, one hit. B: one miss, three hits.
    auto drive = [&text](const DaemonFixture& daemon, int requests, bool& ok) {
        int fd = daemon.connect_fd();
        ok = fd >= 0;
        for (int i = 0; ok && i < requests; ++i) {
            ok = ok_of(DaemonFixture::request(fd, xapk_request(text, i + 1)));
        }
        if (fd >= 0) ::close(fd);
    };
    bool ok_a = false;
    bool ok_b = false;
    std::thread client_a([&] { drive(daemon_a, 2, ok_a); });
    std::thread client_b([&] { drive(daemon_b, 4, ok_b); });
    client_a.join();
    client_b.join();
    ASSERT_TRUE(ok_a);
    ASSERT_TRUE(ok_b);

    int fd_a = daemon_a.connect_fd();
    int fd_b = daemon_b.connect_fd();
    ASSERT_GE(fd_a, 0);
    ASSERT_GE(fd_b, 0);
    Json counters_a = metrics_counters(fd_a);
    Json counters_b = metrics_counters(fd_b);
    EXPECT_EQ(counter_of(counters_a, "daemon.requests"), 2);
    EXPECT_EQ(counter_of(counters_a, "cache.hits"), 1);
    EXPECT_EQ(counter_of(counters_a, "daemon.cache.hits"), 1);
    EXPECT_EQ(counter_of(counters_b, "daemon.requests"), 4);
    EXPECT_EQ(counter_of(counters_b, "cache.hits"), 3);
    EXPECT_EQ(counter_of(counters_b, "daemon.cache.hits"), 3);
    // Analysis counters are attributed too: each daemon analyzed one app.
    EXPECT_EQ(counter_of(counters_a, "xapk.programs_parsed"), 1);
    EXPECT_EQ(counter_of(counters_b, "xapk.programs_parsed"), 1);
    EXPECT_EQ(counter_of(counters_a, "taint.runs"), counter_of(counters_b, "taint.runs"));
    ::close(fd_a);
    ::close(fd_b);
}

TEST(DaemonTest, ConcurrentMixedClientsJournalEveryRequestDistinctly) {
    TempDir dir("stress");
    fs::path journal_path = dir.path / "access.jsonl";
    constexpr int kClients = 8;
    constexpr int kRoundsPerClient = 3;
    // The +1 is the final accounting status request below.
    constexpr int kRequests = kClients * kRoundsPerClient * 3 + 1;
    {
        cache::ServeOptions options = base_options(dir);
        cache::CacheOptions cache_options;
        cache_options.dir = (dir.path / "cache").string();
        options.cache = cache_options;
        options.journal_path = journal_path.string();
        DaemonFixture daemon(options);

        std::string text = corpus_text("blippex");
        std::vector<std::thread> clients;
        std::vector<int> failures(kClients, 0);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                int fd = daemon.connect_fd();
                if (fd < 0) {
                    failures[c] = 1;
                    return;
                }
                for (int round = 0; round < kRoundsPerClient; ++round) {
                    // Mixed ops per round: one analysis (the first racers
                    // collide on the same cache miss, the rest hit), one
                    // ping, one status.
                    if (!ok_of(DaemonFixture::request(fd, xapk_request(text, round))) ||
                        !ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")) ||
                        !ok_of(DaemonFixture::request(fd, R"({"op":"status"})"))) {
                        failures[c] = 1;
                        return;
                    }
                }
                ::close(fd);
            });
        }
        for (auto& t : clients) t.join();
        for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;

        // One more connection to read the daemon's own accounting.
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0);
        Json response = DaemonFixture::request(fd, R"({"op":"status"})");
        ::close(fd);
        ASSERT_TRUE(ok_of(response));
        const Json* status = response.find("status");
        EXPECT_EQ(status->find("requests")->find("served")->as_int(), kRequests - 1);
        EXPECT_EQ(status->find("requests")->find("errors")->as_int(), 0);
        EXPECT_EQ(status->find("connections")->find("accepted")->as_int(), kClients + 1);
        // Every client request has drained: only the status request itself
        // is in flight. A client's close may not have been seen yet, so
        // active is bounded rather than exact.
        EXPECT_EQ(status->find("requests")->find("inflight")->as_int(), 1);
        EXPECT_GE(status->find("connections")->find("active")->as_int(), 1);
        EXPECT_LE(status->find("connections")->find("active")->as_int(), kClients + 1);
        // ~DaemonFixture sends the shutdown request and joins serve().
    }

    // The daemon's figures are its own: none of them is a registry
    // instrument.
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, value] : snap.counters) {
        EXPECT_NE(name.rfind("daemon.", 0), 0u) << name;
    }
    for (const auto& [name, value] : snap.gauges) {
        EXPECT_NE(name.rfind("daemon.", 0), 0u) << name;
    }
    for (const auto& [name, stats] : snap.histograms) {
        EXPECT_NE(name.rfind("daemon.", 0), 0u) << name;
    }

    // Every request — the shutdown included — left exactly one journal
    // record, with daemon-wide distinct monotonic ids and a complete
    // skeleton on each line.
    std::vector<Json> records = read_journal(journal_path);
    ASSERT_EQ(records.size(), static_cast<std::size_t>(kRequests) + 1);  // +shutdown
    std::set<std::int64_t> ids;
    for (const Json& record : records) {
        ASSERT_TRUE(record.is_object());
        ids.insert(record.find("request")->as_int());
        EXPECT_GE(record.find("connection")->as_int(), 1);
        EXPECT_FALSE(record.find("op")->as_string().empty());
        EXPECT_EQ(record.find("outcome")->as_string(), "ok");
        EXPECT_GE(record.find("wall_seconds")->as_double(), 0.0);
        EXPECT_GT(record.find("response_bytes")->as_int(), 0);
    }
    EXPECT_EQ(ids.size(), records.size());  // ids are distinct...
    EXPECT_EQ(*ids.begin(), 1);             // ...and dense from 1
    EXPECT_EQ(*ids.rbegin(), static_cast<std::int64_t>(records.size()));

    // Analysis records carry the cache attribution: exactly one cold miss
    // for the shared text, every other xapk request replayed it.
    int misses = 0;
    int hits = 0;
    for (const Json& record : records) {
        if (record.find("op")->as_string() != "xapk") continue;
        EXPECT_FALSE(record.find("key")->as_string().empty());
        if (record.find("cached")->as_bool()) {
            ++hits;
        } else {
            ++misses;
        }
    }
    EXPECT_EQ(misses + hits, kClients * kRoundsPerClient);
    EXPECT_GE(misses, 1);
    EXPECT_GE(hits, kClients * (kRoundsPerClient - 1));
}

TEST(DaemonTest, JournalRotatesBySize) {
    TempDir dir("rotate");
    fs::path journal_path = dir.path / "access.jsonl";
    {
        cache::ServeOptions options = base_options(dir);
        options.journal_path = journal_path.string();
        options.journal_max_bytes = 512;  // a handful of ping records
        DaemonFixture daemon(options);
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0);
        for (int i = 0; i < 16; ++i) {
            ASSERT_TRUE(ok_of(DaemonFixture::request(fd, R"({"op":"ping"})")));
        }
        ::close(fd);
    }
    ASSERT_TRUE(fs::exists(journal_path));
    fs::path rotated = journal_path;
    rotated += ".1";
    ASSERT_TRUE(fs::exists(rotated)) << "no rotation at 512-byte cap";
    EXPECT_LE(fs::file_size(journal_path), 2u * 512u);
    // Both generations stay line-parseable and no record was lost: the
    // live file continues where the rotated-out one stopped.
    std::vector<Json> current = read_journal(journal_path);
    std::vector<Json> previous = read_journal(rotated);
    EXPECT_FALSE(current.empty());
    EXPECT_FALSE(previous.empty());
    EXPECT_EQ(previous.back().find("request")->as_int() + 1,
              current.front().find("request")->as_int());
}

TEST(DaemonTest, SlowMsLogsPerPhaseBreakdown) {
    // Threshold 0 turns every request into a "slow" one, making the log
    // path deterministic without real latency.
    std::mutex mutex;
    std::vector<log::LogRecord> records;
    log::RecordSink previous = log::set_record_sink([&](const log::LogRecord& r) {
        std::lock_guard<std::mutex> lock(mutex);
        records.push_back(r);
    });
    {
        TempDir dir("slow");
        cache::ServeOptions options = base_options(dir);
        options.slow_ms = 0;
        DaemonFixture daemon(options);
        int fd = daemon.connect_fd();
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(
            ok_of(DaemonFixture::request(fd, xapk_request(corpus_text("blippex"), 1))));
        ::close(fd);
    }
    log::set_record_sink(previous);

    const log::LogRecord* slow = nullptr;
    for (const log::LogRecord& r : records) {
        if (r.message != "daemon: slow request") continue;
        for (const auto& [key, value] : r.fields) {
            if (key == "op" && value == "xapk") slow = &r;
        }
        if (slow != nullptr) break;
    }
    ASSERT_NE(slow, nullptr) << "no slow-request record for the analysis op";
    bool saw_phases = false;
    for (const auto& [key, value] : slow->fields) {
        if (key == "phases") {
            saw_phases = true;
            // The per-phase breakdown names pipeline phases with timings.
            EXPECT_NE(value.find("ms"), std::string::npos);
            EXPECT_NE(value.find('='), std::string::npos);
        }
    }
    EXPECT_TRUE(saw_phases);
}

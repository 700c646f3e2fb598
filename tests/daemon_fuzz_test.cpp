// Protocol fuzz for the --serve daemon: valid request lines (ping, status,
// metrics json/prometheus, health, a small inline xapk, a file) are mutated
// with a fixed-seed SplitMix64 schedule — truncation, bit flips, byte
// insert/delete, NULs and invalid UTF-8, nesting at and past kMaxJsonDepth,
// strings up to 8 MiB — and sent one by one or several lines per write.
// Every non-empty line must get exactly one response line that is JSON with
// a boolean "ok"; afterwards status.served must equal the lines sent and
// ping must still answer. The schedule is deterministic, so a failure names
// a reproducible mutant.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/server.hpp"
#include "corpus/corpus.hpp"
#include "daemon_harness.hpp"
#include "support/hash.hpp"
#include "text/json.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;
using extractocol::testing::DaemonFixture;
using extractocol::testing::TempDir;
using text::Json;

namespace {

std::string json_line(std::initializer_list<std::pair<const char*, Json>> members) {
    Json doc = Json::object();
    for (const auto& [key, value] : members) doc.set(key, value);
    return doc.dump();
}

/// The valid lines every mutant starts from.
std::vector<std::string> seed_lines(const std::string& xapk_text,
                                    const std::string& xapk_path) {
    return {
        json_line({{"id", Json(1)}, {"op", Json("ping")}}),
        json_line({{"id", Json(2)}, {"op", Json("status")}}),
        json_line({{"id", Json(3)},
                   {"op", Json("metrics")},
                   {"format", Json("json")}}),
        json_line({{"id", Json(4)},
                   {"op", Json("metrics")},
                   {"format", Json("prometheus")}}),
        json_line({{"id", Json(5)}, {"op", Json("health")}}),
        json_line({{"id", Json(6)}, {"xapk", Json(xapk_text)}}),
        json_line({{"id", Json(7)}, {"file", Json(xapk_path)}}),
    };
}

/// `{"pad":"<n bytes of fill>",` + the rest of `line` after its first byte.
std::string with_long_string(const std::string& line, std::size_t n, char fill) {
    return "{\"pad\":\"" + std::string(n, fill) + "\"," + line.substr(1);
}

/// `depth` nested arrays as the value of a field, balanced or not.
std::string with_nesting(const std::string& line, std::size_t depth, bool balanced) {
    return "{\"nest\":" + std::string(depth, '[') +
           (balanced ? std::string(depth, ']') + "," + line.substr(1) : std::string());
}

std::string mutate(const std::string& line, SplitMix64& rng) {
    static const std::string_view kOddBytes[] = {
        std::string_view("\0", 1), "\xff", "\xc0\x80", "\xed\xa0\x80",
        "\x80", "\\ud800", "\xf4\x90\x80\x80"};
    std::string out = line;
    switch (rng.next_below(7)) {
        case 0:  // truncation
            out.resize(rng.next_below(out.size()));
            break;
        case 1:  // 1-4 bit flips
            for (std::uint64_t i = 0, n = 1 + rng.next_below(4); i < n; ++i) {
                out[rng.next_below(out.size())] ^=
                    static_cast<char>(1u << rng.next_below(8));
            }
            break;
        case 2:  // byte insert (any value, '\n' included)
            out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(out.size() + 1)),
                       static_cast<char>(rng.next_below(256)));
            break;
        case 3:  // byte delete
            out.erase(rng.next_below(out.size()), 1);
            break;
        case 4: {  // NUL or invalid UTF-8
            const std::string_view odd = kOddBytes[rng.next_below(std::size(kOddBytes))];
            out.insert(rng.next_below(out.size() + 1), odd);
            break;
        }
        case 5: {  // nesting around the depth limit, or far past it
            static const std::size_t kDepths[] = {
                text::kMaxJsonDepth - 2, text::kMaxJsonDepth - 1, text::kMaxJsonDepth,
                text::kMaxJsonDepth + 1, 4 * text::kMaxJsonDepth, 200'000};
            out = with_nesting(out, kDepths[rng.next_below(std::size(kDepths))],
                               rng.next_below(4) != 0);
            break;
        }
        default: {  // a long string: 1 B .. 8 MiB
            static const char kFill[] = {'a', '\0', '\xff'};
            out = with_long_string(out, std::size_t{1} << rng.next_below(24),
                                   kFill[rng.next_below(std::size(kFill))]);
            break;
        }
    }
    return out;
}

/// The lines the daemon will frame out of `bytes` (a final line without
/// '\n' included).
std::vector<std::string_view> split_lines(std::string_view bytes) {
    std::vector<std::string_view> lines;
    for (std::size_t newline; (newline = bytes.find('\n')) != std::string_view::npos;
         bytes.remove_prefix(newline + 1)) {
        lines.push_back(bytes.substr(0, newline));
    }
    lines.push_back(bytes);
    return lines;
}

/// True when a line of `mutant` would stop the daemon: such mutants are
/// not sent.
bool stops_daemon(std::string_view mutant) {
    for (std::string_view line : split_lines(mutant)) {
        Result<Json> parsed = text::parse_json(line);
        if (!parsed.ok() || !parsed.value().is_object()) continue;
        const Json* op = parsed.value().find("op");
        if (op != nullptr && op->is_string() && op->as_string() == "shutdown") return true;
    }
    return false;
}

bool write_bytes(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/// Buffered response reader; one line per call, empty on EOF or timeout.
class LineReader {
public:
    explicit LineReader(int fd) : fd_(fd) {}

    std::optional<std::string> next() {
        std::size_t newline;
        while ((newline = buffer_.find('\n')) == std::string::npos) {
            char chunk[65536];
            ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return std::nullopt;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
    }

private:
    int fd_;
    std::string buffer_;
};

/// Sends `bytes` plus a sentinel ping (id `sentinel`) from a writer thread,
/// so a large write can never deadlock against unread responses, and
/// returns the response lines that precede the sentinel's (nullopt when the
/// connection ends or times out first).
std::optional<std::vector<std::string>> exchange(int fd, LineReader& reader,
                                                 const std::string& bytes,
                                                 std::int64_t sentinel) {
    const std::string ping =
        json_line({{"id", Json(sentinel)}, {"op", Json("ping")}}) + "\n";
    bool sent = false;
    std::thread writer([&] { sent = write_bytes(fd, bytes) && write_bytes(fd, ping); });
    std::vector<std::string> responses;
    bool found = false;
    while (std::optional<std::string> line = reader.next()) {
        Result<Json> parsed = text::parse_json(*line);
        const Json* id = parsed.ok() && parsed.value().is_object()
                             ? parsed.value().find("id")
                             : nullptr;
        if (id != nullptr && id->is_int() && id->as_int() == sentinel &&
            parsed.value().find("pong") != nullptr) {
            found = true;
            break;
        }
        responses.push_back(std::move(*line));
    }
    writer.join();
    if (!sent || !found) return std::nullopt;
    return responses;
}

bool is_response(const std::string& line) {
    Result<Json> parsed = text::parse_json(line);
    if (!parsed.ok() || !parsed.value().is_object()) return false;
    const Json* ok = parsed.value().find("ok");
    return ok != nullptr && ok->is_bool();
}

}  // namespace

TEST(DaemonFuzzTest, EveryMutatedLineGetsExactlyOneResponse) {
    TempDir dir("fuzz");
    cache::ServeOptions options;
    options.socket_path = (dir.path / "daemon.sock").string();
    options.analyzer.jobs = 1;
    DaemonFixture daemon(options);

    const std::string xapk_text = xapk::write_xapk(corpus::build_app("blippex").program);
    const std::string xapk_path = (dir.path / "blippex.xapk").string();
    std::ofstream(xapk_path, std::ios::binary) << xapk_text;
    const std::vector<std::string> seeds = seed_lines(xapk_text, xapk_path);

    int fd = daemon.connect_fd();
    ASSERT_GE(fd, 0);
    // A hung daemon fails the test instead of stalling it.
    timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    LineReader reader(fd);

    // The repo's deterministic PRNG: a failing mutant is reproducible from
    // the seed and its index in the log.
    SplitMix64 rng(0xf022);
    constexpr int kWrites = 300;
    std::size_t lines_sent = 0;
    std::int64_t sentinel = 1'000'000;
    for (int w = 0; w < kWrites; ++w) {
        // One mutant per write, or 2-6 pipelined in one write.
        std::size_t mutants = rng.next_below(4) == 0 ? 2 + rng.next_below(5) : 1;
        std::string bytes;
        for (std::size_t m = 0; m < mutants; ++m) {
            std::string mutant = mutate(seeds[rng.next_below(seeds.size())], rng);
            if (stops_daemon(mutant)) continue;
            bytes += mutant;
            bytes += '\n';
        }
        // Only non-empty lines get a response.
        std::size_t expected = 0;
        for (std::string_view line : split_lines(bytes)) expected += !line.empty();
        std::optional<std::vector<std::string>> responses =
            exchange(fd, reader, bytes, ++sentinel);
        ASSERT_TRUE(responses.has_value()) << "write " << w << ": no sentinel response";
        ASSERT_EQ(responses->size(), expected) << "write " << w;
        for (const std::string& response : *responses) {
            EXPECT_TRUE(is_response(response))
                << "write " << w << ": " << response.substr(0, 200);
        }
        lines_sent += expected + 1;  // + the sentinel ping
    }

    // Named cases at the edges the random schedule only samples: a ping
    // whose extra field nests to exactly the depth limit (the outer object
    // is one level) is answered, one level more is rejected, and 8 MiB
    // strings are no obstacle.
    const std::string& ping = seeds[0];
    const std::pair<std::string, bool> edges[] = {
        {with_nesting(ping, text::kMaxJsonDepth - 1, true), true},
        {with_nesting(ping, text::kMaxJsonDepth, true), false},
        {with_long_string(ping, std::size_t{8} << 20, 'a'), true},
        {with_long_string(ping, std::size_t{8} << 20, '\0'), true},
    };
    for (const auto& [edge, answered] : edges) {
        std::optional<std::vector<std::string>> responses =
            exchange(fd, reader, edge + "\n", ++sentinel);
        ASSERT_TRUE(responses.has_value());
        ASSERT_EQ(responses->size(), 1u);
        ASSERT_TRUE(is_response(responses->front()));
        EXPECT_EQ(extractocol::testing::response_ok(
                      text::parse_json(responses->front()).value()),
                  answered)
            << edge.substr(0, 80);
        lines_sent += 2;
    }

    // The status request is still in flight, so served counts every line
    // before it.
    Json status = DaemonFixture::request(fd, R"({"op":"status"})");
    ASSERT_TRUE(extractocol::testing::response_ok(status));
    EXPECT_EQ(status.find("status")->find("requests")->find("served")->as_int(),
              static_cast<std::int64_t>(lines_sent));
    EXPECT_TRUE(extractocol::testing::response_ok(
        DaemonFixture::request(fd, R"({"op":"ping"})")));
    ::close(fd);
}

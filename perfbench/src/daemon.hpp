// The daemon side of the benchmark: an in-process `cache::serve` on a
// Unix socket inside the run directory, and a pipelined open-loop client.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// A newline-delimited JSON connection to the daemon.
class Connection {
public:
    explicit Connection(const std::string& socket_path, double timeout_s = 10.0);
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] bool ok() const { return fd_ >= 0; }
    bool send(std::string_view line);  // `line` must end with '\n'
    /// Next response line; false on close, error, or `timeout_ms` of silence.
    bool read_line(std::string& line, int timeout_ms = 30000);
    /// One request, one response (closed loop).
    bool round_trip(std::string_view line, std::string& response) {
        return send(line) && read_line(response);
    }

private:
    int fd_ = -1;
    std::string buffer_;
    std::size_t scanned_ = 0;  // bytes of buffer_ already searched for '\n'
};

class Daemon {
public:
    /// Starts the daemon (socket and cache directory under `dir`) and
    /// returns once it has answered a ping.
    Daemon(const std::string& dir, unsigned jobs);
    ~Daemon();  // shutdown request, then join
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Where a daemon started on `dir` keeps its report cache.
    static std::string cache_dir(const std::string& dir) { return dir + "/cache"; }

    [[nodiscard]] const std::string& socket() const { return socket_; }
    [[nodiscard]] bool ok() const { return ready_; }

private:
    std::string socket_;
    bool ready_ = false;
    std::thread thread_;
};

/// One request of an open-loop run over a single connection.
struct Timed {
    double due_ms = 0;   // schedule offset from the phase start
    double sent_ms = 0;  // when the sender finished writing it
    double done_ms = 0;  // when its response line arrived
    bool ok = false;
};

/// Sends `lines[i]` at `due_ms[i]` after `start` from a sender thread while
/// the calling thread reads the responses in order (the daemon answers one
/// connection's requests in sequence), so a slow response never delays a
/// later send. `check(i, response)` decides whether response i is correct;
/// it runs on the reader, so it must be cheap.
std::vector<Timed> run_open_loop(Connection& conn, const std::vector<const std::string*>& lines,
                                 const std::vector<double>& due_ms, Clock::time_point start,
                                 const std::function<bool(std::size_t, std::string&)>& check);

/// `{"id":<id>,"xapk":"<text>"}` plus the newline.
std::string xapk_request(std::size_t id, const std::string& text);

}  // namespace perfbench

#include "daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "cache/server.hpp"
#include "text/json.hpp"

namespace perfbench {

Connection::Connection(const std::string& socket_path, double timeout_s) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof addr.sun_path) return;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) return;
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
        ::close(fd_);
        fd_ = -1;
        if (Clock::now() >= deadline) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

Connection::~Connection() {
    if (fd_ >= 0) ::close(fd_);
}

bool Connection::send(std::string_view line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::write(fd_, line.data() + sent, line.size() - sent);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool Connection::read_line(std::string& line, int timeout_ms) {
    char chunk[1 << 16];
    for (;;) {
        std::size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            scanned_ = 0;
            return true;
        }
        scanned_ = buffer_.size();
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc < 0 && errno == EINTR) continue;
        if (rc <= 0) return false;
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

Daemon::Daemon(const std::string& dir, unsigned jobs) : socket_(dir + "/d.sock") {
    std::filesystem::create_directories(dir);
    cache::ServeOptions options;
    options.socket_path = socket_;
    options.analyzer.jobs = jobs;
    cache::CacheOptions cache_options;
    cache_options.dir = cache_dir(dir);
    options.cache = cache_options;
    // A daemon that fails to start returns at once and never answers the
    // ping below, which is how the failure shows.
    thread_ = std::thread([options] { (void)cache::serve(options); });
    Connection conn(socket_);
    std::string response;
    ready_ = conn.ok() && conn.round_trip("{\"op\":\"ping\"}\n", response) &&
             response.find("\"pong\":true") != std::string::npos;
}

Daemon::~Daemon() {
    {
        Connection conn(socket_, 2.0);
        std::string response;
        if (conn.ok()) (void)conn.round_trip("{\"op\":\"shutdown\"}\n", response);
    }
    thread_.join();
}

std::vector<Timed> run_open_loop(Connection& conn, const std::vector<const std::string*>& lines,
                                 const std::vector<double>& due_ms, Clock::time_point start,
                                 const std::function<bool(std::size_t, std::string&)>& check) {
    std::vector<Timed> timed(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) timed[i].due_ms = due_ms[i];
    std::atomic<std::size_t> sent{0};
    std::thread sender([&] {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::this_thread::sleep_until(start + std::chrono::duration<double, std::milli>(due_ms[i]));
            if (!conn.send(*lines[i])) break;
            timed[i].sent_ms = ms_since(start);
            sent.store(i + 1, std::memory_order_release);
        }
    });
    std::string response;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        // A stalled daemon fails the rest of the run instead of hanging it.
        if (!conn.read_line(response, 30000)) break;
        timed[i].done_ms = ms_since(start);
        timed[i].ok = check(i, response);
    }
    sender.join();
    // A request the sender never wrote cannot have been answered.
    for (std::size_t i = sent.load(std::memory_order_acquire); i < lines.size(); ++i) {
        timed[i].ok = false;
    }
    return timed;
}

std::string xapk_request(std::size_t id, const std::string& text) {
    std::string line = "{\"id\":" + std::to_string(id) + ",\"xapk\":\"";
    line += text::json_escape(text);
    line += "\"}\n";
    return line;
}

}  // namespace perfbench

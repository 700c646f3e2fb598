#include "support/log.hpp"

#include <cstdio>
#include <iostream>
#include <mutex>

namespace extractocol::log {

const char* level_name(Level level) {
    switch (level) {
        case Level::kDebug: return "DEBUG";
        case Level::kInfo: return "INFO";
        case Level::kWarn: return "WARN";
        case Level::kError: return "ERROR";
    }
    return "?";
}

std::string LogRecord::format() const {
    std::string out = message;
    for (const auto& [key, value] : fields) {
        if (!out.empty()) out += ' ';
        out += key;
        out += '=';
        bool needs_quotes = value.empty() ||
                            value.find_first_of(" =\"") != std::string::npos;
        if (needs_quotes) {
            out += '"';
            for (char c : value) {
                if (c == '"' || c == '\\') out += '\\';
                out += c;
            }
            out += '"';
        } else {
            out += value;
        }
    }
    return out;
}

namespace {

std::mutex g_mutex;
Level g_threshold = Level::kWarn;
bool g_status_active = false;
std::string g_status_text;

// "\r" returns to column 0, "\x1b[K" erases to end of line: a shorter
// redraw (or a log record) never leaves a stale tail from a longer one.
void erase_status_unlocked() {
    if (!g_status_active) return;
    std::fputs("\r\x1b[K", stderr);
    std::fflush(stderr);
}

void redraw_status_unlocked() {
    if (!g_status_active) return;
    std::fputs("\r\x1b[K", stderr);
    std::fputs(g_status_text.c_str(), stderr);
    std::fflush(stderr);
}

RecordSink& global_sink() {
    static RecordSink sink = [](const LogRecord& record) {
        std::cerr << "[" << level_name(record.level) << "] " << record.format()
                  << "\n";
    };
    return sink;
}

}  // namespace

RecordSink set_record_sink(RecordSink sink) {
    std::lock_guard<std::mutex> lock(g_mutex);
    RecordSink previous = global_sink();
    global_sink() = std::move(sink);
    return previous;
}

void set_threshold(Level level) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_threshold = level;
}

Level threshold() {
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_threshold;
}

void emit(Level level, const std::string& message) {
    emit(LogRecord{level, message, {}});
}

void emit(LogRecord record) {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (static_cast<int>(record.level) < static_cast<int>(g_threshold)) return;
    if (!global_sink()) return;
    // The status line and log records share stderr; erase the transient
    // line before the sink writes so the record starts at column 0 on a
    // clean line, then redraw it after.
    erase_status_unlocked();
    global_sink()(record);
    redraw_status_unlocked();
}

void set_status_line(std::string text) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_status_active = true;
    g_status_text = std::move(text);
    redraw_status_unlocked();
}

void end_status_line() {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_status_active) return;
    std::fputs("\r\x1b[K", stderr);
    std::fputs(g_status_text.c_str(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
    g_status_active = false;
    g_status_text.clear();
}

}  // namespace extractocol::log

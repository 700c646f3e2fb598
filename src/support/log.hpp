// Structured leveled logger. Analyses are long-running; progress and anomaly
// reporting goes through here so library users can silence or capture it.
//
// Records carry a free-text message plus ordered key=value fields:
//
//   log::info().kv("phase", "slicing").kv("sites", n) << "slicing done";
//
// renders as `[INFO] slicing done phase=slicing sites=12`. Every record —
// from the logger and from the obs subsystem alike — flows through one
// process-wide RecordSink.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace extractocol::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* level_name(Level level);

/// One structured log record: message plus ordered key=value fields.
struct LogRecord {
    Level level = Level::kInfo;
    std::string message;
    std::vector<std::pair<std::string, std::string>> fields;

    /// "message key=value ..." — values with spaces/'='/quotes are quoted.
    [[nodiscard]] std::string format() const;
};

/// Structured sink invoked for every record at or above the threshold.
using RecordSink = std::function<void(const LogRecord&)>;

/// Replaces the global sink. Returns the previous sink.
RecordSink set_record_sink(RecordSink sink);

/// Sets the minimum level that reaches the sink. Default: kWarn, so library
/// use is quiet unless something is wrong.
void set_threshold(Level level);
Level threshold();

void emit(Level level, const std::string& message);
void emit(LogRecord record);

// ------------------------------------------------- transient status line --
// A single \r-overwritten stderr line (the CLI's --progress ETA display)
// that must never interleave with log records. set_status_line redraws the
// line, clearing to end-of-line first; emit() erases an active line before
// the sink runs and redraws it afterwards, so records land on clean lines.
// end_status_line prints the final text terminated with '\n' (idempotent,
// no-op when no line is active) — callers run it before any other stderr
// block and on error paths, so no stale partial line is ever left behind.

void set_status_line(std::string text);
void end_status_line();

namespace detail {
class Record {
public:
    explicit Record(Level level) { record_.level = level; }
    Record(const Record&) = delete;
    Record& operator=(const Record&) = delete;
    ~Record() {
        record_.message = stream_.str();
        emit(std::move(record_));
    }

    template <typename T>
    Record& operator<<(const T& v) {
        stream_ << v;
        return *this;
    }

    /// Appends a structured field; values are stringified via operator<<.
    template <typename T>
    Record& kv(std::string_view key, const T& value) {
        std::ostringstream s;
        s << value;
        record_.fields.emplace_back(std::string(key), s.str());
        return *this;
    }

private:
    LogRecord record_;
    std::ostringstream stream_;
};
}  // namespace detail

inline detail::Record debug() { return detail::Record(Level::kDebug); }
inline detail::Record info() { return detail::Record(Level::kInfo); }
inline detail::Record warn() { return detail::Record(Level::kWarn); }
inline detail::Record error() { return detail::Record(Level::kError); }

}  // namespace extractocol::log

// Concrete IR interpreter — the dynamic-analysis baseline of §5.1.
//
// The paper compares Extractocol's static output against traffic traces
// collected by exercising real apps (manual UI fuzzing, and automatic
// UI fuzzing with PUMA) through a mitmproxy. Here the same comparison is
// realized by *executing* the app's IR against a scripted fake server and
// capturing every HTTP transaction:
//
//   * auto fuzzing   — drives startup + plain clickable events only (PUMA
//                      cannot operate custom-rendered UI and cannot log in);
//   * manual fuzzing — also drives custom UI, login flows, and the intents
//                      that fire during normal use;
//   * neither reaches timers, server pushes, or real-world side-effect
//                      actions (purchases, job applications) — the coverage
//                      gap that favors static analysis in Table 1.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "xir/ir.hpp"

namespace extractocol::interp {

/// Server-side behavior: the corpus ships one script per app.
class FakeServer {
public:
    virtual ~FakeServer() = default;
    virtual http::Response handle(const http::Request& request) = 0;
};

/// Convenience scripted server: first matching rule wins.
class ScriptedServer : public FakeServer {
public:
    using Handler = std::function<http::Response(const http::Request&)>;

    /// `path_prefix` matches on "host/path..." (no scheme).
    void route(std::string path_prefix, Handler handler);
    /// Fixed payload route.
    void route_fixed(std::string path_prefix, http::BodyKind kind, std::string body);

    http::Response handle(const http::Request& request) override;

private:
    std::vector<std::pair<std::string, Handler>> routes_;
};

enum class FuzzMode {
    kAuto,    // PUMA-like: create + plain clicks
    kManual,  // + custom UI, login, intents
    kFull,    // everything (timers, pushes, actions) — debugging/oracle runs
};

struct InterpreterOptions {
    std::size_t max_steps_per_event = 200'000;
    std::size_t max_call_depth = 128;
};

class Interpreter {
public:
    Interpreter(const xir::Program& program, FakeServer& server,
                InterpreterOptions options = {});

    /// Runs startup plus every event eligible under `mode`, in registration
    /// order, and returns the captured traffic trace. App state (statics,
    /// database, preferences) persists across events within one call.
    [[nodiscard]] http::Trace fuzz(FuzzMode mode);

    /// Runs a single registered event by label (state persists across calls).
    void run_event(const std::string& label);

    [[nodiscard]] const http::Trace& trace() const;
    void reset();

private:
    struct Impl;
    std::shared_ptr<Impl> impl_;
};

/// True if events of this kind fire under the given fuzz mode.
bool event_enabled(xir::EventKind kind, FuzzMode mode);

}  // namespace extractocol::interp

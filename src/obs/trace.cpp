#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "obs/metrics.hpp"
#include "support/memtrack.hpp"
#include "support/parallel.hpp"

namespace extractocol::obs {

namespace {

// Per-thread open-span depth; spans nest lexically so a counter suffices.
thread_local std::uint32_t t_depth = 0;

// support::ThreadPool start hook: every pool worker self-registers with a
// stable per-pool label before touching any work, so trace tids follow
// thread creation order and rows carry readable names.
void name_pool_worker(unsigned worker_index) {
    TraceRecorder::global().name_current_thread("worker-" +
                                                std::to_string(worker_index));
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::global() {
    static TraceRecorder recorder;
    return recorder;
}

void TraceRecorder::set_enabled(bool enabled) {
    if (enabled) {
        // Install the worker-naming hook before any pool spawns and give the
        // enabling thread (the CLI main thread in practice) tid 0.
        support::set_thread_start_hook(&name_pool_worker);
        name_current_thread("main");
    }
    enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::name_current_thread(std::string name) {
    std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i] == self) {
            thread_names_[i] = std::move(name);
            return;
        }
    }
    threads_.push_back(self);
    thread_names_.push_back(std::move(name));
}

std::vector<std::string> TraceRecorder::thread_names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return thread_names_;
}

void TraceRecorder::record(TraceEvent event) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void TraceRecorder::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::vector<TraceEvent> TraceRecorder::events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

std::uint64_t TraceRecorder::to_us(std::chrono::steady_clock::time_point t) const {
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
    return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

std::uint64_t TraceRecorder::now_us() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - epoch_)
                                          .count());
}

std::uint32_t TraceRecorder::thread_number() {
    std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i] == self) return i;
    }
    threads_.push_back(self);
    thread_names_.emplace_back();
    return static_cast<std::uint32_t>(threads_.size() - 1);
}

text::Json TraceRecorder::to_chrome_json() const {
    text::Json arr = text::Json::array();
    std::vector<std::string> names = thread_names();
    for (std::size_t tid = 0; tid < names.size(); ++tid) {
        std::string name = std::move(names[tid]);
        if (name.empty()) name = "thread-" + std::to_string(tid);
        text::Json args = text::Json::object();
        args.set("name", text::Json(std::move(name)));
        text::Json meta = text::Json::object();
        meta.set("name", text::Json("thread_name"));
        meta.set("ph", text::Json("M"));
        meta.set("pid", text::Json(1));
        meta.set("tid", text::Json(static_cast<std::int64_t>(tid)));
        meta.set("args", std::move(args));
        arr.push_back(std::move(meta));
    }
    for (const auto& e : events()) {
        text::Json obj = text::Json::object();
        obj.set("name", text::Json(e.name));
        obj.set("cat", text::Json(e.category));
        obj.set("ph", text::Json("X"));
        obj.set("ts", text::Json(static_cast<std::int64_t>(e.start_us)));
        obj.set("dur", text::Json(static_cast<std::int64_t>(e.duration_us)));
        obj.set("pid", text::Json(1));
        obj.set("tid", text::Json(static_cast<std::int64_t>(e.thread)));
        arr.push_back(std::move(obj));
    }
    text::Json doc = text::Json::object();
    doc.set("traceEvents", std::move(arr));
    doc.set("displayTimeUnit", text::Json("ms"));
    return doc;
}

std::string TraceRecorder::to_collapsed() const {
    std::vector<TraceEvent> sorted = events();
    // Events are appended at span *close* (children before parents);
    // (thread, start, depth) order walks each thread's tree top-down, so a
    // running frame stack reconstructs ancestry.
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.thread != b.thread) return a.thread < b.thread;
                         if (a.start_us != b.start_us) return a.start_us < b.start_us;
                         return a.depth < b.depth;
                     });

    struct Frame {
        const TraceEvent* event;
        std::uint64_t child_us = 0;  // direct children's total duration
    };
    std::map<std::string, std::uint64_t> folded;  // stack key -> self us
    std::vector<Frame> stack;

    auto pop = [&] {
        Frame frame = stack.back();
        stack.pop_back();
        std::uint64_t self = frame.event->duration_us > frame.child_us
                                 ? frame.event->duration_us - frame.child_us
                                 : 0;
        if (self == 0) return;
        std::string key;
        for (const Frame& f : stack) {
            key += f.event->name;
            key += ';';
        }
        key += frame.event->name;
        folded[key] += self;
    };

    std::uint32_t current_thread = 0;
    bool first = true;
    for (const TraceEvent& e : sorted) {
        if (first || e.thread != current_thread) {
            while (!stack.empty()) pop();
            current_thread = e.thread;
            first = false;
        }
        // The recorded depth says how many ancestors the span had; anything
        // deeper on the stack is a closed sibling subtree. A frame whose
        // window ended before this span started is stale too (its parent was
        // never recorded, e.g. still open at export time).
        while (stack.size() > e.depth) pop();
        while (!stack.empty() &&
               e.start_us >= stack.back().event->start_us + stack.back().event->duration_us) {
            pop();
        }
        if (!stack.empty()) stack.back().child_us += e.duration_us;
        stack.push_back(Frame{&e});
    }
    while (!stack.empty()) pop();

    std::string out;
    for (const auto& [key, self_us] : folded) {
        out += key;
        out += ' ';
        out += std::to_string(self_us);
        out += '\n';
    }
    return out;
}

// ----------------------------------------------------------------- span --

Span::Span(std::string_view name, std::string_view category)
    : name_(name), category_(category), start_(std::chrono::steady_clock::now()) {
    depth_ = t_depth++;
    if (support::memtrack::enabled()) {
        mem_start_ = static_cast<std::int64_t>(support::memtrack::live_bytes());
    }
}

double Span::seconds() const {
    auto elapsed =
        finished_ ? elapsed_ : std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(elapsed).count();
}

void Span::finish() {
    if (finished_) return;
    finished_ = true;
    elapsed_ = std::chrono::steady_clock::now() - start_;
    if (t_depth > 0) --t_depth;
    if (mem_start_ >= 0 && support::memtrack::enabled()) {
        // Net allocation attributed to this phase window. Negative deltas
        // (the phase freed more than it allocated) are real data, and the
        // histogram's min/max/sum carry them fine.
        std::int64_t now = static_cast<std::int64_t>(support::memtrack::live_bytes());
        histogram("mem.phase." + name_).observe(static_cast<double>(now - mem_start_));
    }
    TraceRecorder& recorder = TraceRecorder::global();
    if (!recorder.enabled()) return;
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.duration_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed_).count());
    event.start_us = recorder.to_us(start_);
    event.thread = recorder.thread_number();
    event.depth = depth_;
    recorder.record(std::move(event));
}

}  // namespace extractocol::obs

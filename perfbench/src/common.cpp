#include "common.hpp"

namespace perfbench {

text::Json MetricSink::to_json() const {
    text::Json doc = text::Json::object();
    for (const auto& e : entries_) {
        text::Json m = text::Json::object();
        m.set("value", text::Json(e.value));
        m.set("unit", text::Json(e.unit));
        doc.set(e.name, std::move(m));
    }
    return doc;
}

std::size_t Tracer::begin(std::string name, std::uint32_t subject) {
    if (!enabled_) return 0;
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.subject = subject;
    span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
    if (!enabled_) return;
    spans_[id].end_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms(std::size_t from) const {
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) self[spans_[i].name] += duration_ms(i);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        std::int32_t parent = spans_[i].parent;
        if (parent >= static_cast<std::int32_t>(from)) {
            self[spans_[static_cast<std::size_t>(parent)].name] -= duration_ms(i);
        }
    }
    return self;
}

text::Json Tracer::to_json() const {
    text::Json out = text::Json::array();
    for (const auto& s : spans_) {
        text::Json j = text::Json::object();
        j.set("name", text::Json(s.name));
        j.set("parent", text::Json(static_cast<std::int64_t>(s.parent)));
        j.set("subject", text::Json(static_cast<std::int64_t>(s.subject)));
        j.set("start_us", text::Json(s.start_us));
        j.set("end_us", text::Json(s.end_us));
        out.push_back(std::move(j));
    }
    return out;
}

std::string canonical_report(const text::Json& report_json) {
    text::Json doc = text::Json::object();
    for (const auto& [key, value] : report_json.members()) {
        if (key == "metrics") continue;
        if (key == "audit" && value.is_object()) {
            text::Json audit = text::Json::object();
            for (const auto& [akey, avalue] : value.members()) {
                if (akey != "unmodeled_apis") audit.set(akey, avalue);
            }
            doc.set(key, std::move(audit));
            continue;
        }
        doc.set(key, value);
    }
    return doc.dump();
}

}  // namespace perfbench

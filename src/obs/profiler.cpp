#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"
#include "support/parallel.hpp"

namespace extractocol::obs {

void Profiler::merge_site(const SiteProfile& delta) {
    SiteProfile& row = sites_[delta.site];
    row.site = delta.site;
    row.taint_steps += delta.taint_steps;
    row.sig_steps += delta.sig_steps;
    row.contexts += delta.contexts;
    row.slice_seconds += delta.slice_seconds;
    row.sig_seconds += delta.sig_seconds;
}

void Profiler::charge_method(std::string_view method_key, std::uint64_t taint_steps,
                             std::uint64_t interp_stmts) {
    if (taint_steps == 0 && interp_stmts == 0) return;
    MethodProfile& row = methods_[std::string(method_key)];
    if (row.method.empty()) row.method = std::string(method_key);
    row.taint_steps += taint_steps;
    row.interp_stmts += interp_stmts;
}

void Profiler::merge(const Profiler& other) {
    for (const auto& [key, row] : other.sites_) merge_site(row);
    for (const auto& [key, row] : other.methods_) {
        charge_method(key, row.taint_steps, row.interp_stmts);
    }
}

std::vector<SiteProfile> Profiler::sites() const {
    std::vector<SiteProfile> out;
    out.reserve(sites_.size());
    for (const auto& [key, row] : sites_) out.push_back(row);
    std::sort(out.begin(), out.end(), [](const SiteProfile& a, const SiteProfile& b) {
        if (a.total_steps() != b.total_steps()) return a.total_steps() > b.total_steps();
        return a.site < b.site;
    });
    return out;
}

std::vector<MethodProfile> Profiler::methods() const {
    std::vector<MethodProfile> out;
    out.reserve(methods_.size());
    for (const auto& [key, row] : methods_) out.push_back(row);
    std::sort(out.begin(), out.end(), [](const MethodProfile& a, const MethodProfile& b) {
        if (a.total_steps() != b.total_steps()) return a.total_steps() > b.total_steps();
        return a.method < b.method;
    });
    return out;
}

std::string Profiler::table(std::size_t top_k) const {
    auto site_rows = sites();
    auto method_rows = methods();
    char line[256];

    std::string out;
    std::snprintf(line, sizeof(line),
                  "profile: hot DP sites (top %zu of %zu by attributed steps)\n",
                  std::min(top_k, site_rows.size()), site_rows.size());
    out += line;
    out += "  taint_steps    sig_steps  contexts  site\n";
    for (std::size_t i = 0; i < site_rows.size() && i < top_k; ++i) {
        const SiteProfile& s = site_rows[i];
        std::snprintf(line, sizeof(line), "  %11" PRIu64 "  %11" PRIu64 "  %8" PRIu64 "  ",
                      s.taint_steps, s.sig_steps, s.contexts);
        out += line;
        out += s.site;
        out += '\n';
    }

    std::snprintf(line, sizeof(line),
                  "profile: hot app methods (top %zu of %zu by attributed steps)\n",
                  std::min(top_k, method_rows.size()), method_rows.size());
    out += line;
    out += "  taint_steps  interp_stmts  method\n";
    for (std::size_t i = 0; i < method_rows.size() && i < top_k; ++i) {
        const MethodProfile& m = method_rows[i];
        std::snprintf(line, sizeof(line), "  %11" PRIu64 "  %12" PRIu64 "  ", m.taint_steps,
                      m.interp_stmts);
        out += line;
        out += m.method;
        out += '\n';
    }
    return out;
}

text::Json Profiler::to_json() const {
    text::Json doc = text::Json::object();
    doc.set("schema", text::Json("extractocol.profile/v1"));
    doc.set("totals", summary_json());

    text::Json site_arr = text::Json::array();
    for (const SiteProfile& s : sites()) {
        text::Json row = text::Json::object();
        row.set("site", text::Json(s.site));
        row.set("taint_steps", text::Json(static_cast<std::int64_t>(s.taint_steps)));
        row.set("sig_steps", text::Json(static_cast<std::int64_t>(s.sig_steps)));
        row.set("contexts", text::Json(static_cast<std::int64_t>(s.contexts)));
        row.set("slice_seconds", text::Json(s.slice_seconds));
        row.set("sig_seconds", text::Json(s.sig_seconds));
        site_arr.push_back(std::move(row));
    }
    doc.set("sites", std::move(site_arr));

    text::Json method_arr = text::Json::array();
    for (const MethodProfile& m : methods()) {
        text::Json row = text::Json::object();
        row.set("method", text::Json(m.method));
        row.set("taint_steps", text::Json(static_cast<std::int64_t>(m.taint_steps)));
        row.set("interp_stmts", text::Json(static_cast<std::int64_t>(m.interp_stmts)));
        method_arr.push_back(std::move(row));
    }
    doc.set("methods", std::move(method_arr));
    return doc;
}

text::Json Profiler::summary_json() const {
    std::uint64_t taint_steps = 0;
    std::uint64_t sig_steps = 0;
    std::uint64_t interp_stmts = 0;
    std::uint64_t contexts = 0;
    for (const auto& [key, s] : sites_) {
        taint_steps += s.taint_steps;
        sig_steps += s.sig_steps;
        contexts += s.contexts;
    }
    for (const auto& [key, m] : methods_) interp_stmts += m.interp_stmts;
    text::Json doc = text::Json::object();
    doc.set("sites", text::Json(static_cast<std::int64_t>(sites_.size())));
    doc.set("methods", text::Json(static_cast<std::int64_t>(methods_.size())));
    doc.set("taint_steps", text::Json(static_cast<std::int64_t>(taint_steps)));
    doc.set("sig_steps", text::Json(static_cast<std::int64_t>(sig_steps)));
    doc.set("interp_stmts", text::Json(static_cast<std::int64_t>(interp_stmts)));
    doc.set("contexts", text::Json(static_cast<std::int64_t>(contexts)));
    return doc;
}

std::string profile_site_key(std::string_view app, std::string_view dp,
                             std::string_view location, std::uint32_t method_index,
                             std::uint32_t block, std::uint32_t index) {
    std::string key;
    key.reserve(app.size() + dp.size() + location.size() + 24);
    key.append(app);
    key += '|';
    key.append(dp);
    key += " @ ";
    key.append(location);
    key += " (";
    key += std::to_string(method_index);
    key += ':';
    key += std::to_string(block);
    key += ':';
    key += std::to_string(index);
    key += ')';
    return key;
}

std::string profile_method_key(std::string_view app, std::string_view qualified_method) {
    std::string key;
    key.reserve(app.size() + qualified_method.size() + 1);
    key.append(app);
    key += '|';
    key.append(qualified_method);
    return key;
}

// ------------------------------------------------- contention observability

namespace {

// Fires once per pool batch, so the six histograms are looked up (registry
// mutex) once per process, not per batch.
void observe_batch_stats(const support::BatchStats& stats) {
    static Histogram& queue_wait = histogram("parallel.queue_wait_ms");
    static Histogram& busy = histogram("parallel.busy_ms");
    static Histogram& claimed = histogram("parallel.claimed_indices");
    static Histogram& utilization = histogram("parallel.utilization");
    static Histogram& batch_ms = histogram("parallel.batch_ms");
    static Histogram& imbalance = histogram("parallel.imbalance");
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (const support::WorkerBatchStats& w : stats.participants) {
        queue_wait.observe(w.queue_wait_ms);
        busy.observe(w.busy_ms);
        claimed.observe(static_cast<double>(w.claimed));
        if (stats.wall_ms > 0.0) utilization.observe(w.busy_ms / stats.wall_ms);
        max_busy = std::max(max_busy, w.busy_ms);
        sum_busy += w.busy_ms;
    }
    batch_ms.observe(stats.wall_ms);
    if (!stats.participants.empty()) {
        double mean = sum_busy / static_cast<double>(stats.participants.size());
        imbalance.observe(mean > 0.0 ? max_busy / mean : 1.0);
    }
}

}  // namespace

void install_contention_metrics() {
    support::set_batch_stats_hook(&observe_batch_stats);
}

}  // namespace extractocol::obs

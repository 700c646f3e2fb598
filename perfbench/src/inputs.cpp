#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "xapk/serialize.hpp"

namespace perfbench {

namespace {

std::vector<std::string> corpus_names() {
    std::vector<std::string> names = corpus::open_source_apps();
    for (const auto& n : corpus::closed_source_apps()) names.push_back(n);
    return names;
}

std::vector<std::uint32_t> iota(std::size_t n) {
    std::vector<std::uint32_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint32_t>(i);
    return v;
}

// ---- large_app variants ---------------------------------------------------

std::string renamed(const std::string& name, const std::string& suffix,
                    const std::set<std::string>& endpoints) {
    return endpoints.count(name) != 0 ? name + suffix : name;
}

/// "<endpoint>.<field>" with the endpoint renamed when it is one of ours.
std::string renamed_ref(const std::string& ref, const std::string& suffix,
                        const std::set<std::string>& endpoints) {
    auto dot = ref.find('.');
    if (dot == std::string::npos) return renamed(ref, suffix, endpoints);
    return renamed(ref.substr(0, dot), suffix, endpoints) + ref.substr(dot);
}

void rename_tables(std::vector<corpus::FieldSpec>& fields, const std::string& suffix) {
    for (auto& f : fields) {
        if (!f.store_to_db.empty()) f.store_to_db += suffix;
        rename_tables(f.children, suffix);
    }
}

/// Copy `k` of an endpoint: its name, path, token references and database
/// tables all get a per-copy suffix, so each copy is an isomorphic protocol
/// of its own and the generated ground truth stays exact.
corpus::EndpointSpec endpoint_copy(const corpus::EndpointSpec& e, std::size_t k,
                                   const std::set<std::string>& endpoints) {
    const std::string suffix = "_r" + std::to_string(k);
    const std::string prefix = "/r" + std::to_string(k);
    corpus::EndpointSpec c = e;
    c.name = e.name + suffix;
    c.path = prefix + e.path;
    for (auto& alt : c.path_alternatives) alt = prefix + alt;
    for (auto* params : {&c.query, &c.body_params, &c.headers}) {
        for (auto& p : *params) {
            if (p.value == corpus::ParamSpec::Value::kToken) {
                p.text = renamed_ref(p.text, suffix, endpoints);
            }
        }
    }
    if (c.uri_from.rfind("static:", 0) == 0) {
        c.uri_from = "static:" + renamed_ref(c.uri_from.substr(7), suffix, endpoints);
    } else if (c.uri_from.rfind("db:", 0) == 0) {
        std::string ref = c.uri_from.substr(3);
        auto dot = ref.find('.');
        c.uri_from = "db:" + ref.substr(0, dot) + suffix +
                     (dot == std::string::npos ? "" : ref.substr(dot));
    }
    rename_tables(c.response_fields, suffix);
    return c;
}

corpus::AppSpec large_variant(const corpus::AppSpec& base, std::size_t filler_scale,
                              std::size_t copies) {
    corpus::AppSpec spec = base;
    spec.filler_methods = base.filler_methods * filler_scale;
    std::set<std::string> names;
    for (const auto& e : base.endpoints) names.insert(e.name);
    for (std::size_t k = 2; k <= copies; ++k) {
        for (const auto& e : base.endpoints) spec.endpoints.push_back(endpoint_copy(e, k, names));
    }
    return spec;
}

// ---- daemon_mixed new releases -------------------------------------------

/// A new release of a corpus app: one seeded endpoint's path gains a
/// version segment, which changes the .xapk bytes and so the content key.
corpus::AppSpec new_release(const corpus::AppSpec& base, std::size_t release, Rng& rng) {
    corpus::AppSpec spec = base;
    std::vector<std::size_t> built_paths;
    for (std::size_t i = 0; i < spec.endpoints.size(); ++i) {
        if (spec.endpoints[i].uri_from.empty()) built_paths.push_back(i);
    }
    if (built_paths.empty()) throw std::runtime_error("no code-built path in " + base.name);
    auto& e = spec.endpoints[built_paths[rng.below(built_paths.size())]];
    e.path += "/v" + std::to_string(release + 2);
    return spec;
}

Input make_input(std::string label, corpus::AppSpec spec) {
    Input in;
    in.label = std::move(label);
    in.text = xapk::write_xapk(corpus::generate(spec).program);
    in.spec = std::move(spec);
    return in;
}

}  // namespace

WorkloadInputs generate_inputs(const std::string& workload, std::uint64_t seed,
                               double seconds) {
    WorkloadInputs w;
    w.workload = workload;
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x51ed27u);

    if (workload == "fleet_batch") {
        for (const auto& name : corpus_names()) {
            w.inputs.push_back(make_input(corpus::app_slug(name), corpus::app_spec(name)));
        }
        // A pass takes a few hundred ms, so twenty orders per second leave
        // room; the sequence wraps if a faster machine runs out of them.
        std::size_t passes = static_cast<std::size_t>(std::ceil(seconds * 20)) + 8;
        for (std::size_t p = 0; p < passes; ++p) {
            auto order = iota(w.inputs.size());
            rng.shuffle(order);
            w.sequence.insert(w.sequence.end(), order.begin(), order.end());
        }
    } else if (workload == "large_app") {
        // Three variants per closed-source spec, one per endpoint copy count.
        // Code bulk falls as protocol density rises: one copy draws its
        // filler scale from 10-12, two copies from 7-9, three from 4-6, and
        // the three offsets are a seeded permutation of 0, 1, 2. So the
        // population holds code-heavy and protocol-dense apps, and each spec
        // carries the same total code bulk under every seed.
        for (const auto& name : corpus::closed_source_apps()) {
            std::vector<std::size_t> offsets = {0, 1, 2};
            rng.shuffle(offsets);
            for (std::size_t copies = 1; copies <= 3; ++copies) {
                std::size_t scale = 13 - 3 * copies + offsets[copies - 1];
                w.inputs.push_back(make_input(
                    corpus::app_slug(name) + "-f" + std::to_string(scale) + "-e" +
                        std::to_string(copies),
                    large_variant(corpus::app_spec(name), scale, copies)));
            }
        }
        // Each cycle visits every variant once. Variants are ranked by size
        // into ten strata, and a cycle takes one seeded pick per stratum in
        // turn, so any prefix of a cycle (a run rarely ends on a cycle
        // boundary) holds small and large apps in population proportions.
        auto by_size = iota(w.inputs.size());
        std::stable_sort(by_size.begin(), by_size.end(), [&](std::uint32_t a, std::uint32_t b) {
            return w.inputs[a].text.size() < w.inputs[b].text.size();
        });
        constexpr std::size_t kStrata = 10;
        const std::size_t per_stratum = by_size.size() / kStrata;
        std::size_t cycles = static_cast<std::size_t>(std::ceil(seconds / 2)) + 4;
        for (std::size_t c = 0; c < cycles; ++c) {
            std::vector<std::vector<std::uint32_t>> strata(kStrata);
            for (std::size_t i = 0; i < by_size.size(); ++i) {
                strata[std::min(i / per_stratum, kStrata - 1)].push_back(by_size[i]);
            }
            for (auto& stratum : strata) rng.shuffle(stratum);
            for (std::size_t round = 0; round < per_stratum; ++round) {
                auto visit = iota(kStrata);
                rng.shuffle(visit);
                for (std::uint32_t s : visit) w.sequence.push_back(strata[s][round]);
            }
        }
    } else if (workload == "daemon_mixed") {
        auto names = corpus_names();
        for (const auto& name : names) {
            w.inputs.push_back(make_input(corpus::app_slug(name), corpus::app_spec(name)));
        }
        w.primed = w.inputs.size();
        // Fixed rate. About one slot in kMissEvery is a new release, rounded
        // to whole cycles of the corpus so every app is released equally
        // often. Releases are evenly spaced, so one cold analysis does not
        // queue behind the last; the seed picks which app each slot carries.
        auto slots = static_cast<std::size_t>(std::llround(kDaemonRate * seconds));
        std::size_t cycles = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(static_cast<double>(slots) /
                                                     kMissEvery / w.primed)));
        std::size_t releases = std::min(slots, cycles * w.primed);
        std::vector<char> is_release(slots, 0);
        for (std::size_t b = 0; b < releases; ++b) is_release[(2 * b + 1) * slots / (2 * releases)] = 1;
        std::vector<std::uint32_t> hit_order, release_order;
        for (std::size_t i = 0; i < slots; ++i) {
            Request r;
            r.due_ms = static_cast<double>(i) * 1000.0 / kDaemonRate;
            r.miss = is_release[i] != 0;
            auto& order = r.miss ? release_order : hit_order;
            if (order.empty()) {
                order = iota(w.primed);
                rng.shuffle(order);
            }
            std::uint32_t app = order.back();
            order.pop_back();
            if (r.miss) {
                std::size_t release = w.inputs.size() - w.primed;
                w.inputs.push_back(make_input(
                    w.inputs[app].label + "-rel" + std::to_string(release),
                    new_release(w.inputs[app].spec, release, rng)));
                r.input = static_cast<std::uint32_t>(w.inputs.size() - 1);
            } else {
                r.input = app;
            }
            w.schedule.push_back(r);
        }
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }

    Fnv fp;
    fp.add(workload);
    for (const auto& in : w.inputs) fp.add(in.label).add(in.text);
    for (std::uint32_t i : w.sequence) fp.add(std::uint64_t{i});
    for (const auto& r : w.schedule) {
        fp.add(std::uint64_t{r.input}).add(std::uint64_t{r.miss}).add(
            static_cast<std::uint64_t>(std::llround(r.due_ms * 1000)));
    }
    w.fingerprint = fp.value();
    return w;
}

void prepare_references(WorkloadInputs& w, unsigned jobs) {
    core::AnalyzerOptions options;
    options.jobs = jobs;
    core::Analyzer analyzer(options);
    std::vector<core::BatchInput> batch;
    batch.reserve(w.inputs.size());
    for (const auto& in : w.inputs) batch.push_back({in.label, in.text});
    auto items = analyzer.analyze_batch(std::move(batch));
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i].ok()) {
            throw std::runtime_error("reference analysis of " + w.inputs[i].label +
                                     " failed: " + items[i].error);
        }
        w.inputs[i].reference = canonical_hash(*items[i].report);
        w.inputs[i].counts =
            eval::evaluate_report(*items[i].report, corpus::generate(w.inputs[i].spec)).counts;
    }
}

}  // namespace perfbench

#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::vector<MetricDef>
build_defs()
{
    std::vector<MetricDef> d;
    const auto e2e = [&d](const std::string &n, const char *unit,
                          const char *better) {
        d.push_back({n, unit, better, true});
    };
    const auto layer = [&d](const std::string &n, const char *unit,
                            const char *better) {
        d.push_back({n, unit, better, false});
    };

    e2e("setup_s", "s", "lower");
    e2e("train.samples_per_s", "1/s", "higher");
    e2e("train.infer_samples_per_s", "1/s", "higher");
    e2e("train.unified_accuracy", "ratio", "higher");
    for (const auto &e : kEngines) {
        e2e("serve." + e + ".rps", "1/s", "higher");
        e2e("serve." + e + ".latency_p50_us", "us", "lower");
        e2e("serve." + e + ".latency_p99_us", "us", "lower");
    }
    e2e("sim.accesses_per_s", "1/s", "higher");
    e2e("sim.ipc_speedup", "ratio", "higher");

    // trace + core: set-up and the online-training calls.
    layer("trace.make_workload_s", "s", "lower");
    layer("sim.extract_llc_stream_s", "s", "lower");
    layer("core.adapter_build_s", "s", "lower");
    layer("core.train_on_s", "s", "lower");
    layer("core.train_on_calls", "count", "lower");
    layer("core.train_on_samples", "count", "higher");
    layer("core.predict_on_s", "s", "lower");
    layer("core.predict_on_calls", "count", "lower");
    layer("core.predict_on_samples", "count", "higher");
    layer("core.snapshot_s", "s", "lower");
    layer("core.predict_token_candidates_s", "s", "lower");
    layer("core.distill_to_table_s", "s", "lower");
    layer("core.table_bytes", "B", "lower");

    // nn, scoped to each phase by op_stats deltas.
    const auto nn_full = [&layer](const std::string &p) {
        layer(p + ".nn.lstm_gate_s", "s", "lower");
        layer(p + ".nn.lstm_gate_calls", "count", "lower");
        layer(p + ".nn.lstm_gate_ns_per_elem", "ns", "lower");
        layer(p + ".nn.gemm_s", "s", "lower");
        layer(p + ".nn.gemm_calls", "count", "lower");
        layer(p + ".nn.gemm_gflops_per_s", "GFLOP/s", "higher");
        layer(p + ".nn.attention_s", "s", "lower");
        layer(p + ".nn.attention_calls", "count", "lower");
    };
    nn_full("train");
    layer("train.unattributed_s", "s", "lower");
    layer("serve.fp32.nn.lstm_gate_s", "s", "lower");
    layer("serve.fp32.nn.lstm_gate_ns_per_elem", "ns", "lower");
    layer("serve.fp32.nn.gemm_s", "s", "lower");
    layer("serve.fp32.nn.gemm_gflops_per_s", "GFLOP/s", "higher");
    layer("serve.fp32.nn.attention_s", "s", "lower");
    layer("serve.int8.nn.qgemm_s", "s", "lower");
    layer("serve.int8.nn.qgemm_calls", "count", "lower");
    layer("serve.int8.nn.qgemm_gops_per_s", "GOP/s", "higher");
    layer("serve.int8.nn.lstm_gate_s", "s", "lower");
    layer("serve.distilled.nn_s", "s", "lower");
    for (const auto &e : kEngines)
        layer("serve." + e + ".unattributed_s", "s", "lower");

    // serve, per engine; times and counts are per pass (all tenants
    // served once), medians over the run's passes.
    for (const auto &e : kEngines) {
        const std::string p = "serve." + e + ".";
        layer(p + "encode_s", "s", "lower");
        layer(p + "submit_s", "s", "lower");
        layer(p + "dispatch_us_p50", "us", "lower");
        layer(p + "dispatch_us_p99", "us", "lower");
        layer(p + "forward_s", "s", "lower");
        layer(p + "pack_decode_s", "s", "lower");
        layer(p + "take_ready_s", "s", "lower");
        layer(p + "batches", "count", "lower");
        layer(p + "batch_size_mean", "count", "higher");
        layer(p + "padded_rows", "count", "lower");
        layer(p + "queue_depth_p99", "count", "lower");
        layer(p + "shed", "count", "lower");
    }
    layer("serve.distilled.hit_ratio", "ratio", "higher");
    layer("serve.distilled.probes", "count", "higher");
    layer("serve.distilled.fallback_rows", "count", "lower");

    // sim + prefetch, per prefetcher on the workload's trace.
    layer("sim.none.llc_miss_ratio", "ratio", "lower");
    for (const auto &pf : kPrefetchers) {
        const std::string p = "sim." + pf + ".";
        layer(p + "simulate_s", "s", "lower");
        if (pf == "none")
            continue;
        layer(p + "prefetcher_self_s", "s", "lower");
        layer(p + "issued", "count", "lower");
        layer(p + "useful", "count", "higher");
        layer(p + "late", "count", "lower");
        layer(p + "dropped", "count", "lower");
        layer(p + "accuracy", "ratio", "higher");
    }

    // Traced-run attribution.
    for (const char *l : {"trace", "sim", "prefetch", "core", "nn",
                          "serve", "unattributed"})
        layer(std::string("self.") + l + "_s", "s", "lower");
    layer("tracing.spans", "count", "lower");
    layer("tracing.serve_overhead_pct", "%", "lower");
    layer("tracing.sim_overhead_pct", "%", "lower");
    return d;
}

void
put_number(std::ostringstream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
put_string(std::ostringstream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

}  // namespace

const std::vector<MetricDef> &
metric_defs()
{
    static const std::vector<MetricDef> defs = build_defs();
    return defs;
}

double
quantile_sorted(const std::vector<double> &v, double q)
{
    if (v.empty())
        return std::nan("");
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
batch_median(const std::vector<double> &sorted)
{
    return 0.5 * (quantile_sorted(sorted, 7.0 / 16.0) +
                  quantile_sorted(sorted, 9.0 / 16.0));
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantile_sorted(v, 0.5);
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

void
Checks::count(std::uint64_t n, std::uint64_t failed,
              const std::string &what)
{
    attempted_ += n;
    failed_ += failed;
    if (failed != 0)
        failures_.push_back(what + ": " + std::to_string(failed) +
                            " of " + std::to_string(n) + " failed");
}

void
Checks::expect(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

namespace {

bool
declared(const std::string &name)
{
    const auto &defs = metric_defs();
    return std::any_of(defs.begin(), defs.end(),
                       [&](const MetricDef &d) { return d.name == name; });
}

}  // namespace

void
Report::set(const std::string &name, double value)
{
    if (!declared(name))
        throw std::logic_error("undeclared metric " + name);
    values_[name] = value;
}

void
Report::set_if_declared(const std::string &name, double value)
{
    (declared(name) ? values_ : details_)[name] = value;
}

void
Report::detail(const std::string &key, double value)
{
    details_[key] = value;
}

Summary
Report::timing(const std::string &key, std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    details_[key + ".n"] = n;
    const Summary out{quantile_sorted(v, 0.5), quantile_sorted(v, 0.99)};
    if (v.empty())
        return out;
    details_[key + ".p50"] = out.median;
    // Highest listed percentile with at least ten samples above it.
    for (const double q : {0.999, 0.99, 0.95, 0.9}) {
        if (n * (1.0 - q) >= 10.0) {
            char name[16];
            std::snprintf(name, sizeof(name), ".p%g", q * 100.0);
            details_[key + name] = quantile_sorted(v, q);
            break;
        }
    }
    return out;
}

void
Report::info(const std::string &key, const std::string &value)
{
    info_[key] = value;
}

std::string
Report::result_line(bool traced, Checks &checks) const
{
    std::ostringstream os;
    std::ostringstream metrics;
    bool first = true;
    for (const MetricDef &d : metric_defs()) {
        if (d.end_to_end == traced)
            continue;
        const auto it = values_.find(d.name);
        if (it == values_.end() || !std::isfinite(it->second)) {
            checks.expect(false, "metric " + d.name + " not measured");
            continue;
        }
        metrics << (first ? "" : ", ");
        first = false;
        put_string(metrics, d.name);
        metrics << ": {\"value\": ";
        put_number(metrics, it->second);
        metrics << ", \"unit\": ";
        put_string(metrics, d.unit);
        metrics << "}";
    }
    os << "{\"correct\": " << (checks.correct() ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {"
       << metrics.str() << "}}";
    return os.str();
}

std::string
Report::detail_json(const Checks &checks) const
{
    std::ostringstream os;
    os << "{\"info\": {";
    bool first = true;
    for (const auto &[k, v] : info_) {
        os << (first ? "" : ", ");
        first = false;
        put_string(os, k);
        os << ": ";
        put_string(os, v);
    }
    os << "}, \"metrics\": {";
    first = true;
    for (const auto &[k, v] : values_) {
        os << (first ? "" : ", ");
        first = false;
        put_string(os, k);
        os << ": ";
        put_number(os, v);
    }
    os << "}, \"detail\": {";
    first = true;
    for (const auto &[k, v] : details_) {
        if (!std::isfinite(v))
            continue;
        os << (first ? "" : ", ");
        first = false;
        put_string(os, k);
        os << ": ";
        put_number(os, v);
    }
    os << "}, \"failures\": [";
    first = true;
    for (const auto &f : checks.failures()) {
        os << (first ? "" : ", ");
        first = false;
        put_string(os, f);
    }
    os << "]}";
    return os.str();
}

}  // namespace perfbench

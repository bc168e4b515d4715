/**
 * @file
 * Serving phase: the trained model is served to 4 tenants through
 * PrefetchServer by each engine (fp32, int8, distilled tables with a
 * neural fallback) at the ServeConfig defaults (max_batch 8).
 *
 * The drive is a saturating closed loop in the style of
 * serve::run_interleaved: the next request is always ready, tenants
 * are picked in a seeded random order (the same in every pass of an
 * engine, so passes repeat the same work), and the server dispatches
 * only when a batch fills. There is no arrival schedule, because the
 * server has no wall-clock batching timeout: below saturation, latency
 * would measure the gap between arrivals rather than the code.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "core/tabular.hpp"
#include "serve/client.hpp"
#include "serve/predictor.hpp"
#include "serve/server.hpp"
#include "serve/tabular_predictor.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace perfbench {

namespace vc = voyager::core;
namespace vs = voyager::serve;
using voyager::Addr;

namespace {

/** Tenants served at once. */
constexpr std::size_t kTenants = 4;
/** Prefetch degree per request, as bench_serve serves. */
constexpr std::uint32_t kServeDegree = 2;
/** Byte budget of the distilled tables (TabularConfig default). */
constexpr std::uint64_t kTableBudget = 256 * 1024;
/** Every kSampleStride-th request of a tenant, among its first
 *  kSamplePrefix, is checked against a max_batch = 1 pass. */
constexpr std::size_t kSampleStride = 7;
constexpr std::size_t kSamplePrefix = 120;
/** A pass is timed in this many segments of equally many issued
 *  requests. */
constexpr std::size_t kSegments = 32;

/** Contiguous tenant slices of at most `requests` each, spread evenly
 *  over the stream, so they cover both the distilled prefix and the
 *  unseen rest; with `requests` >= a quarter of the stream they
 *  partition it. */
std::vector<std::vector<voyager::sim::LlcAccess>>
tenant_slices(const std::vector<vc::LlcAccess> &stream,
              std::size_t min_index, std::size_t tenants,
              std::size_t requests)
{
    const std::size_t usable = stream.size() - min_index;
    const std::size_t len = std::min(requests, usable / tenants);
    std::vector<std::vector<voyager::sim::LlcAccess>> slices;
    for (std::size_t i = 0; i < tenants; ++i) {
        const std::size_t start =
            min_index + i * (usable - len) / (tenants - 1);
        slices.emplace_back(stream.begin() + start,
                            stream.begin() + start + len);
    }
    return slices;
}

struct Pass
{
    double wall = 0.0;
    double encode = 0.0;
    double submit = 0.0;
    double take_ready = 0.0;
    /** Submit calls that dispatched a batch, plus the final flush. */
    double dispatch = 0.0;
    double forward = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t padded_rows = 0;
    std::uint64_t shed = 0;
    std::uint64_t missing = 0;
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t fallback_rows = 0;
    std::vector<double> dispatch_us;
    /** latency_us[first[tenant] + seq]; NaN when no response came. */
    std::vector<double> latency_us;
    /** Wall seconds of each of the kSegments segments. */
    std::vector<double> segment_s;
    std::vector<double> queue_depth;
    /** Reference passes keep lines[tenant][seq] (empty when no
     *  response arrived); timed passes compare the sampled requests
     *  against the reference instead. */
    std::vector<std::vector<std::vector<Addr>>> lines;
    std::uint64_t sampled = 0;
    std::uint64_t wrong = 0;
};

/** Serve every slice once; the distilled engine when `table` is set.
 *  Without `ref` the pass is a reference pass and keeps its lines. */
Pass
serve_pass(Run &run, vs::TokenPredictor &neural,
           const vc::TabularTable *table,
           const std::vector<std::vector<voyager::sim::LlcAccess>> &slices,
           std::size_t max_batch, std::uint64_t seed, const Pass *ref)
{
    Tracer &tracer = run.tracer;
    // Drift state is per tenant and accumulates, so every pass gets a
    // fresh distilled predictor.
    std::optional<vs::TabularPredictor> tabular;
    if (table != nullptr)
        tabular.emplace(*table, neural);
    vs::TokenPredictor &pred =
        tabular ? static_cast<vs::TokenPredictor &>(*tabular) : neural;
    vs::ServeConfig sc;
    sc.max_batch = max_batch;
    vs::PrefetchServer server(pred, sc);
    std::vector<vs::SimulatedClient> clients;
    Pass p;
    std::vector<std::vector<double>> submitted(slices.size());
    std::vector<std::size_t> first(slices.size() + 1, 0);
    p.lines.resize(slices.size());
    for (std::uint32_t t = 0; t < slices.size(); ++t) {
        clients.emplace_back(t, slices[t], run.adapter->vocab(),
                             run.model_cfg.seq_len, kServeDegree);
        submitted[t].assign(slices[t].size(), 0.0);
        first[t + 1] = first[t] + slices[t].size();
        if (ref == nullptr)
            p.lines[t].resize(slices[t].size());
    }
    const std::size_t total = first.back();
    p.latency_us.assign(total, std::nan(""));

    std::vector<vs::PrefetchResponse> ready;
    const auto deliver = [&](double at) {
        for (vs::PrefetchResponse &r : ready) {
            p.latency_us[first[r.tenant] + r.seq] =
                (at - submitted[r.tenant][r.seq]) * 1e6;
            if (ref == nullptr) {
                p.lines[r.tenant][r.seq] = r.lines;
            } else if (r.seq < ref->lines[r.tenant].size() &&
                       r.seq % kSampleStride == 0) {
                ++p.sampled;
                if (r.lines != ref->lines[r.tenant][r.seq])
                    ++p.wrong;
            }
            clients[r.tenant].deliver(std::move(r));
        }
    };

    voyager::Rng rng(seed);
    std::vector<std::size_t> live(clients.size());
    std::iota(live.begin(), live.end(), 0);
    std::size_t issued = 0;
    const double start = now_s();
    double segment_start = start;
    while (!live.empty()) {
        const std::size_t pick = rng.next_below(live.size());
        vs::SimulatedClient &c = clients[live[pick]];
        const std::uint32_t tenant = c.tenant();
        const std::uint64_t seq = c.issued();
        const double t0 = now_s();
        vs::PrefetchRequest req;
        {
            Span s(tracer, "serve.encode", tenant, seq);
            req = c.next_request();
        }
        const std::size_t before = server.pending();
        const double t1 = now_s();
        vs::SubmitResult admitted;
        {
            Span s(tracer, "serve.submit", tenant, seq);
            admitted = server.submit(std::move(req));
        }
        const double t2 = now_s();
        submitted[tenant][seq] = t1;
        const bool accepted = admitted == vs::SubmitResult::Accepted;
        if (accepted)
            p.queue_depth.push_back(static_cast<double>(before + 1));
        else
            c.record_shed(seq);
        if (server.pending() < before + (accepted ? 1 : 0)) {
            p.dispatch += t2 - t1;
            p.dispatch_us.push_back((t2 - t1) * 1e6);
        }
        {
            Span s(tracer, "serve.take_ready", tenant, seq);
            ready = server.take_ready();
        }
        const double t3 = now_s();
        deliver(t3);
        p.encode += t1 - t0;
        p.submit += t2 - t1;
        p.take_ready += t3 - t2;
        if (c.done()) {
            live[pick] = live.back();
            live.pop_back();
        }
        ++issued;
        // The last segment ends with the flush below.
        if (p.segment_s.size() + 1 < kSegments &&
            issued == (p.segment_s.size() + 1) * total / kSegments) {
            p.segment_s.push_back(t3 - segment_start);
            segment_start = t3;
        }
    }
    const double f0 = now_s();
    {
        Span s(tracer, "serve.flush");
        server.flush();
        ready = server.take_ready();
    }
    const double f1 = now_s();
    deliver(f1);
    p.dispatch += f1 - f0;
    p.wall = f1 - start;
    p.segment_s.push_back(f1 - segment_start);

    voyager::StatRegistry reg;
    server.export_stats(reg);
    p.forward = reg.gauge("serve.forward.seconds", true);
    p.batches = reg.counter("serve.batches");
    p.padded_rows = reg.counter("serve.padded_rows");
    p.shed = reg.counter("serve.queue.shed");
    if (tabular) {
        tabular->export_stats(reg);
        p.probes = reg.counter("distill.serve.probes");
        p.hits = reg.counter("distill.serve.l1_hits") +
                 reg.counter("distill.serve.l2_hits");
        p.fallback_rows = reg.counter("distill.serve.fallback_rows");
    }
    for (const auto &c : clients) {
        p.requests += c.issued();
        p.missing +=
            c.issued() - c.responses().size() - c.shed().size();
    }
    if (ref != nullptr) {
        // A sampled request that got no response counts as wrong.
        std::uint64_t expected = 0;
        for (const auto &t : ref->lines)
            expected += (t.size() + kSampleStride - 1) / kSampleStride;
        p.wrong += expected - p.sampled;
        p.sampled = expected;
    }
    return p;
}

/** Nearest-rank 99th percentile of a depth histogram. */
double
depth_p99(const std::vector<std::uint64_t> &counts)
{
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    std::uint64_t seen = 0;
    for (std::size_t d = 0; d < counts.size(); ++d) {
        seen += counts[d];
        if (static_cast<double>(seen) >= 0.99 * static_cast<double>(total))
            return static_cast<double>(d);
    }
    return std::nan("");
}

template <typename T>
double
median_of(const std::vector<Pass> &passes, T Pass::*field)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(static_cast<double>(p.*field));
    return median(v);
}

}  // namespace

struct ServePhase::Impl
{
    /** Everything one engine accumulates over the run's passes. */
    struct Engine
    {
        /** What every pass serves, and its max_batch = 1 sample. */
        std::vector<std::vector<voyager::sim::LlcAccess>> slices;
        std::vector<std::vector<voyager::sim::LlcAccess>> ref_slices;
        Pass ref;
        std::vector<Pass> passes;
        std::vector<double> traced_wall, untraced_wall;
        /** Per pass: request latency p50 and p99, throughput, wall
         *  seconds, dispatch minus forward seconds. */
        std::vector<double> latency_p50, latency_p99, rps, wall, pack;
        /** Every pass repeats the same requests in the same order:
         *  segment_s[k] holds segment k's seconds in every pass, and
         *  fastest_latency each request's lowest latency so far. */
        std::vector<std::vector<double>> segment_s;
        std::vector<double> fastest_latency;
        /** Every dispatching submit's seconds, pooled (microseconds). */
        std::vector<double> dispatch_us;
        /** depth[d]: submits that left d requests queued. */
        std::vector<std::uint64_t> depth;
        std::uint64_t requests = 0, missing = 0, sampled = 0, wrong = 0;
        OpDelta ops;
    };

    explicit Impl(Run &r) : run(r), neural(*r.adapter) {}

    /** Route the adapter through the engine's inference path. */
    void
    select(std::size_t engine)
    {
        vc::VoyagerAdapter &a = *run.adapter;
        const bool int8 = kEngines[engine] == "int8";
        if (int8 && a.int8_model() == nullptr)
            a.enable_int8_inference();
        else if (!int8 && a.int8_model() != nullptr)
            a.disable_int8_inference();
    }

    const vc::TabularTable *
    table_for(std::size_t engine) const
    {
        return kEngines[engine] == "distilled" ? &*table : nullptr;
    }

    Run &run;
    vs::AdapterPredictor neural;
    std::optional<vc::TabularTable> table;
    std::vector<Engine> engines;
    double setup_s = 0.0;
};

ServePhase::ServePhase(Run &run) : impl_(std::make_unique<Impl>(run))
{
    Impl &m = *impl_;
    const Sizes &z = run.opt.sizes;
    vc::VoyagerAdapter &adapter = *run.adapter;
    Report &r = run.report;

    // Engine set-up: the int8 snapshot and the distilled tables, built
    // from the teacher's candidates over the first half of the stream.
    vc::TabularConfig tab_cfg;
    tab_cfg.degree = kServeDegree;
    tab_cfg.budget_bytes = kTableBudget;
    std::vector<std::size_t> teach_idx(run.stream.size() / 2 -
                                       adapter.min_index());
    std::iota(teach_idx.begin(), teach_idx.end(), adapter.min_index());
    std::vector<double> t_quant, t_teacher, t_distill, t_total;
    std::size_t mismatches = 0;
    for (std::size_t rep = 0; rep < z.setup_reps; ++rep) {
        Span phase(run.tracer, "phase.serve_setup");
        const double t0 = now_s();
        {
            Span s(run.tracer, "core.quantize");
            adapter.enable_int8_inference();
        }
        adapter.disable_int8_inference();
        const double t1 = now_s();
        std::vector<std::vector<vc::TokenPrediction>> teacher;
        {
            Span s(run.tracer, "core.predict_token_candidates");
            teacher = adapter.predict_token_candidates(teach_idx,
                                                       tab_cfg.degree + 2);
        }
        const double t2 = now_s();
        std::optional<vc::TabularTable> built;
        {
            Span s(run.tracer, "core.distill_to_table");
            built.emplace(vc::distill_to_table(adapter.encoded(), teach_idx,
                                               teacher,
                                               run.model_cfg.seq_len,
                                               tab_cfg));
        }
        const double t3 = now_s();
        t_quant.push_back(t1 - t0);
        t_teacher.push_back(t2 - t1);
        t_distill.push_back(t3 - t2);
        t_total.push_back(t3 - t0);
        if (m.table && (built->storage_bytes() != m.table->storage_bytes() ||
                        built->l1_entries() != m.table->l1_entries()))
            ++mismatches;
        m.table = std::move(built);
    }
    run.checks.count(z.setup_reps, mismatches,
                     "distillation repeats give the same table");
    r.timing("serve_setup.quantize_s", t_quant);
    r.set("core.predict_token_candidates_s",
          r.timing("serve_setup.predict_token_candidates_s", t_teacher)
              .median);
    r.set("core.distill_to_table_s",
          r.timing("serve_setup.distill_to_table_s", t_distill).median);
    r.set("core.table_bytes", static_cast<double>(m.table->storage_bytes()));
    m.setup_s = r.timing("serve_setup.total_s", t_total).median;

    // A neural engine costs the same on every request, so short slices
    // give it many passes. The distilled engine's cost depends on
    // whether a request hits its tables, and on `pr` one miss costs as
    // much as hundreds of hits: it serves the whole stream, a quarter
    // per tenant, so every pass sees all of the stream's misses and
    // their number hardly moves between seeds.
    m.engines.resize(kEngines.size());
    r.detail("serve.tenants", static_cast<double>(kTenants));
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
        Impl::Engine &st = m.engines[e];
        st.slices = tenant_slices(
            run.stream, adapter.min_index(), kTenants,
            kEngines[e] == "distilled" ? run.stream.size()
                                       : z.requests_per_tenant);
        r.detail("serve." + kEngines[e] + ".requests_per_tenant",
                 static_cast<double>(st.slices.front().size()));
        for (const auto &s : st.slices)
            st.ref_slices.emplace_back(
                s.begin(),
                s.begin() + static_cast<std::ptrdiff_t>(
                                std::min(kSamplePrefix, s.size())));
    }

    // Reference answers: each engine at max_batch = 1, untimed.
    run.tracer.set_enabled(false);
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
        m.select(e);
        m.engines[e].ref = serve_pass(run, m.neural, m.table_for(e),
                                      m.engines[e].ref_slices, 1,
                                      run.opt.seed, nullptr);
    }
    run.tracer.set_enabled(true);
}

ServePhase::~ServePhase() = default;

double
ServePhase::setup_s() const
{
    return impl_->setup_s;
}

void
ServePhase::pass(std::size_t e)
{
    Impl &m = *impl_;
    Run &run = m.run;
    Impl::Engine &st = m.engines[e];
    static const char *const kPhase[] = {
        "phase.serve.fp32", "phase.serve.int8", "phase.serve.distilled"};
    m.select(e);
    // A traced run alternates traced and untraced passes, so the
    // tracing overhead is measured on the same work.
    const std::size_t i = st.passes.size();
    const bool traced = run.tracer.active() && i % 2 == 1;
    run.tracer.set_enabled(traced);
    const std::uint64_t seed = run.opt.seed * 1000003 + e * 7919;
    const OpDelta before = OpDelta::snapshot();
    {
        Span phase(run.tracer, kPhase[e]);
        st.passes.push_back(serve_pass(run, m.neural, m.table_for(e),
                                       st.slices, 8, seed, &st.ref));
    }
    st.ops += OpDelta::snapshot() - before;
    run.tracer.set_enabled(true);

    // Summarise the samples and drop them from the pass, so long runs
    // of the cheap engine stay small.
    Pass &ps = st.passes.back();
    (traced ? st.traced_wall : st.untraced_wall).push_back(ps.wall);
    if (st.fastest_latency.empty()) {
        st.fastest_latency = ps.latency_us;
        st.segment_s.resize(kSegments);
    } else {
        for (std::size_t r = 0; r < ps.latency_us.size(); ++r)
            st.fastest_latency[r] =
                std::fmin(st.fastest_latency[r], ps.latency_us[r]);
    }
    for (std::size_t k = 0; k < kSegments; ++k)
        st.segment_s[k].push_back(ps.segment_s[k]);
    std::erase_if(ps.latency_us, [](double v) { return std::isnan(v); });
    std::sort(ps.latency_us.begin(), ps.latency_us.end());
    st.latency_p50.push_back(batch_median(ps.latency_us));
    st.latency_p99.push_back(quantile_sorted(ps.latency_us, 0.99));
    st.dispatch_us.insert(st.dispatch_us.end(), ps.dispatch_us.begin(),
                          ps.dispatch_us.end());
    for (const double d : ps.queue_depth) {
        const auto i = static_cast<std::size_t>(d);
        if (st.depth.size() <= i)
            st.depth.resize(i + 1);
        ++st.depth[i];
    }
    ps.latency_us = {};
    ps.dispatch_us = {};
    ps.queue_depth = {};
    st.rps.push_back(static_cast<double>(ps.requests) / ps.wall);
    st.wall.push_back(ps.wall);
    st.pack.push_back(ps.dispatch - ps.forward);
    st.requests += ps.requests;
    st.missing += ps.missing + ps.shed;
    st.sampled += ps.sampled;
    st.wrong += ps.wrong;
}

void
ServePhase::report()
{
    Impl &m = *impl_;
    Run &run = m.run;
    Report &r = run.report;
    m.run.adapter->disable_int8_inference();
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
        const std::string &engine = kEngines[e];
        Impl::Engine &st = m.engines[e];
        const std::vector<Pass> &passes = st.passes;

        // Correctness: every issued request answered (a shed request
        // counts as failed), and the sampled requests answered exactly
        // as at max_batch = 1.
        run.checks.count(st.requests, st.missing,
                         engine + " requests answered (not shed)");
        run.checks.count(st.sampled, st.wrong,
                         engine + " sampled lines match max_batch=1");
        run.checks.expect(st.ref.missing == 0 && st.ref.shed == 0,
                          engine + " max_batch=1 pass answered all");

        const std::string p = "serve." + engine + ".";
        // Every pass repeats the same requests in the same order; the
        // end-to-end figures are read from the fastest repeat of each
        // segment and of each request (see fastest()), the detail
        // document keeps per-pass medians and the all-pass throughput.
        double wall_sum = 0.0, fastest_s = 0.0;
        for (const double w : st.wall)
            wall_sum += w;
        for (const auto &seg : st.segment_s)
            fastest_s += fastest(seg);
        const double per_pass = static_cast<double>(st.requests) /
                                static_cast<double>(passes.size());
        r.set(p + "rps", per_pass / fastest_s);
        std::erase_if(st.fastest_latency,
                      [](double v) { return std::isnan(v); });
        std::sort(st.fastest_latency.begin(), st.fastest_latency.end());
        r.set(p + "latency_p50_us", batch_median(st.fastest_latency));
        r.set(p + "latency_p99_us",
              r.timing(p + "fastest_latency_us", st.fastest_latency).p99);
        r.timing(p + "rps_per_pass", st.rps);
        r.timing(p + "latency_p50_us_per_pass", st.latency_p50);
        r.timing(p + "latency_p99_us_per_pass", st.latency_p99);
        r.detail(p + "rps_all_passes",
                 static_cast<double>(st.requests) / wall_sum);
        r.detail(p + "requests_per_pass", per_pass);
        const Summary disp =
            r.timing(p + "dispatch_us", std::move(st.dispatch_us));
        r.set(p + "dispatch_us_p50", disp.median);
        r.set(p + "dispatch_us_p99", disp.p99);
        r.set(p + "queue_depth_p99", depth_p99(st.depth));
        r.timing(p + "pass_s", st.wall);
        r.set(p + "encode_s", median_of(passes, &Pass::encode));
        r.set(p + "submit_s", median_of(passes, &Pass::submit));
        r.set(p + "take_ready_s", median_of(passes, &Pass::take_ready));
        r.set(p + "forward_s", median_of(passes, &Pass::forward));
        r.set(p + "pack_decode_s", median(st.pack));
        r.set(p + "batches", median_of(passes, &Pass::batches));
        r.set(p + "padded_rows", median_of(passes, &Pass::padded_rows));
        r.set(p + "shed", median_of(passes, &Pass::shed));
        std::uint64_t batches = 0, answered = 0, probes = 0, hits = 0;
        for (const Pass &ps : passes) {
            batches += ps.batches;
            answered += ps.requests - ps.shed;
            probes += ps.probes;
            hits += ps.hits;
        }
        r.set(p + "batch_size_mean", static_cast<double>(answered) /
                                         static_cast<double>(batches));
        // Op seconds per pass, and the pass time they leave over.
        const double scale = 1.0 / static_cast<double>(passes.size());
        report_ops(r, "serve." + engine, st.ops, scale);
        r.set(p + "unattributed_s",
              median(st.wall) - st.ops.total_seconds() * scale);
        r.detail(p + "passes", static_cast<double>(passes.size()));
        if (engine == "distilled") {
            r.set(p + "hit_ratio",
                  static_cast<double>(hits) / static_cast<double>(probes));
            r.set(p + "probes", median_of(passes, &Pass::probes));
            r.set(p + "fallback_rows",
                  median_of(passes, &Pass::fallback_rows));
            r.set(p + "nn_s", st.ops.total_seconds() * scale);
        }
        if (!st.traced_wall.empty() && !st.untraced_wall.empty()) {
            const double pct = (median(st.traced_wall) /
                                    median(st.untraced_wall) -
                                1.0) *
                               100.0;
            r.detail("tracing." + p + "overhead_pct", pct);
            worst = std::max(worst, pct);
        }
    }
    // The engine whose passes tracing slows most: the per-request
    // spans cost the same everywhere, so the cheapest engine shows
    // them.
    if (std::isfinite(worst))
        r.set("tracing.serve_overhead_pct", worst);
}

}  // namespace perfbench

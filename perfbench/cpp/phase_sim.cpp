/**
 * @file
 * Simulation phase: the rule prefetchers in the cycle-level simulator
 * on the workload's trace. No nn code runs here.
 */
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "prefetch/registry.hpp"

namespace perfbench {

namespace vsim = voyager::sim;

namespace {

/**
 * Times the prefetcher's callbacks and charges them to the `prefetch`
 * layer; used only in traced passes.
 */
class TimedPrefetcher final : public vsim::Prefetcher
{
  public:
    TimedPrefetcher(vsim::Prefetcher &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::vector<voyager::Addr>
    on_access(const vsim::LlcAccess &access) override
    {
        const double t0 = now_s();
        auto out = inner_.on_access(access);
        tracer_.attribute("prefetch", now_s() - t0);
        return out;
    }

    std::uint64_t storage_bytes() const override
    {
        return inner_.storage_bytes();
    }

  private:
    vsim::Prefetcher &inner_;
    Tracer &tracer_;
};

bool
same_counters(const vsim::SimResult &a, const vsim::SimResult &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.llc_accesses == b.llc_accesses &&
           a.llc_misses == b.llc_misses &&
           a.prefetches_issued == b.prefetches_issued &&
           a.prefetches_useful == b.prefetches_useful &&
           a.prefetches_late == b.prefetches_late &&
           a.prefetches_dropped == b.prefetches_dropped;
}

}  // namespace

struct SimPhase::Impl
{
    explicit Impl(Run &r)
        : run(r), first(r.sim_traces.size(),
                        std::vector<vsim::SimResult>(kPrefetchers.size())),
          secs(r.sim_traces.size(),
               std::vector<std::vector<double>>(kPrefetchers.size())),
          pf_secs(kPrefetchers.size())
    {
        for (const auto &t : r.sim_traces)
            accesses += t.size();
    }

    Run &run;
    std::size_t accesses = 0;
    std::size_t passes = 0;
    /** first[t][p]: the first pass's result; secs[t][p]: per pass. */
    std::vector<std::vector<vsim::SimResult>> first;
    std::vector<std::vector<std::vector<double>>> secs;
    /** Per prefetcher, per pass: seconds summed over the traces. */
    std::vector<std::vector<double>> pf_secs;
    std::vector<double> pass_rate, wall, traced_wall, untraced_wall;
    std::uint64_t calls = 0, mismatches = 0;
};

SimPhase::SimPhase(Run &run) : impl_(std::make_unique<Impl>(run)) {}

SimPhase::~SimPhase() = default;

void
SimPhase::pass()
{
    Impl &m = *impl_;
    Tracer &tracer = m.run.tracer;
    // Span names must outlive the tracer.
    static const char *const kSpan[] = {
        "sim.simulate.none",   "sim.simulate.isb", "sim.simulate.stms",
        "sim.simulate.domino", "sim.simulate.bo",
        "sim.simulate.stream_group"};
    const std::size_t n_pf = kPrefetchers.size();
    const bool traced = tracer.active() && m.passes % 2 == 1;
    tracer.set_enabled(traced);
    double pass_s = 0.0;
    std::vector<double> pf_s(n_pf, 0.0);
    {
        Span phase(tracer, "phase.sim");
        for (std::size_t t = 0; t < m.run.sim_traces.size(); ++t)
            for (std::size_t i = 0; i < n_pf; ++i) {
                auto pf =
                    voyager::prefetch::make_prefetcher(kPrefetchers[i], 1);
                TimedPrefetcher timed(*pf, tracer);
                vsim::Prefetcher &use =
                    traced ? static_cast<vsim::Prefetcher &>(timed) : *pf;
                vsim::SimResult res;
                const double t0 = now_s();
                {
                    Span s(tracer, kSpan[i]);
                    res = vsim::simulate(m.run.sim_traces[t],
                                         m.run.sim_cfg, use);
                }
                const double dt = now_s() - t0;
                m.secs[t][i].push_back(dt);
                pf_s[i] += dt;
                pass_s += dt;
                ++m.calls;
                if (m.passes == 0)
                    m.first[t][i] = res;
                else if (!same_counters(res, m.first[t][i]))
                    ++m.mismatches;
            }
    }
    tracer.set_enabled(true);
    for (std::size_t i = 0; i < n_pf; ++i)
        m.pf_secs[i].push_back(pf_s[i]);
    m.pass_rate.push_back(static_cast<double>(n_pf * m.accesses) / pass_s);
    m.wall.push_back(pass_s);
    (traced ? m.traced_wall : m.untraced_wall).push_back(pass_s);
    ++m.passes;
}

void
SimPhase::report()
{
    Impl &m = *impl_;
    Report &r = m.run.report;
    const std::size_t n_pf = kPrefetchers.size();
    const std::size_t n_tr = m.run.sim_traces.size();
    m.run.checks.count(m.calls, m.mismatches,
                       "simulate repeats give identical SimResult counters");
    m.run.checks.expect(m.passes >= 2, "sim ran at least two passes");
    std::uint64_t none_issued = 0, llc_accesses = 0, llc_misses = 0;
    for (std::size_t t = 0; t < n_tr; ++t) {
        none_issued += m.first[t][0].prefetches_issued;
        llc_accesses += m.first[t][0].llc_accesses;
        llc_misses += m.first[t][0].llc_misses;
    }
    m.run.checks.expect(none_issued == 0,
                        "prefetcher none issues no prefetches");

    // Throughput from each simulation's fastest repeat (see
    // fastest()): a pass is 18 simulations, and a slow spell of the
    // host that touches one of them costs only that one.
    double sim_s = 0.0, fastest_s = 0.0;
    for (const double w : m.wall)
        sim_s += w;
    for (const auto &per_trace : m.secs)
        for (const auto &s : per_trace)
            fastest_s += fastest(s);
    const double per_pass =
        static_cast<double>(kPrefetchers.size() * m.accesses);
    r.set("sim.accesses_per_s", per_pass / fastest_s);
    r.timing("sim.accesses_per_s_per_pass", m.pass_rate);
    r.detail("sim.accesses_per_s_all_passes",
             per_pass * static_cast<double>(m.passes) / sim_s);
    r.detail("sim.trace_accesses", static_cast<double>(m.accesses));
    r.set("sim.none.llc_miss_ratio", static_cast<double>(llc_misses) /
                                         static_cast<double>(llc_accesses));
    const double none_s =
        r.timing("sim.none.simulate_s", m.pf_secs[0]).median;
    r.set("sim.none.simulate_s", none_s);
    double log_sum = 0.0;
    for (std::size_t i = 1; i < n_pf; ++i) {
        const std::string p = "sim." + kPrefetchers[i] + ".";
        const double s = r.timing(p + "simulate_s", m.pf_secs[i]).median;
        r.set(p + "simulate_s", s);
        r.set(p + "prefetcher_self_s", s - none_s);
        std::uint64_t issued = 0, useful = 0, late = 0, dropped = 0;
        for (std::size_t t = 0; t < n_tr; ++t) {
            const vsim::SimResult &res = m.first[t][i];
            issued += res.prefetches_issued;
            useful += res.prefetches_useful;
            late += res.prefetches_late;
            dropped += res.prefetches_dropped;
            log_sum += std::log(res.ipc / m.first[t][0].ipc);
        }
        r.set(p + "issued", static_cast<double>(issued));
        r.set(p + "useful", static_cast<double>(useful));
        r.set(p + "late", static_cast<double>(late));
        r.set(p + "dropped", static_cast<double>(dropped));
        r.set(p + "accuracy", issued ? static_cast<double>(useful) /
                                           static_cast<double>(issued)
                                     : 0.0);
    }
    // Per (trace, prefetcher) figures for the detail document.
    for (std::size_t t = 0; t < n_tr; ++t)
        for (std::size_t i = 0; i < n_pf; ++i) {
            const vsim::SimResult &res = m.first[t][i];
            const std::string p =
                "sim." + kSimTraces[t] + "." + kPrefetchers[i] + ".";
            r.timing(p + "simulate_s", m.secs[t][i]);
            r.detail(p + "ipc", res.ipc);
            r.detail(p + "issued", static_cast<double>(res.prefetches_issued));
            r.detail(p + "useful", static_cast<double>(res.prefetches_useful));
        }
    r.set("sim.ipc_speedup",
          std::exp(log_sum / static_cast<double>(n_tr * (n_pf - 1))));
    if (!m.traced_wall.empty() && !m.untraced_wall.empty())
        r.set("tracing.sim_overhead_pct",
              (median(m.traced_wall) / median(m.untraced_wall) - 1.0) *
                  100.0);
}

}  // namespace perfbench

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened around every call the benchmark makes into a layer
 * of the library (trace, sim, prefetch, core, nn, serve). Each span
 * carries a name, start, end, parent and, for serving, a request id
 * (tenant, seq). The layer of a span is its name up to the first '.';
 * spans named `phase.*` mark the benchmark's phases and their self
 * time is the phase's unattributed remainder.
 *
 * Two kinds of time are charged to a layer without a span of their
 * own, because a span per event would cost more than the event:
 *  - nn op seconds: the process-global `nn::op_stats()` counters are
 *    read when a span opens and closes, and the delta not already
 *    claimed by child spans moves from the span's self time to `nn`;
 *  - prefetcher callbacks: the simulator calls the prefetcher once
 *    per LLC access, so their time is summed and charged with
 *    attribute().
 *
 * A disabled tracer records nothing and costs one branch per span.
 * Spans stay in memory (up to a cap, after which only the self-time
 * totals keep counting) and are written out as Chrome trace-event
 * JSON when the run ends.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (arbitrary epoch). */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Sum of the wall seconds of every nn op class so far. */
double nn_op_seconds();

class Tracer
{
  public:
    /** Tenant value of spans that belong to no request. */
    static constexpr std::uint32_t kNoTenant = 0xffffffffu;

    Tracer(bool enabled, std::size_t max_stored);

    bool enabled() const { return enabled_; }

    /** Pause or resume recording; only between top-level spans. */
    void set_enabled(bool on);

    /** Whether this tracer records at all (set at construction). */
    bool active() const { return active_; }

    void open(const char *name, std::uint32_t tenant, std::uint64_t seq);
    void close();

    /** Charge `seconds` spent inside the innermost open span to
     *  `layer` (time counted by the caller, not by a child span). */
    void attribute(const char *layer, double seconds);

    /** Self seconds per (phase, layer); phase "run" collects time
     *  outside every phase span. */
    const std::map<std::pair<std::string, std::string>, double> &
    self_seconds() const
    {
        return self_;
    }

    /** Self seconds per layer summed over phases. */
    std::map<std::string, double> self_by_layer() const;

    std::uint64_t spans() const { return next_id_; }
    std::uint64_t dropped() const { return next_id_ - stored_.size(); }

    /** Chrome trace-event JSON of the stored spans. */
    void write_json(std::ostream &os) const;

  private:
    struct Open
    {
        const char *name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint32_t tenant;
        std::uint64_t seq;
        double start;
        double nn_start;
        /** Wall seconds of closed children. */
        double child;
        /** nn seconds already charged by closed children. */
        double child_nn;
        /** Seconds charged by attribute(). */
        double attributed;
        /** Index into phase_names_ of the enclosing phase. */
        std::size_t phase;
    };

    struct Stored
    {
        const char *name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint32_t tenant;
        std::uint64_t seq;
        double start;
        double end;
    };

    void charge(std::size_t phase, const std::string &layer, double s);

    bool active_;
    bool enabled_;
    std::size_t max_stored_;
    std::uint64_t next_id_ = 0;
    double origin_;
    std::vector<Open> stack_;
    std::vector<Stored> stored_;
    std::vector<std::string> phase_names_{"run"};
    std::map<std::pair<std::string, std::string>, double> self_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &t, const char *name,
         std::uint32_t tenant = Tracer::kNoTenant, std::uint64_t seq = 0)
        : t_(t.enabled() ? &t : nullptr)
    {
        if (t_ != nullptr)
            t_->open(name, tenant, seq);
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

}  // namespace perfbench

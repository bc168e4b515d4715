/**
 * @file
 * Shared state of one benchmark run and the phase entry points.
 *
 * Every workload runs the same four phases, so every run reports every
 * metric; the workload picks the trace that training and serving use:
 *   setup  trace generation, LLC-stream extraction, adapter build
 *          (repeated; medians reported);
 *   train  Voyager online training + epoch-by-epoch prediction on the
 *          workload's trace;
 *   serve  the trained model served to 4 tenants by each engine
 *          (fp32, int8, distilled tables), after the engine set-up
 *          (int8 snapshot, distillation), repeated like set-up;
 *   sim    the rule prefetchers in the simulator on the same three
 *          traces (mcf, pr, xf_decode) for every workload.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"
#include "trace/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

/** Traces of the sim phase: two irregular, one streaming. */
inline const std::vector<std::string> kSimTraces = {"mcf", "pr",
                                                    "xf_decode"};

/** Workload sizes: `small` is the benchmark, `tiny` the smoke test. */
struct Sizes
{
    voyager::trace::gen::Scale scale;
    /** LLC accesses kept per trace (the bench harness's llc_cap). */
    std::size_t llc_cap;
    std::size_t epochs;
    std::size_t passes;
    std::size_t max_train_samples;
    /** Set-up repetitions (pre-training and serving engine set-up). */
    std::size_t setup_reps;
    /** Requests per tenant and pass of a neural serving engine (the
     *  distilled engine serves the whole stream). */
    std::size_t requests_per_tenant;

    static Sizes small();
    static Sizes tiny();
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    Sizes sizes = Sizes::small();
    std::string spans_path;
};

/** Everything the phases share. Not copyable: the adapter borrows
 *  `stream`. */
struct Run
{
    Options opt;
    Tracer tracer;
    Report report;
    Checks checks;

    voyager::sim::SimConfig sim_cfg;
    /** The sim phase's traces, in kSimTraces order. */
    std::vector<voyager::trace::Trace> sim_traces;
    /** LLC stream of the workload's trace. */
    std::vector<voyager::core::LlcAccess> stream;
    voyager::core::VoyagerConfig model_cfg;
    std::unique_ptr<voyager::core::VoyagerAdapter> adapter;

    explicit Run(const Options &o);
    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;
};

/** Traces, LLC stream and adapter, `setup_reps` times. @return the
 *  median set-up seconds. */
double run_setup(Run &run);
/** One train_online call: accuracy and the per-layer training
 *  figures. */
void run_train(Run &run);

/** Training batches a TrainPasses pass predicts on and trains on. */
constexpr std::size_t kTrainPassBatches = 8;

/**
 * Training throughput. train_online runs once, for most of a quarter
 * minute, and sees the host in one state only; here pass() times
 * predict_on and then train_on, batch by batch, on kTrainPassBatches
 * training batches spread over the stream, on a copy of the trained
 * model whose weights are restored before every pass, so every pass
 * does the same work and passes can take turns with the other phases.
 */
class TrainPasses
{
  public:
    explicit TrainPasses(Run &run);
    ~TrainPasses();
    TrainPasses(const TrainPasses &) = delete;
    TrainPasses &operator=(const TrainPasses &) = delete;

    void pass();
    void report();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The serving engines. Construction is the engines' set-up (int8
 * snapshot and distillation, `setup_reps` times, median in setup_s())
 * plus one untimed max_batch = 1 reference pass per engine; pass()
 * serves every tenant once with one engine; report() checks and
 * reports everything the passes measured.
 */
class ServePhase
{
  public:
    explicit ServePhase(Run &run);
    ~ServePhase();
    ServePhase(const ServePhase &) = delete;
    ServePhase &operator=(const ServePhase &) = delete;

    double setup_s() const;
    void pass(std::size_t engine);
    void report();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** The rule prefetchers; pass() simulates every (trace, prefetcher)
 *  pair once. */
class SimPhase
{
  public:
    explicit SimPhase(Run &run);
    ~SimPhase();
    SimPhase(const SimPhase &) = delete;
    SimPhase &operator=(const SimPhase &) = delete;

    void pass();
    void report();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** nn::op_stats() snapshot difference, reported for one phase. */
struct OpDelta
{
    double seconds[4] = {0, 0, 0, 0};
    std::uint64_t calls[4] = {0, 0, 0, 0};
    std::uint64_t work[4] = {0, 0, 0, 0};

    enum Op { kGemm = 0, kQgemm = 1, kLstmGate = 2, kAttention = 3 };

    static OpDelta snapshot();
    OpDelta operator-(const OpDelta &before) const;
    OpDelta &operator+=(const OpDelta &d);
    double total_seconds() const
    {
        return seconds[0] + seconds[1] + seconds[2] + seconds[3];
    }
};

/** Report the op classes of one phase as `<phase>.nn.<op>_{s,calls,
 *  rate}`, each multiplied by `scale` (e.g. 1/passes). */
void report_ops(Report &r, const std::string &phase, const OpDelta &d,
                double scale);

}  // namespace perfbench

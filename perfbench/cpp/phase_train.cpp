/**
 * @file
 * Set-up and training phases, plus the pieces every phase shares.
 */
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "nn/ops.hpp"

namespace perfbench {

namespace vc = voyager::core;
using voyager::trace::gen::Scale;

Sizes
Sizes::small()
{
    // Training follows the bench harness defaults at `small` scale
    // (bench/common.cpp): 5 epochs x 3 passes, at most 6000 samples
    // per epoch, traces cut at their 20000th LLC access.
    return {Scale::Small, 20000, 5, 3, 6000, 5, 500};
}

Sizes
Sizes::tiny()
{
    return {Scale::Tiny, 2000, 2, 1, 300, 2, 60};
}

Run::Run(const Options &o)
    : opt(o), tracer(o.traced, 100000),
      sim_cfg(o.sizes.scale == Scale::Tiny ? voyager::sim::tiny_sim_config()
                                           : voyager::sim::small_sim_config())
{
    // The bench harness's scaled Voyager profile (DESIGN.md §6).
    model_cfg.seq_len = 8;
    model_cfg.pc_embed_dim = 8;
    model_cfg.page_embed_dim = 32;
    model_cfg.num_experts = 4;
    model_cfg.lstm_units = 64;
    model_cfg.batch_size = 64;
    model_cfg.learning_rate = 3e-2;
    model_cfg.lr_decay_ratio = 1.5;
    model_cfg.dropout_keep = 0.9f;
    model_cfg.seed = o.seed * 7919 + 13;
}

OpDelta
OpDelta::snapshot()
{
    const auto &s = voyager::nn::op_stats();
    OpDelta d;
    const voyager::nn::OpClassStats *cls[4] = {&s.gemm, &s.qgemm,
                                               &s.lstm_gate, &s.attention};
    for (int i = 0; i < 4; ++i) {
        d.seconds[i] = cls[i]->seconds;
        d.calls[i] = cls[i]->calls;
        d.work[i] = cls[i]->work;
    }
    return d;
}

OpDelta
OpDelta::operator-(const OpDelta &before) const
{
    OpDelta d;
    for (int i = 0; i < 4; ++i) {
        d.seconds[i] = seconds[i] - before.seconds[i];
        d.calls[i] = calls[i] - before.calls[i];
        d.work[i] = work[i] - before.work[i];
    }
    return d;
}

OpDelta &
OpDelta::operator+=(const OpDelta &d)
{
    for (int i = 0; i < 4; ++i) {
        seconds[i] += d.seconds[i];
        calls[i] += d.calls[i];
        work[i] += d.work[i];
    }
    return *this;
}

void
report_ops(Report &r, const std::string &phase, const OpDelta &d,
           double scale)
{
    static const char *names[4] = {"gemm", "qgemm", "lstm_gate",
                                   "attention"};
    for (int i = 0; i < 4; ++i) {
        const std::string p = phase + ".nn." + names[i];
        const double s = d.seconds[i] * scale;
        const double work = static_cast<double>(d.work[i]);
        r.set_if_declared(p + "_s", s);
        r.set_if_declared(p + "_calls",
                          static_cast<double>(d.calls[i]) * scale);
        if (d.calls[i] == 0)
            continue;
        if (i == OpDelta::kGemm || i == OpDelta::kQgemm)
            r.set_if_declared(
                p + (i == OpDelta::kGemm ? "_gflops_per_s" : "_gops_per_s"),
                work / d.seconds[i] / 1e9);
        else
            r.set_if_declared(p + "_ns_per_elem",
                              d.seconds[i] * 1e9 / work);
    }
}

double
run_setup(Run &run)
{
    const Options &o = run.opt;
    std::vector<double> t_make, t_extract, t_adapter, t_total;
    std::size_t mismatches = 0;
    voyager::Addr first_sum = 0;
    for (std::size_t rep = 0; rep < o.sizes.setup_reps; ++rep) {
        Span phase(run.tracer, "phase.setup");
        double make_s = 0.0;
        double extract_s = 0.0;
        const double t0 = now_s();
        std::vector<voyager::trace::Trace> traces;
        std::vector<vc::LlcAccess> stream;
        for (const std::string &name : kSimTraces) {
            double t = now_s();
            voyager::trace::Trace trace;
            {
                Span s(run.tracer, "trace.make_workload");
                trace = voyager::trace::gen::make_workload(
                    name, o.sizes.scale, o.seed);
            }
            make_s += now_s() - t;
            t = now_s();
            // Cut the trace at its llc_cap-th LLC access, as the bench
            // harness does, so training cost is bounded.
            std::vector<vc::LlcAccess> llc;
            {
                Span s(run.tracer, "sim.extract_llc_stream");
                llc = voyager::sim::extract_llc_stream(trace, run.sim_cfg);
            }
            if (llc.size() > o.sizes.llc_cap) {
                const auto cutoff = llc[o.sizes.llc_cap].instr_id;
                std::size_t keep = trace.size();
                for (std::size_t i = 0; i < trace.size(); ++i)
                    if (trace[i].instr_id >= cutoff) {
                        keep = i;
                        break;
                    }
                trace.truncate(keep);
                if (name == o.workload) {
                    Span s(run.tracer, "sim.extract_llc_stream");
                    llc = voyager::sim::extract_llc_stream(trace,
                                                           run.sim_cfg);
                }
            }
            extract_s += now_s() - t;
            if (name == o.workload)
                stream = std::move(llc);
            traces.push_back(std::move(trace));
        }
        const double t1 = now_s();
        // The adapter borrows the stream: drop the old one first.
        run.adapter.reset();
        run.sim_traces = std::move(traces);
        run.stream = std::move(stream);
        {
            Span s(run.tracer, "core.adapter_build");
            run.adapter = std::make_unique<vc::VoyagerAdapter>(
                run.model_cfg, run.stream);
        }
        const double t2 = now_s();
        t_make.push_back(make_s);
        t_extract.push_back(extract_s);
        t_adapter.push_back(t2 - t1);
        t_total.push_back(t2 - t0);

        voyager::Addr sum = run.stream.size();
        for (const auto &a : run.stream)
            sum = sum * 31 + a.line + a.pc;
        for (const auto &t : run.sim_traces)
            sum = sum * 31 + t.size();
        if (rep == 0)
            first_sum = sum;
        else if (sum != first_sum)
            ++mismatches;
    }
    run.checks.count(o.sizes.setup_reps, mismatches,
                     "set-up repeats give the same traces");
    run.checks.expect(run.stream.size() > 4 * o.sizes.epochs,
                      "LLC stream long enough to train on");

    Report &r = run.report;
    r.set("trace.make_workload_s",
          r.timing("setup.make_workload_s", t_make).median);
    r.set("sim.extract_llc_stream_s",
          r.timing("setup.extract_llc_stream_s", t_extract).median);
    r.set("core.adapter_build_s",
          r.timing("setup.adapter_build_s", t_adapter).median);
    r.detail("setup.llc_stream_len", static_cast<double>(run.stream.size()));
    const auto &v = run.adapter->vocab();
    r.detail("setup.vocab.pc_tokens", v.num_pc_tokens());
    r.detail("setup.vocab.page_tokens", v.num_page_tokens());
    r.detail("setup.vocab.offset_tokens", v.num_offset_tokens());
    return r.timing("setup.total_s", t_total).median;
}

namespace {

/**
 * Forwards the online trainer's calls to the Voyager adapter and
 * times them: the trainer drives the model only through this
 * interface, so these are the core layer's calls.
 */
class TimedModel final : public vc::SequenceModel
{
  public:
    TimedModel(vc::VoyagerAdapter &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_.name(); }

    double
    train_on(const std::vector<std::size_t> &indices) override
    {
        Span s(tracer_, "core.train_on");
        const double t0 = now_s();
        const double loss = inner_.train_on(indices);
        train_s += now_s() - t0;
        ++train_calls;
        train_samples += indices.size();
        return loss;
    }

    std::vector<std::vector<voyager::Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t degree) override
    {
        Span s(tracer_, "core.predict_on");
        const double t0 = now_s();
        auto out = inner_.predict_on(indices, degree);
        predict_s += now_s() - t0;
        ++predict_calls;
        predict_samples += indices.size();
        return out;
    }

    void on_epoch_end() override { inner_.on_epoch_end(); }
    std::uint64_t parameter_bytes() const override
    {
        return inner_.parameter_bytes();
    }

    void
    save_state(std::ostream &os) const override
    {
        Span s(tracer_, "core.snapshot");
        const double t0 = now_s();
        inner_.save_state(os);
        snapshot_s += now_s() - t0;
    }

    void load_state(std::istream &is) override { inner_.load_state(is); }
    bool state_finite() const override { return inner_.state_finite(); }
    void scale_lr(double factor) override { inner_.scale_lr(factor); }

    double train_s = 0.0;
    double predict_s = 0.0;
    mutable double snapshot_s = 0.0;
    std::uint64_t train_calls = 0;
    std::uint64_t predict_calls = 0;
    std::uint64_t train_samples = 0;
    std::uint64_t predict_samples = 0;

  private:
    vc::VoyagerAdapter &inner_;
    Tracer &tracer_;
};

}  // namespace

void
run_train(Run &run)
{
    const Sizes &z = run.opt.sizes;
    vc::OnlineTrainConfig tc;
    tc.epochs = z.epochs;
    // Predict at the bench harness's neural degree; the unified
    // metric below scores the top-1 slice, as Fig. 7 does.
    tc.degree = 8;
    tc.train_passes = z.passes;
    tc.max_train_samples_per_epoch = z.max_train_samples;
    tc.cumulative = true;
    tc.seed = run.opt.seed;

    TimedModel model(*run.adapter, run.tracer);
    vc::OnlineResult res;
    const OpDelta before = OpDelta::snapshot();
    const double t0 = now_s();
    {
        Span phase(run.tracer, "phase.train");
        Span s(run.tracer, "core.train_online");
        res = vc::train_online(model, run.stream.size(), tc);
    }
    const double phase_s = now_s() - t0;
    const OpDelta ops = OpDelta::snapshot() - before;

    Report &r = run.report;
    r.detail("train.online_samples_per_s",
             static_cast<double>(res.trained_samples) / res.train_seconds);
    r.detail("train.online_infer_samples_per_s",
             static_cast<double>(res.predicted_samples) /
                 res.inference_seconds);
    std::vector<std::vector<voyager::Addr>> top1(res.predictions.size());
    for (std::size_t i = 0; i < top1.size(); ++i)
        if (!res.predictions[i].empty())
            top1[i].push_back(res.predictions[i].front());
    // Same horizon as the bench harness's unified metric.
    r.set("train.unified_accuracy",
          vc::unified_accuracy_coverage(run.stream, top1,
                                        res.first_predicted_index, 32)
              .value());

    r.set("core.train_on_s", model.train_s);
    r.set("core.train_on_calls", static_cast<double>(model.train_calls));
    r.set("core.train_on_samples", static_cast<double>(model.train_samples));
    r.set("core.predict_on_s", model.predict_s);
    r.set("core.predict_on_calls", static_cast<double>(model.predict_calls));
    r.set("core.predict_on_samples",
          static_cast<double>(model.predict_samples));
    r.set("core.snapshot_s", model.snapshot_s);
    report_ops(r, "train", ops, 1.0);
    r.set("train.unattributed_s", phase_s - ops.total_seconds());
    r.detail("train.phase_s", phase_s);
    r.detail("train.train_seconds", res.train_seconds);
    r.detail("train.inference_seconds", res.inference_seconds);
    r.detail("train.trained_samples",
             static_cast<double>(res.trained_samples));
    r.detail("train.predicted_samples",
             static_cast<double>(res.predicted_samples));
    r.detail("train.parameter_bytes",
             static_cast<double>(model.parameter_bytes()));
    for (std::size_t e = 0; e < res.epoch_losses.size(); ++e)
        r.detail("train.epoch" + std::to_string(e) + ".loss",
                 res.epoch_losses[e]);

    // Correctness: finite losses, no rollback or degraded training,
    // and a prediction for every index from the first predicted one.
    std::size_t bad_epochs = tc.epochs - res.epoch_losses.size();
    for (const double l : res.epoch_losses)
        if (!std::isfinite(l))
            ++bad_epochs;
    run.checks.count(tc.epochs, bad_epochs, "training epochs healthy");
    run.checks.expect(!res.degraded, "training did not degrade");
    run.checks.expect(res.rollbacks == 0, "training needed no rollback");
    std::size_t missing = 0;
    for (std::size_t i = res.first_predicted_index;
         i < res.predictions.size(); ++i)
        if (res.predictions[i].empty())
            ++missing;
    run.checks.count(res.predictions.size() - res.first_predicted_index,
                     missing, "predicted indices with predictions");
}

struct TrainPasses::Impl
{
    explicit Impl(Run &r) : run(r) {}

    Run &run;
    std::unique_ptr<vc::VoyagerAdapter> copy;
    /** The trained weights, restored before every pass. */
    std::string state;
    /** One training batch each, spread evenly over the stream. */
    std::vector<std::vector<std::size_t>> batches;
    std::vector<std::vector<std::vector<voyager::Addr>>> first_predictions;
    /** [batch][pass] seconds, and per pass summed over the batches. */
    std::vector<std::vector<double>> train_s, predict_s;
    std::vector<double> pass_train_s, pass_predict_s;
    std::uint64_t bad_losses = 0, changed_predictions = 0;
};

TrainPasses::TrainPasses(Run &run) : impl_(std::make_unique<Impl>(run))
{
    Impl &m = *impl_;
    std::ostringstream os;
    run.adapter->save_state(os);
    m.state = os.str();
    m.copy = std::make_unique<vc::VoyagerAdapter>(run.model_cfg, run.stream);
    const std::size_t bs = run.model_cfg.batch_size;
    const std::size_t n = kTrainPassBatches * bs;
    const std::size_t lo = run.adapter->min_index();
    const std::size_t span = run.stream.size() - lo;
    m.batches.resize(kTrainPassBatches);
    for (std::size_t k = 0; k < n; ++k)
        m.batches[k / bs].push_back(lo + k * span / n);
    m.train_s.resize(kTrainPassBatches);
    m.predict_s.resize(kTrainPassBatches);
}

TrainPasses::~TrainPasses() = default;

void
TrainPasses::pass()
{
    Impl &m = *impl_;
    Tracer &tracer = m.run.tracer;
    Span phase(tracer, "phase.train_passes");
    std::istringstream is(m.state);
    m.copy->load_state(is);
    // Every batch is timed on its own, so a slow spell of the host
    // costs only the batches it touches (see fastest()).
    std::vector<std::vector<std::vector<voyager::Addr>>> preds;
    double predict_total = 0.0, train_total = 0.0;
    for (std::size_t b = 0; b < m.batches.size(); ++b) {
        Span s(tracer, "core.predict_on");
        const double t0 = now_s();
        preds.push_back(m.copy->predict_on(m.batches[b], 8));
        const double dt = now_s() - t0;
        m.predict_s[b].push_back(dt);
        predict_total += dt;
    }
    for (std::size_t b = 0; b < m.batches.size(); ++b) {
        Span s(tracer, "core.train_on");
        const double t0 = now_s();
        const double loss = m.copy->train_on(m.batches[b]);
        const double dt = now_s() - t0;
        m.train_s[b].push_back(dt);
        train_total += dt;
        if (!std::isfinite(loss))
            ++m.bad_losses;
    }
    m.pass_predict_s.push_back(predict_total);
    m.pass_train_s.push_back(train_total);
    // Same weights, same inputs: the same predictions every pass.
    if (m.first_predictions.empty())
        m.first_predictions = std::move(preds);
    else if (preds != m.first_predictions)
        ++m.changed_predictions;
}

void
TrainPasses::report()
{
    Impl &m = *impl_;
    Report &r = m.run.report;
    const std::size_t passes = m.pass_train_s.size();
    m.run.checks.count(passes * m.batches.size(), m.bad_losses,
                       "train pass losses finite");
    m.run.checks.count(passes, m.changed_predictions,
                       "predict_on repeats on restored weights agree");
    std::size_t predicted = 0;
    for (const auto &batch : m.first_predictions)
        for (const auto &p : batch)
            predicted += p.empty() ? 0 : 1;
    m.run.checks.expect(predicted > 0, "train passes predicted lines");
    double samples = 0.0, train_s = 0.0, predict_s = 0.0;
    for (std::size_t b = 0; b < m.batches.size(); ++b) {
        samples += static_cast<double>(m.batches[b].size());
        train_s += fastest(m.train_s[b]);
        predict_s += fastest(m.predict_s[b]);
    }
    r.set("train.samples_per_s", samples / train_s);
    r.set("train.infer_samples_per_s", samples / predict_s);
    r.timing("train.passes.train_on_s", m.pass_train_s);
    r.timing("train.passes.predict_on_s", m.pass_predict_s);
    r.detail("train.passes.samples", samples);
}

}  // namespace perfbench

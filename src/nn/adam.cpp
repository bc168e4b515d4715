#include "nn/adam.hpp"

#include <cmath>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"

namespace voyager::nn {

Adam::Adam(const AdamConfig &cfg) : cfg_(cfg) {}

void
Adam::add_param(Param *p)
{
    DenseState s;
    s.param = p;
    s.m = Matrix(p->value.rows(), p->value.cols());
    s.v = Matrix(p->value.rows(), p->value.cols());
    dense_.push_back(std::move(s));
}

void
Adam::add_embedding(Embedding *e)
{
    SparseState s;
    s.emb = e;
    s.m = Matrix(e->vocab(), e->dim());
    s.v = Matrix(e->vocab(), e->dim());
    sparse_.push_back(std::move(s));
}

void
Adam::step()
{
    // Fault-injection hook: may ask for a poisoned gradient element
    // before the update or a poisoned weight element after it. A
    // no-op unless a FaultPlan is installed.
    const OptStepFaults faults = fault_injector().on_optimizer_step();
    if (faults.grad && !dense_.empty() &&
        dense_[0].param->grad.size() > 0) {
        dense_[0].param->grad.data()[0] =
            static_cast<float>(*faults.grad);
    }

    // Global gradient norm. An embedding's gradient is zero outside
    // its touched rows, so only those rows are summed (and scaled).
    double total = 0.0;
    for (const auto &s : dense_)
        total += sum_squares(s.param->grad);
    for (const auto &s : sparse_) {
        const Param &p = s.emb->param();
        for (const auto row : s.emb->touched())
            total += sum_squares(p.grad.row(row), p.grad.cols());
    }
    const double norm = std::sqrt(total);
    if (!std::isfinite(norm)) {
        // A NaN/Inf gradient would smear poison into every moment and
        // weight. Drop the batch instead: zero the gradients, leave
        // t_ and the moments untouched, and count the skip.
        ++skipped_steps_;
        ++health_stats().skipped_steps;
        zero_grad();
        return;
    }
    // The clip scale is applied as each gradient is read (g * 1.0f is
    // g exactly, so an unclipped step reads the gradient unchanged).
    float gscale = 1.0f;
    if (cfg_.clip_norm > 0.0 && norm > cfg_.clip_norm && norm > 0.0)
        gscale = static_cast<float>(cfg_.clip_norm / norm);

    ++t_;
    const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
    const float lr_t =
        static_cast<float>(cfg_.lr * std::sqrt(bc2) / bc1);
    const auto b1 = static_cast<float>(cfg_.beta1);
    const auto b2 = static_cast<float>(cfg_.beta2);
    const auto eps = static_cast<float>(cfg_.eps);

    // Vectorises: the file is built with -fno-math-errno, so sqrt is
    // an instruction (v >= 0, so errno could never be set anyway).
    auto update_span = [&](float *w, float *g, float *m, float *v,
                           std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const float gi = g[i] * gscale;
            m[i] = b1 * m[i] + (1.0f - b1) * gi;
            v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
            w[i] -= lr_t * m[i] / (std::sqrt(v[i]) + eps);
            g[i] = 0.0f;
        }
    };

    for (auto &s : dense_) {
        update_span(s.param->value.data(), s.param->grad.data(),
                    s.m.data(), s.v.data(), s.param->value.size());
    }
    for (auto &s : sparse_) {
        Param &p = s.emb->param();
        const std::size_t dim = p.value.cols();
        for (const auto row : s.emb->touched()) {
            update_span(p.value.row(row), p.grad.row(row), s.m.row(row),
                        s.v.row(row), dim);
        }
        s.emb->clear_touched();
    }

    if (faults.weight && !dense_.empty() &&
        dense_[0].param->value.size() > 0) {
        dense_[0].param->value.data()[0] =
            static_cast<float>(*faults.weight);
    }
}

void
Adam::save_state(std::ostream &os) const
{
    write_u64(os, t_);
    write_f64(os, cfg_.lr);  // decay_lr mutates it: schedule position
    write_u64(os, dense_.size());
    for (const auto &s : dense_) {
        save_matrix(os, s.m);
        save_matrix(os, s.v);
    }
    write_u64(os, sparse_.size());
    for (const auto &s : sparse_) {
        save_matrix(os, s.m);
        save_matrix(os, s.v);
    }
}

void
Adam::load_state(std::istream &is)
{
    t_ = read_u64(is);
    cfg_.lr = read_f64(is);
    expect_u64(is, dense_.size(), "adam dense parameter count");
    for (auto &s : dense_) {
        load_matrix_into(is, s.m, "adam first moment");
        load_matrix_into(is, s.v, "adam second moment");
    }
    expect_u64(is, sparse_.size(), "adam sparse parameter count");
    for (auto &s : sparse_) {
        load_matrix_into(is, s.m, "adam first moment");
        load_matrix_into(is, s.v, "adam second moment");
    }
}

void
Adam::zero_grad()
{
    for (auto &s : dense_)
        s.param->zero_grad();
    for (auto &s : sparse_) {
        Param &p = s.emb->param();
        for (const auto row : s.emb->touched()) {
            float *g = p.grad.row(row);
            for (std::size_t c = 0; c < p.grad.cols(); ++c)
                g[c] = 0.0f;
        }
        s.emb->clear_touched();
    }
}

}  // namespace voyager::nn

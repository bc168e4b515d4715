#include "nn/lstm.hpp"

#include <cassert>

#include "nn/activation.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"

namespace voyager::nn {

Lstm::Lstm(std::size_t in_dim, std::size_t hidden, Rng &rng)
    : wx_(in_dim, 4 * hidden), wh_(hidden, 4 * hidden), b_(1, 4 * hidden)
{
    glorot_init(wx_.value, rng);
    glorot_init(wh_.value, rng);
    // Forget-gate bias starts at 1 (standard trick for gradient flow).
    const std::size_t h = hidden;
    for (std::size_t c = h; c < 2 * h; ++c)
        b_.value.at(0, c) = 1.0f;
}

void
Lstm::forward(const std::vector<Matrix> &xs, Matrix &h_last)
{
    assert(!xs.empty());
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    const std::size_t T = xs.size();

    // Borrow the caller's sequence (header contract) instead of deep-
    // copying it, and grow the per-step caches without destroying
    // their buffers so repeated calls stop reallocating.
    xs_ = &xs;
    steps_ = T;
    if (gates_.size() < T) {
        gates_.resize(T);
        cs_.resize(T);
        hs_.resize(T);
    }

    for (std::size_t t = 0; t < T; ++t) {
        assert(xs[t].rows() == batch && xs[t].cols() == in_dim());
        Matrix &z = gates_[t];
        z.resize(batch, 4 * h);  // zero-fills: the GEMMs accumulate
        gemm_nn(xs[t], wx_.value, z);
        if (t > 0)  // h_{-1} = 0 contributes nothing at t = 0
            gemm_nn(hs_[t - 1], wh_.value, z);

        cs_[t].resize(batch, h);
        hs_[t].resize(batch, h);
        // Fused gate pass (c_{-1} = 0 at t = 0; previous states are
        // read in place, not copied per step).
        lstm_gates_forward(z, b_.value, t > 0 ? &cs_[t - 1] : nullptr,
                           cs_[t], hs_[t]);
    }
    h_last = hs_[T - 1];
}

void
Lstm::forward_inference(const std::vector<Matrix> &xs, Matrix &h_last)
{
    assert(!xs.empty());
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    const std::size_t T = xs.size();

    // Serving path: no per-step caches, so memory stays
    // O(batch x hidden) for any sequence length. Poison the training
    // caches — backward() asserts on them.
    xs_ = nullptr;
    steps_ = 0;

    Matrix &z = inf_z_;
    Matrix &h_prev = inf_h_;
    for (std::size_t t = 0; t < T; ++t) {
        assert(xs[t].rows() == batch && xs[t].cols() == in_dim());
        Matrix &c_prev = inf_c_[t % 2];
        Matrix &c_cur = inf_c_[(t + 1) % 2];
        z.resize(batch, 4 * h);  // zero-fills: the GEMMs accumulate
        gemm_nn(xs[t], wx_.value, z);
        if (t > 0)  // h_{-1} = 0 contributes nothing at t = 0
            gemm_nn(h_prev, wh_.value, z);

        c_cur.resize_uninit(batch, h);
        if (t == 0)
            h_prev.resize_uninit(batch, h);
        // h_prev is rewritten to h_t in place: both GEMMs for this
        // step have already consumed it.
        lstm_gates_forward(z, b_.value, t > 0 ? &c_prev : nullptr, c_cur,
                           h_prev);
    }
    h_last = h_prev;
}

void
Lstm::backward(const Matrix &dh_last, std::vector<Matrix> &dxs)
{
    assert(xs_ != nullptr && steps_ > 0);
    const std::vector<Matrix> &xs = *xs_;
    const std::size_t T = steps_;
    assert(xs.size() == T);
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    assert(dh_last.rows() == batch && dh_last.cols() == h);

    dxs.assign(T, Matrix());
    Matrix dh = dh_last;
    Matrix dc(batch, h);
    Matrix dz(batch, 4 * h);

    for (std::size_t t = T; t-- > 0;) {
        lstm_gates_backward(gates_[t], cs_[t],
                            t > 0 ? &cs_[t - 1] : nullptr, dh, dc, dz);

        gemm_tn(xs[t], dz, wx_.grad);
        bias_backward(dz, b_.grad);
        dxs[t].resize(batch, in_dim());
        gemm_nt(dz, wx_.value, dxs[t]);

        if (t > 0) {
            gemm_tn(hs_[t - 1], dz, wh_.grad);
            dh.resize(batch, h);  // zero-fills: gemm_nt accumulates
            gemm_nt(dz, wh_.value, dh);
        }
    }
}

void
Lstm::save_state(std::ostream &os) const
{
    save_matrix(os, wx_.value);
    save_matrix(os, wh_.value);
    save_matrix(os, b_.value);
}

void
Lstm::load_state(std::istream &is)
{
    load_matrix_into(is, wx_.value, "lstm wx");
    load_matrix_into(is, wh_.value, "lstm wh");
    load_matrix_into(is, b_.value, "lstm bias");
}

}  // namespace voyager::nn

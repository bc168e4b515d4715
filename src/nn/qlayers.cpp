#include "nn/qlayers.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

#include "nn/activation.hpp"
#include "nn/ops.hpp"
#include "nn/qops.hpp"

namespace voyager::nn {

QuantizedEmbedding::QuantizedEmbedding(const Embedding &src)
    : table_(QMatrix::quantize(src.param().value, /*transpose=*/false))
{
}

void
QuantizedEmbedding::forward(const std::vector<std::int32_t> &ids,
                            Matrix &out) const
{
    const std::size_t d = dim();
    out.resize_uninit(ids.size(), d);
    for (std::size_t b = 0; b < ids.size(); ++b) {
        assert(ids[b] >= 0 &&
               static_cast<std::size_t>(ids[b]) < vocab());
        const auto r = static_cast<std::size_t>(ids[b]);
        const std::int8_t *src = table_.row(r);
        const float s = table_.scale(r);
        float *dst = out.row(b);
        for (std::size_t j = 0; j < d; ++j)
            dst[j] = static_cast<float>(src[j]) * s;
    }
}

QuantizedLinear::QuantizedLinear(const Linear &src)
    : wq_(QMatrix::quantize(src.weight().value, /*transpose=*/true)),
      bias_(src.bias().value)
{
    wq_.pack();
}

void
QuantizedLinear::forward(const Matrix &x, Matrix &y)
{
    assert(x.cols() == in_dim());
    quantize_activations(x, qx_);
    y.resize(x.rows(), out_dim());  // zero-fills: qgemm accumulates
    qgemm_nt(qx_, wq_, y);
    add_bias(y, bias_);
}

QuantizedLstm::QuantizedLstm(const Lstm &src)
    : wxq_(QMatrix::quantize(src.wx().value, /*transpose=*/true)),
      whq_(QMatrix::quantize(src.wh().value, /*transpose=*/true)),
      bias_(src.bias().value)
{
    wxq_.pack();
    whq_.pack();
}

void
QuantizedLstmInput::quantize(const Matrix &xs, std::size_t n_steps)
{
    assert(n_steps > 0 && xs.rows() % n_steps == 0);
    steps = n_steps;
    quantize_activations(xs, x);
    // r = xs - dequant(x), the part the u8 grid could not represent.
    // Built with -ffp-contract=off: the one rounding is the explicit
    // fma, in every build.
    r_.resize_uninit(xs.rows(), xs.cols());
    for (std::size_t i = 0; i < xs.rows(); ++i) {
        const float s = x.scale(i);
        const auto zp = static_cast<float>(x.zero_point(i));
        const std::uint8_t *q = x.row(i);
        const float *src = xs.row(i);
        float *dst = r_.row(i);
        for (std::size_t j = 0; j < xs.cols(); ++j)
            dst[j] = std::fma(-(static_cast<float>(q[j]) - zp), s,
                              src[j]);
    }
    quantize_activations(r_, residual);
}

void
QuantizedLstm::forward(const QuantizedLstmInput &in, Matrix &h_last)
{
    const std::size_t T = in.steps;
    assert(T > 0 && in.x.cols == in_dim());
    const std::size_t batch = in.x.rows / T;
    const std::size_t h = hidden();
    const std::size_t zw = 4 * h;

    // The x * Wx GEMM runs twice int8 over all T*B rows: the quantized
    // input, then its error-feedback residual. The LSTM's x rows
    // concatenate embeddings with heterogeneous magnitudes, so one u8
    // grid per row is too coarse on its own — the residual pass keeps
    // top-1 predictions aligned with fp32 while staying on the int8
    // kernels. h rows are homogeneous bounded tanh outputs; a single
    // pass suffices there (verified by the agreement test, which is
    // insensitive to Wh quantization error).
    zx_.resize(T * batch, zw);  // zero-fills: the qgemms accumulate
    qgemm_nt(in.x, wxq_, zx_);
    qgemm_nt(in.residual, wxq_, zx_);

    h_prev_.resize(batch, h);
    c_prev_.resize(batch, h);
    for (std::size_t t = 0; t < T; ++t) {
        z_.resize_uninit(batch, zw);
        std::memcpy(z_.data(), zx_.row(t * batch),
                    batch * zw * sizeof(float));
        if (t > 0) {  // h_{-1} = 0 contributes nothing at t = 0
            quantize_activations(h_prev_, qh_);
            qgemm_nt(qh_, whq_, z_);
        }

        c_cur_.resize_uninit(batch, h);
        // fp32 tail: the same fused gate pass as Lstm::forward; h_prev_
        // is overwritten to h_t.
        lstm_gates_forward(z_, bias_, t > 0 ? &c_prev_ : nullptr, c_cur_,
                           h_prev_);
        std::swap(c_prev_, c_cur_);
    }
    h_last = h_prev_;
}

}  // namespace voyager::nn

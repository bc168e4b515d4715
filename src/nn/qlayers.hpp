/**
 * @file
 * Inference-only quantized layers (DESIGN.md §5.13). Each is built
 * from its trained fp32 counterpart and exposes the same forward
 * shape contract. The matrix multiplies run int8 (qgemm_nt on
 * per-channel QMatrix weights and dynamically quantized u8
 * activations); the small elementwise tails — bias adds, LSTM gate
 * nonlinearities — stay fp32, where they are cheap and precision
 * actually matters.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/qmatrix.hpp"

namespace voyager::nn {

/** Int8 embedding table: gather rows, dequantize per-row scale. */
class QuantizedEmbedding
{
  public:
    explicit QuantizedEmbedding(const Embedding &src);

    /** Gather + dequantize rows: out(batch, dim). */
    void forward(const std::vector<std::int32_t> &ids,
                 Matrix &out) const;

    std::size_t vocab() const { return table_.rows(); }
    std::size_t dim() const { return table_.cols(); }
    const QMatrix &table() const { return table_; }

    /** int8 payload bytes (values + scales). */
    std::uint64_t int8_bytes() const { return table_.bytes(); }

  private:
    QMatrix table_;
};

/** Int8 fully connected layer: qgemm + fp32 bias. */
class QuantizedLinear
{
  public:
    explicit QuantizedLinear(const Linear &src);

    /** Y(batch,out) = dequant(qgemm(quant(X), Wq)) + b. */
    void forward(const Matrix &x, Matrix &y);

    std::size_t in_dim() const { return wq_.cols(); }
    std::size_t out_dim() const { return wq_.rows(); }
    const QMatrix &weight() const { return wq_; }

    /** int8 payload bytes plus the fp32 bias. */
    std::uint64_t int8_bytes() const
    {
        return wq_.bytes() + bias_.size() * sizeof(float);
    }

  private:
    QMatrix wq_;   ///< (out, in), per-output-channel scales
    Matrix bias_;  ///< (1, out) fp32
    QActivations qx_;
};

/**
 * An LSTM input sequence quantized once for every QuantizedLstm that
 * reads it. The T steps are stacked as one (T*B, in) matrix, step t
 * in rows t*B .. t*B + B - 1. Besides the u8 quantization it holds an
 * error-feedback residual: the fp32 leftover of the first
 * quantization, itself quantized on a ~255x finer per-row grid. A
 * second qgemm of the residual into the same accumulator gives ~16
 * effective activation bits from pure int8 kernels on the
 * concatenated (heterogeneous) input rows. Quantization is per row,
 * so stacking the steps changes no bit.
 */
struct QuantizedLstmInput
{
    QActivations x;         ///< the stacked steps on a u8 grid
    QActivations residual;  ///< x - dequant(x), on its own u8 grid
    std::size_t steps = 0;  ///< T

    /** Quantize `xs`: n_steps stacked steps, row t*B + b. */
    void quantize(const Matrix &xs, std::size_t n_steps);

  private:
    Matrix r_;  ///< fp32 residual
};

/**
 * Int8 LSTM: both gate GEMMs run int8. x * Wx runs once for all T
 * steps, over the stacked input and its residual (QuantizedLstmInput);
 * the recurrence then re-quantizes h each step for h * Wh,
 * accumulating into that step's rows. Each gate pre-activation still
 * sees the x, residual and h terms added in that order, as a per-step
 * loop would add them. The fused gate pass (bias + sigmoid/tanh +
 * cell update) is the fp32 tail and charges the same `nn.lstm_gate`
 * op class as the trainable LSTM.
 */
class QuantizedLstm
{
  public:
    explicit QuantizedLstm(const Lstm &src);

    /** Run the sequence from zero state; h_last = h_T (batch, H). */
    void forward(const QuantizedLstmInput &in, Matrix &h_last);

    std::size_t in_dim() const { return wxq_.cols(); }
    std::size_t hidden() const { return whq_.cols(); }
    const QMatrix &wx() const { return wxq_; }
    const QMatrix &wh() const { return whq_; }

    /** int8 payload bytes plus the fp32 bias. */
    std::uint64_t int8_bytes() const
    {
        return wxq_.bytes() + whq_.bytes() +
               bias_.size() * sizeof(float);
    }

  private:
    QMatrix wxq_;  ///< (4H, in)
    QMatrix whq_;  ///< (4H, H)
    Matrix bias_;  ///< (1, 4H) fp32
    QActivations qh_;
    Matrix zx_;      ///< (T*B, 4H) x-side gate pre-activations
    Matrix z_;       ///< (B, 4H) one step's gate pre-activations
    Matrix h_prev_;  ///< (B, H)
    Matrix c_prev_;  ///< (B, H)
    Matrix c_cur_;   ///< (B, H)
};

}  // namespace voyager::nn

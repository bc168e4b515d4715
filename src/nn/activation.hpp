/**
 * @file
 * The one elementwise sigmoid/tanh kernel of the NN library and the
 * fused LSTM gate passes built on it (DESIGN.md §5.20).
 *
 * Every value goes through the same 16-lane vector code: full blocks
 * are read in place, a ragged tail runs on a zero-padded copy. Each
 * lane is computed independently, so an element's bits depend only on
 * its own inputs — never on its position, the row length or the batch
 * it is in. The translation unit is compiled with -ffp-contract=off
 * and writes each fused multiply-add it wants as an explicit fma, so
 * release, debug and sanitizer builds run the same rounding sequence
 * and agree bit for bit.
 *
 * Accuracy against a double reference: within 1e-7 absolute and 4 ulp
 * relative (measured: 1.4e-7 relative, 2.3 ulp, mean signed error
 * under 0.01 ulp). Saturation is exact: for |x| > 88.7 and ±inf
 * sigmoid returns exactly 0 or 1 and tanh exactly -1 or 1, and a
 * sigmoid result below FLT_MIN flushes to 0; denormal inputs give
 * sigmoid 0.5 and tanh(x) == x; tanh(-0) is -0; NaN in gives NaN out.
 */
#pragma once

#include <cstddef>

#include "nn/matrix.hpp"

namespace voyager::nn {

/** y[i] = 1 / (1 + e^-x[i]) for i < n; x == y is allowed. */
void sigmoid_span(const float *x, float *y, std::size_t n);

/** y[i] = tanh(x[i]) for i < n; x == y is allowed. */
void tanh_span(const float *x, float *y, std::size_t n);

/**
 * Fused LSTM forward gate pass (gate order i, f, g, o), one sweep per
 * row of `z` (B, 4H): bias add and activations are written back into
 * `z`, then c = i*g + f*c_prev and h = o*tanh(c). `c_prev == nullptr`
 * means c_{-1} = 0 (the t = 0 step). `c` and `h` must already be
 * (B, H). Charges `op_stats().lstm_gate` with B*H elements.
 */
void lstm_gates_forward(Matrix &z, const Matrix &bias,
                        const Matrix *c_prev, Matrix &c, Matrix &h);

/**
 * Fused LSTM backward gate pass for one step. Reads the
 * post-activation `gates` (B, 4H) and cell states from forward, and
 * recomputes tanh(c) with the same kernel, so it matches forward's
 * bit for bit. `dc` (B, H) holds dL/dc_t on entry and dL/dc_{t-1} on
 * return; `dz` (B, 4H) receives the pre-activation gate gradients.
 * Charges `op_stats().lstm_gate` with B*H elements.
 */
void lstm_gates_backward(const Matrix &gates, const Matrix &c,
                         const Matrix *c_prev, const Matrix &dh,
                         Matrix &dc, Matrix &dz);

}  // namespace voyager::nn

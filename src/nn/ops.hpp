/**
 * @file
 * Dense kernels: GEMM (with transpose variants), bias/elementwise ops,
 * row softmax and sigmoid. All NN compute funnels through these.
 *
 * GEMM contract — ACCUMULATE, not overwrite
 * -----------------------------------------
 * All three GEMM variants compute `C += op(A) * op(B)`: they add into
 * the output and never clear it. Callers must zero (or deliberately
 * seed) `c` first. `Matrix::resize()` zero-fills, so resizing the
 * output immediately before the call is sufficient; reusing a buffer
 * from a previous step without zeroing silently folds stale values
 * into the product. The accumulate contract is load-bearing: weight
 * gradients (`Param::grad`) sum contributions across timesteps and
 * batches by calling GEMM repeatedly on the same output.
 *
 * The `gemm_*` entry points run a packed, register-blocked microkernel
 * (single-core, auto-vectorised); the `gemm_*_ref` functions keep the
 * seed's naive loops as a slow, independently-written reference for
 * equivalence tests and speedup baselines.
 */
#pragma once

#include <cstdint>
#include <string>

#include "nn/matrix.hpp"
#include "util/stat_registry.hpp"

namespace voyager::nn {

/** Running totals for one kernel class. */
struct OpClassStats
{
    std::uint64_t calls = 0;
    /** FLOPs for GEMM (2mnk); processed elements for pointwise ops. */
    std::uint64_t work = 0;
    /** Wall-clock seconds spent inside the kernels. */
    double seconds = 0.0;
};

/**
 * Op-level counters for the NN hot path. Cheap enough to stay always
 * on (two clock reads per call, micro-seconds-scale kernels); gives
 * every bench and future perf PR a calls/FLOPs/seconds baseline per
 * op class. Reset before a measured region, read after.
 */
struct OpStats
{
    OpClassStats gemm;       ///< all gemm_nn/tn/nt calls
    OpClassStats qgemm;      ///< int8 qgemm_nt calls (work = 2mnk ops)
    OpClassStats lstm_gate;  ///< fused LSTM gate pointwise pass
    OpClassStats attention;  ///< MoE attention forward/backward

    void reset() { *this = OpStats(); }
};

/** Process-wide counters (the NN library is single-threaded). */
OpStats &op_stats();

/**
 * Export the process-wide op counters into `reg` under `<prefix>.`:
 * `.gemm.calls`, `.gemm.flops`, `.qgemm.ops`, `.lstm_gate.elements`,
 * `.attention.elements` plus per-class `.seconds` (volatile). Assigns
 * the cumulative totals, so re-export is idempotent.
 */
void export_op_stats(StatRegistry &reg,
                     const std::string &prefix = "nn");

/** RAII timer charging one kernel invocation to an op class. */
class ScopedOpTimer
{
  public:
    ScopedOpTimer(OpClassStats &s, std::uint64_t work);
    ~ScopedOpTimer();

    ScopedOpTimer(const ScopedOpTimer &) = delete;
    ScopedOpTimer &operator=(const ScopedOpTimer &) = delete;

  private:
    OpClassStats &s_;
    double t0_;
};

/** C += A * B.  A:(m,k) B:(k,n) C:(m,n). Accumulates (see above). */
void gemm_nn(const Matrix &a, const Matrix &b, Matrix &c);

/** C += A^T * B.  A:(k,m) B:(k,n) C:(m,n). Used for weight grads. */
void gemm_tn(const Matrix &a, const Matrix &b, Matrix &c);

/** C += A * B^T.  A:(m,k) B:(n,k) C:(m,n). Used for input grads. */
void gemm_nt(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A * B; reference for tests and benchmarks. */
void gemm_nn_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A^T * B; reference implementation. */
void gemm_tn_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A * B^T; reference implementation. */
void gemm_nt_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** y += x (same shape). */
void add_inplace(Matrix &y, const Matrix &x);

/** Scale in place. */
void scale_inplace(Matrix &y, float alpha);

/** Add a bias row vector (1,n) to every row of (m,n). */
void add_bias(Matrix &y, const Matrix &bias);

/** bias_grad (1,n) += column sums of dy (m,n). */
void bias_backward(const Matrix &dy, Matrix &bias_grad);

/** Row-wise softmax in place. Numerically stabilized. */
void softmax_rows(Matrix &m);

/** Elementwise logistic sigmoid in place (nn/activation kernel). */
void sigmoid_inplace(Matrix &m);

/** Sum of squares of x[0:n], accumulated in double. */
double sum_squares(const float *x, std::size_t n);

/** Sum of squares of all elements. */
double sum_squares(const Matrix &m);

/** True when every element is finite (no NaN/Inf). */
bool is_finite(const Matrix &m);

}  // namespace voyager::nn

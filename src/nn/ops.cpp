#include "nn/ops.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>

#include "nn/activation.hpp"

namespace voyager::nn {

OpStats &
op_stats()
{
    static OpStats stats;
    return stats;
}

void
export_op_stats(StatRegistry &reg, const std::string &prefix)
{
    const OpStats &s = op_stats();
    const auto one = [&reg](const std::string &p, const OpClassStats &c,
                            const char *work_name) {
        reg.counter(p + ".calls") = c.calls;
        reg.counter(p + "." + work_name) = c.work;
        reg.gauge(p + ".seconds", true) = c.seconds;
    };
    one(prefix + ".gemm", s.gemm, "flops");
    one(prefix + ".qgemm", s.qgemm, "ops");
    one(prefix + ".lstm_gate", s.lstm_gate, "elements");
    one(prefix + ".attention", s.attention, "elements");
}

namespace {

double
monotonic_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

ScopedOpTimer::ScopedOpTimer(OpClassStats &s, std::uint64_t work)
    : s_(s), t0_(monotonic_seconds())
{
    ++s_.calls;
    s_.work += work;
}

ScopedOpTimer::~ScopedOpTimer()
{
    s_.seconds += monotonic_seconds() - t0_;
}

namespace {

// ---------------------------------------------------------------------
// Register-blocked GEMM microkernel (single core).
//
// GotoBLAS-style tile: the microkernel keeps an MR x NR accumulator
// tile in vector registers across the whole k loop; each k step is one
// broadcast of an op(A) element per row FMA'd against NR-wide B
// vectors. A broadcast can read any address, so op(A) is never packed:
// the kernel reads it in place, row-major (A) or column-major (A^T).
// B is read as unit-stride NR-float strips, so only a transposed B and
// the ragged last column tile are packed (zero-padded) into reused
// thread-local scratch. Rows past the edge of a ragged row tile alias
// the tile's first row: they are computed and never written back. The
// tile is expressed with ISA-agnostic GCC/Clang vector extensions (the
// compiler legalises them for whatever -march is active, so the same
// source serves AVX-512, AVX2 and scalar targets), branch-free for
// dense activations (no data-dependent zero-skip — that defeated
// vectorisation in the seed kernels).
// ---------------------------------------------------------------------

constexpr std::size_t MR = 8;   ///< rows per register tile
constexpr std::size_t NR = 32;  ///< cols per register tile

std::vector<float> &
pack_buf_b()
{
    static thread_local std::vector<float> buf;
    return buf;
}

/**
 * Pack one NR-col panel of op(B) (k,n) starting at column j0:
 * dst[p][j] = op(B)(p, j0+j), zero-padded to NR columns. trans
 * selects op(B) = B^T, reading B as (n,k).
 */
void
pack_b_tile(const Matrix &b, bool trans, std::size_t j0,
            std::size_t jrem, std::size_t k, float *dst)
{
    if (trans) {
        // op(B)(p, j) = B(j, p): column walk over B's rows.
        for (std::size_t p = 0; p < k; ++p) {
            float *d = dst + p * NR;
            for (std::size_t j = 0; j < jrem; ++j)
                d[j] = b.at(j0 + j, p);
            for (std::size_t j = jrem; j < NR; ++j)
                d[j] = 0.0f;
        }
    } else {
        // Contiguous NR-float strips of each row of B.
        for (std::size_t p = 0; p < k; ++p) {
            const float *src = b.row(p) + j0;
            float *d = dst + p * NR;
            for (std::size_t j = 0; j < jrem; ++j)
                d[j] = src[j];
            for (std::size_t j = jrem; j < NR; ++j)
                d[j] = 0.0f;
        }
    }
}

/** 16-float vector; aligned(4) legalises unaligned loads/stores. */
using vfloat
    = float __attribute__((vector_size(64), aligned(4), may_alias));
constexpr std::size_t VL = 16;        ///< lanes per vector
constexpr std::size_t NV = NR / VL;   ///< vectors per tile row

/**
 * MR x NR register tile: C[0:mrem,0:nrem] += op(A) * Bpanel. op(A)'s
 * tile starts at `a`: element (i, p) is a[i*lda + p], or a[p*lda + i]
 * when ATrans. The B panel is walked with stride bstride (B's leading
 * dimension when read in place, NR when packed); callers guarantee NR
 * floats are readable at every step.
 */
template <bool ATrans>
void
micro_kernel(std::size_t k, const float *__restrict a, std::size_t lda,
             const float *__restrict bp, std::size_t bstride,
             float *__restrict c, std::size_t ldc, std::size_t mrem,
             std::size_t nrem)
{
    const std::size_t row_step = ATrans ? 1 : lda;
    const std::size_t col_step = ATrans ? lda : 1;
    const float *arow[MR];
    for (std::size_t i = 0; i < MR; ++i)
        arow[i] = a + (i < mrem ? i : 0) * row_step;
    vfloat acc[MR][NV] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const auto *__restrict brow
            = reinterpret_cast<const vfloat *>(bp + p * bstride);
        for (std::size_t i = 0; i < MR; ++i)
            for (std::size_t w = 0; w < NV; ++w)
                acc[i][w] += brow[w] * arow[i][p * col_step];
    }
    if (mrem == MR && nrem == NR) {
        for (std::size_t i = 0; i < MR; ++i) {
            auto *crow = reinterpret_cast<vfloat *>(c + i * ldc);
            for (std::size_t w = 0; w < NV; ++w)
                crow[w] += acc[i][w];
        }
    } else {
        for (std::size_t i = 0; i < mrem; ++i) {
            float *crow = c + i * ldc;
            const float *accrow
                = reinterpret_cast<const float *>(acc[i]);
            for (std::size_t j = 0; j < nrem; ++j)
                crow[j] += accrow[j];
        }
    }
}

/**
 * Shared driver: C += op(A) * op(B). op(A) is read in place; op(B) is
 * read in place when B is not transposed, except for a ragged last
 * column tile, which (like every tile of a transposed B) is packed.
 */
template <bool ATrans>
void
gemm_tiled(const Matrix &a, const Matrix &b, bool b_trans, Matrix &c)
{
    const std::size_t m = c.rows();
    const std::size_t n = c.cols();
    const std::size_t k = ATrans ? a.rows() : a.cols();
    ScopedOpTimer timer(op_stats().gemm, 2ull * m * n * k);
    if (m == 0 || n == 0 || k == 0)
        return;

    const std::size_t tiles_n = (n + NR - 1) / NR;
    const bool b_direct = !b_trans;   // op(B) rows are contiguous in B
    const std::size_t b_edge = n % NR;

    // Pack a transposed B whole; a direct B only for its zero-padded
    // ragged edge tile (if any), at the buffer's start.
    auto &bbuf = pack_buf_b();
    if (!b_direct) {
        if (bbuf.size() < tiles_n * k * NR)
            bbuf.resize(tiles_n * k * NR);
        for (std::size_t jt = 0; jt < tiles_n; ++jt)
            pack_b_tile(b, b_trans, jt * NR,
                        std::min(NR, n - jt * NR), k,
                        bbuf.data() + jt * k * NR);
    } else if (b_edge != 0) {
        if (bbuf.size() < k * NR)
            bbuf.resize(k * NR);
        pack_b_tile(b, b_trans, n - b_edge, b_edge, k, bbuf.data());
    }

    const std::size_t lda = a.cols();
    for (std::size_t jt = 0; jt < tiles_n; ++jt) {
        const std::size_t j0 = jt * NR;
        const std::size_t nrem = std::min(NR, n - j0);
        const float *bp;
        std::size_t bstride;
        if (b_direct && nrem == NR) {
            bp = b.data() + j0;
            bstride = b.cols();
        } else {
            bp = b_direct ? bbuf.data() : bbuf.data() + jt * k * NR;
            bstride = NR;
        }
        for (std::size_t i0 = 0; i0 < m; i0 += MR) {
            const float *ap = ATrans ? a.data() + i0 : a.row(i0);
            micro_kernel<ATrans>(k, ap, lda, bp, bstride,
                                 c.row(i0) + j0, c.cols(),
                                 std::min(MR, m - i0), nrem);
        }
    }
}

}  // namespace

void
gemm_nn(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.rows());
    assert(c.rows() == a.rows() && c.cols() == b.cols());
    gemm_tiled<false>(a, b, false, c);
}

void
gemm_tn(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.rows() == b.rows());
    assert(c.rows() == a.cols() && c.cols() == b.cols());
    gemm_tiled<true>(a, b, false, c);
}

void
gemm_nt(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.cols());
    assert(c.rows() == a.rows() && c.cols() == b.rows());
    gemm_tiled<false>(a, b, true, c);
}

// ---------------------------------------------------------------------
// Seed-era naive kernels, retained verbatim as references.
// ---------------------------------------------------------------------

void
gemm_nn_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.rows());
    assert(c.rows() == a.rows() && c.cols() == b.cols());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f)
                continue;
            const float *brow = b.row(p);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemm_tn_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.rows() == b.rows());
    assert(c.rows() == a.cols() && c.cols() == b.cols());
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    for (std::size_t p = 0; p < k; ++p) {
        const float *arow = a.row(p);
        const float *brow = b.row(p);
        for (std::size_t i = 0; i < m; ++i) {
            const float av = arow[i];
            if (av == 0.0f)
                continue;
            float *crow = c.row(i);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemm_nt_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.cols());
    assert(c.rows() == a.rows() && c.cols() == b.rows());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = b.row(j);
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] += acc;
        }
    }
}

void
add_inplace(Matrix &y, const Matrix &x)
{
    assert(y.rows() == x.rows() && y.cols() == x.cols());
    float *yd = y.data();
    const float *xd = x.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] += xd[i];
}

void
axpy(Matrix &y, float alpha, const Matrix &x)
{
    assert(y.size() == x.size());
    float *yd = y.data();
    const float *xd = x.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] += alpha * xd[i];
}

void
scale_inplace(Matrix &y, float alpha)
{
    float *yd = y.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] *= alpha;
}

void
add_bias(Matrix &y, const Matrix &bias)
{
    assert(bias.rows() == 1 && bias.cols() == y.cols());
    const float *b = bias.data();
    for (std::size_t r = 0; r < y.rows(); ++r) {
        float *row = y.row(r);
        for (std::size_t c = 0; c < y.cols(); ++c)
            row[c] += b[c];
    }
}

void
bias_backward(const Matrix &dy, Matrix &bias_grad)
{
    assert(bias_grad.rows() == 1 && bias_grad.cols() == dy.cols());
    float *g = bias_grad.data();
    for (std::size_t r = 0; r < dy.rows(); ++r) {
        const float *row = dy.row(r);
        for (std::size_t c = 0; c < dy.cols(); ++c)
            g[c] += row[c];
    }
}

void
softmax_rows(Matrix &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float *row = m.row(r);
        float mx = row[0];
        for (std::size_t c = 1; c < m.cols(); ++c)
            mx = std::max(mx, row[c]);
        float sum = 0.0f;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        const float inv = 1.0f / sum;
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] *= inv;
    }
}

void
sigmoid_inplace(Matrix &m)
{
    sigmoid_span(m.data(), m.data(), m.size());
}

void
tanh_inplace(Matrix &m)
{
    tanh_span(m.data(), m.data(), m.size());
}

void
hadamard(const Matrix &a, const Matrix &b, Matrix &y)
{
    assert(a.size() == b.size() && a.size() == y.size());
    const float *ad = a.data();
    const float *bd = b.data();
    float *yd = y.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] = ad[i] * bd[i];
}

void
hadamard_add(const Matrix &a, const Matrix &b, Matrix &y)
{
    assert(a.size() == b.size() && a.size() == y.size());
    const float *ad = a.data();
    const float *bd = b.data();
    float *yd = y.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] += ad[i] * bd[i];
}

double
sum_squares(const float *x, std::size_t n)
{
    // Independent double lanes: no loop-carried add chain, and the
    // compiler may vectorise the lanes without reassociating.
    constexpr std::size_t L = 8;
    double lane[L] = {};
    std::size_t i = 0;
    for (; i + L <= n; i += L)
        for (std::size_t l = 0; l < L; ++l)
            lane[l] += static_cast<double>(x[i + l]) * x[i + l];
    for (std::size_t l = 0; i < n; ++i, ++l)
        lane[l] += static_cast<double>(x[i]) * x[i];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double
sum_squares(const Matrix &m)
{
    return sum_squares(m.data(), m.size());
}

bool
is_finite(const Matrix &m)
{
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(d[i]))
            return false;
    return true;
}

void
clip_gradients(const std::vector<Matrix *> &grads, float max_norm)
{
    double total = 0.0;
    for (const Matrix *g : grads)
        total += sum_squares(*g);
    const double norm = std::sqrt(total);
    // A NaN/Inf norm means a poisoned gradient: `norm <= max_norm` is
    // false for NaN, and scaling by max_norm/norm would smear the
    // poison across every parameter. Leave the gradients untouched —
    // Adam::step detects the same condition and skips the update.
    if (norm <= max_norm || norm == 0.0 || !std::isfinite(norm))
        return;
    const float scale = static_cast<float>(max_norm / norm);
    for (Matrix *g : grads)
        scale_inplace(*g, scale);
}

}  // namespace voyager::nn

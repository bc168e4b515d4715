#include "nn/activation.hpp"

#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "nn/ops.hpp"

// Built with -ffp-contract=off (src/nn/CMakeLists.txt): a contracted
// a*b+c rounds once, a plain one twice, and whether GCC contracts
// depends on the optimisation level. With contraction off every
// build runs the same operation sequence; the kernel asks for a fused
// multiply-add explicitly (fma_v) where it wants one.

namespace voyager::nn {

namespace {

/** 16 lanes, legalised by the compiler for whatever -march is set. */
using vfloat = float __attribute__((vector_size(64)));
using vuint = std::uint32_t __attribute__((vector_size(64)));
constexpr std::size_t VL = 16;  ///< lanes per block

inline vfloat
load(const float *p)
{
    vfloat v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void
store(float *p, vfloat v)
{
    std::memcpy(p, &v, sizeof(v));
}

inline vfloat
splat(float x)
{
    return vfloat{} + x;
}

/**
 * a*b + c rounded once. IEEE fma is exact, so both paths give the
 * same bits. The lane loop is the portable definition (an optimised
 * build for an FMA-capable -march turns it into one vfmadd); the
 * AVX-512 intrinsic keeps unoptimised sanitizer builds from running
 * it lane by lane.
 */
inline vfloat
fma_v(vfloat a, vfloat b, vfloat c)
{
#if defined(__AVX512F__)
    return (vfloat)_mm512_fmadd_ps((__m512)a, (__m512)b, (__m512)c);
#else
    vfloat r;
    for (std::size_t i = 0; i < VL; ++i)
        r[i] = std::fma(a[i], b[i], c[i]);
    return r;
#endif
}

/**
 * e^x for x in [-87.33, 88] (clamped outside, so the result stays a
 * normal float), Cephes expf: x = k ln2 + r with |r| <= ln2/2
 * (Cody-Waite split of ln2), a degree-7 polynomial for e^r, then a
 * scale by 2^k built in the exponent field. NaN propagates through the
 * arithmetic.
 */
inline vfloat
exp_v(vfloat x)
{
    constexpr float ROUND = 12582912.0f;  // 1.5 * 2^23
    constexpr std::uint32_t ROUND_BITS = 0x4B400000u;
    x = x < splat(-87.33f) ? splat(-87.33f) : x;
    x = x > splat(88.0f) ? splat(88.0f) : x;

    // k = nearest integer to x / ln2: adding 1.5 * 2^23 rounds away
    // the fraction, subtracting it again is exact.
    const vfloat kf =
        fma_v(x, splat(1.44269504088896341f), splat(ROUND)) - ROUND;
    vfloat r = fma_v(kf, splat(-0.693359375f), x);
    r = fma_v(kf, splat(2.12194440e-4f), r);

    vfloat p = splat(1.9875691500e-4f);
    p = fma_v(p, r, splat(1.3981999507e-3f));
    p = fma_v(p, r, splat(8.3334519073e-3f));
    p = fma_v(p, r, splat(4.1665795894e-2f));
    p = fma_v(p, r, splat(1.6666665459e-1f));
    p = fma_v(p, r, splat(5.0000001201e-1f));
    const vfloat y = fma_v(p, r * r, r) + 1.0f;

    // k + 127 in [1, 254], read out of kf + 1.5 * 2^23's mantissa,
    // is 2^k's exponent field.
    const vuint e = (vuint)(kf + ROUND) - (ROUND_BITS - 127u);
    return y * (vfloat)(e << 23);
}

/**
 * 1 / (1 + e^-x). Results below FLT_MIN, which is every x below about
 * -87.34 and -inf, flush to exactly 0; from about 16.6 up the quotient
 * rounds to exactly 1.
 */
inline vfloat
sigmoid_v(vfloat x)
{
    const vfloat s = 1.0f / (1.0f + exp_v(-x));
    return s < splat(FLT_MIN) ? vfloat{} : s;
}

/**
 * tanh(x), Cephes tanhf on |x| with x's sign bit put back (so
 * tanh(-0) = -0): an odd polynomial below 0.625, where it is exact
 * for denormals, and 1 - 2 / (e^{2|x|} + 1) above, which rounds to
 * exactly 1 from about 9 up.
 */
inline vfloat
tanh_v(vfloat x)
{
    const vuint sign = (vuint)x & 0x80000000u;
    const vfloat a = (vfloat)((vuint)x & 0x7FFFFFFFu);

    const vfloat z = a * a;
    vfloat p = splat(-5.70498872745e-3f);
    p = fma_v(p, z, splat(2.06390887954e-2f));
    p = fma_v(p, z, splat(-5.37397155531e-2f));
    p = fma_v(p, z, splat(1.33314422036e-1f));
    p = fma_v(p, z, splat(-3.33332819422e-1f));
    const vfloat small = fma_v(p * z, a, a);

    const vfloat large = 1.0f - 2.0f / (exp_v(a + a) + 1.0f);
    const vfloat t = a < splat(0.625f) ? small : large;
    return (vfloat)((vuint)t | sign);
}

template <vfloat (*F)(vfloat)>
void
apply_span(const float *x, float *y, std::size_t n)
{
    std::size_t i = 0;
    for (; i + VL <= n; i += VL)
        store(y + i, F(load(x + i)));
    if (i < n) {
        const std::size_t m = n - i;
        float buf[VL] = {};
        std::memcpy(buf, x + i, m * sizeof(float));
        store(buf, F(load(buf)));
        std::memcpy(y + i, buf, m * sizeof(float));
    }
}

/**
 * One block of the forward gate pass. Gate k of the block sits at
 * z + k*s (s = H in place, VL for a padded tail copy).
 */
inline void
forward_block(float *z, const float *b, std::size_t s, const float *cp,
              float *c, float *h)
{
    const vfloat i = sigmoid_v(load(z) + load(b));
    const vfloat f = sigmoid_v(load(z + s) + load(b + s));
    const vfloat g = tanh_v(load(z + 2 * s) + load(b + 2 * s));
    const vfloat o = sigmoid_v(load(z + 3 * s) + load(b + 3 * s));
    const vfloat ct = i * g + (cp ? f * load(cp) : vfloat{});
    store(z, i);
    store(z + s, f);
    store(z + 2 * s, g);
    store(z + 3 * s, o);
    store(c, ct);
    store(h, o * tanh_v(ct));
}

/** One block of the backward gate pass; layout as forward_block. */
inline void
backward_block(const float *gz, std::size_t s, const float *c,
               const float *cp, const float *dh, float *dc, float *dz)
{
    const vfloat gi = load(gz);
    const vfloat gf = load(gz + s);
    const vfloat gg = load(gz + 2 * s);
    const vfloat go = load(gz + 3 * s);
    const vfloat tc = tanh_v(load(c));
    const vfloat d_h = load(dh);
    const vfloat d_o = d_h * tc;
    const vfloat d_c = load(dc) + d_h * go * (1.0f - tc * tc);
    const vfloat d_i = d_c * gg;
    const vfloat d_f = d_c * (cp ? load(cp) : vfloat{});
    const vfloat d_g = d_c * gi;
    store(dc, d_c * gf);  // flows to step t-1
    store(dz, d_i * gi * (1.0f - gi));
    store(dz + s, d_f * gf * (1.0f - gf));
    store(dz + 2 * s, d_g * (1.0f - gg * gg));
    store(dz + 3 * s, d_o * go * (1.0f - go));
}

/** Copy gate segments k = 0..3 (m floats each) between strides. */
inline void
copy_gates(const float *src, std::size_t ss, float *dst, std::size_t ds,
           std::size_t m)
{
    for (std::size_t k = 0; k < 4; ++k)
        std::memcpy(dst + k * ds, src + k * ss, m * sizeof(float));
}

}  // namespace

void
sigmoid_span(const float *x, float *y, std::size_t n)
{
    apply_span<sigmoid_v>(x, y, n);
}

void
tanh_span(const float *x, float *y, std::size_t n)
{
    apply_span<tanh_v>(x, y, n);
}

void
lstm_gates_forward(Matrix &z, const Matrix &bias, const Matrix *c_prev,
                   Matrix &c, Matrix &h)
{
    const std::size_t batch = z.rows();
    const std::size_t hid = z.cols() / 4;
    assert(z.cols() == 4 * hid && bias.size() == 4 * hid);
    assert(c.rows() == batch && c.cols() == hid);
    assert(h.rows() == batch && h.cols() == hid);
    assert(!c_prev || (c_prev->rows() == batch && c_prev->cols() == hid));
    ScopedOpTimer timer(op_stats().lstm_gate, batch * hid);
    const float *b = bias.data();
    const std::size_t full = hid - hid % VL;
    for (std::size_t r = 0; r < batch; ++r) {
        float *zr = z.row(r);
        const float *cp = c_prev ? c_prev->row(r) : nullptr;
        float *cr = c.row(r);
        float *hr = h.row(r);
        for (std::size_t j = 0; j < full; j += VL)
            forward_block(zr + j, b + j, hid, cp ? cp + j : nullptr,
                          cr + j, hr + j);
        if (full == hid)
            continue;
        // Ragged tail: the same block code on a zero-padded copy.
        const std::size_t m = hid - full;
        float zb[4 * VL] = {}, bb[4 * VL] = {}, cpb[VL] = {};
        float cb[VL], hb[VL];
        copy_gates(zr + full, hid, zb, VL, m);
        copy_gates(b + full, hid, bb, VL, m);
        if (cp)
            std::memcpy(cpb, cp + full, m * sizeof(float));
        forward_block(zb, bb, VL, cp ? cpb : nullptr, cb, hb);
        copy_gates(zb, VL, zr + full, hid, m);
        std::memcpy(cr + full, cb, m * sizeof(float));
        std::memcpy(hr + full, hb, m * sizeof(float));
    }
}

void
lstm_gates_backward(const Matrix &gates, const Matrix &c,
                    const Matrix *c_prev, const Matrix &dh, Matrix &dc,
                    Matrix &dz)
{
    const std::size_t batch = gates.rows();
    const std::size_t hid = gates.cols() / 4;
    assert(gates.cols() == 4 * hid);
    assert(c.rows() == batch && c.cols() == hid);
    assert(!c_prev || (c_prev->rows() == batch && c_prev->cols() == hid));
    assert(dh.rows() == batch && dh.cols() == hid);
    assert(dc.rows() == batch && dc.cols() == hid);
    assert(dz.rows() == batch && dz.cols() == 4 * hid);
    ScopedOpTimer timer(op_stats().lstm_gate, batch * hid);
    const std::size_t full = hid - hid % VL;
    for (std::size_t r = 0; r < batch; ++r) {
        const float *zr = gates.row(r);
        const float *cr = c.row(r);
        const float *cp = c_prev ? c_prev->row(r) : nullptr;
        const float *dhr = dh.row(r);
        float *dcr = dc.row(r);
        float *dzr = dz.row(r);
        for (std::size_t j = 0; j < full; j += VL)
            backward_block(zr + j, hid, cr + j, cp ? cp + j : nullptr,
                           dhr + j, dcr + j, dzr + j);
        if (full == hid)
            continue;
        const std::size_t m = hid - full;
        float zb[4 * VL] = {}, cb[VL] = {}, cpb[VL] = {}, dhb[VL] = {};
        float dcb[VL] = {}, dzb[4 * VL];
        copy_gates(zr + full, hid, zb, VL, m);
        std::memcpy(cb, cr + full, m * sizeof(float));
        if (cp)
            std::memcpy(cpb, cp + full, m * sizeof(float));
        std::memcpy(dhb, dhr + full, m * sizeof(float));
        std::memcpy(dcb, dcr + full, m * sizeof(float));
        backward_block(zb, VL, cb, cp ? cpb : nullptr, dhb, dcb, dzb);
        std::memcpy(dcr + full, dcb, m * sizeof(float));
        copy_gates(dzb, VL, dzr + full, hid, m);
    }
}

}  // namespace voyager::nn

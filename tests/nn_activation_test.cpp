/**
 * @file
 * Tests for the sigmoid/tanh kernel and the fused LSTM gate passes
 * (nn/activation, DESIGN.md §5.20): the same bits in every build (a
 * hash pinned over a strided sweep of all float bit patterns), error
 * bounds against a double reference, exact edge values, NaN in every
 * lane, and ragged-tail elements matching full 16-lane blocks bit for
 * bit.
 */
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "util/random.hpp"

namespace voyager::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::uint32_t
bits(float x)
{
    std::uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

float
from_bits(std::uint32_t u)
{
    float x;
    std::memcpy(&x, &u, sizeof(x));
    return x;
}

/** Every 4099th float bit pattern: about a million inputs. */
std::vector<float>
sweep()
{
    std::vector<float> xs;
    for (std::uint64_t b = 0; b < (1ull << 32); b += 4099)
        xs.push_back(from_bits(static_cast<std::uint32_t>(b)));
    return xs;
}

float
sigmoid1(float x)
{
    float y;
    sigmoid_span(&x, &y, 1);
    return y;
}

float
tanh1(float x)
{
    float y;
    tanh_span(&x, &y, 1);
    return y;
}

/** FNV-1a over the output bits; every NaN hashes as one pattern. */
std::uint64_t
fnv1a(const std::vector<float> &ys, std::uint64_t h)
{
    for (const float y : ys) {
        const std::uint32_t u = std::isnan(y) ? 0x7FC00000u : bits(y);
        for (int k = 0; k < 4; ++k) {
            h ^= (u >> (8 * k)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    }
    return h;
}

/** Distance in representable floats; both finite, same sign side. */
std::int64_t
ulp_distance(float a, float b)
{
    const auto ordered = [](float x) {
        const auto u = static_cast<std::int64_t>(bits(x) & 0x7FFFFFFFu);
        return std::signbit(x) ? -u : u;
    };
    const std::int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

/**
 * Gate inputs on a grid, mostly in [-6, 6] and one in eight in
 * [-120, 120] (saturating). Integer arithmetic and one float multiply:
 * nothing a compiler could contract, so every build sees the same
 * inputs.
 */
Matrix
random_inputs(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) {
        const auto u =
            static_cast<std::int64_t>(rng.next_below(2001)) - 1000;
        const float scale = rng.next_below(8) == 0 ? 0.12f : 0.006f;
        m.data()[i] = static_cast<float>(u) * scale;
    }
    return m;
}

// The kernel's output bits over the sweep, and the fused gate passes
// on fixed inputs (a ragged width, with and without c_prev). A build
// that contracts a multiply-add, reorders the arithmetic or takes a
// different code path changes this hash; release and sanitizer tier1
// runs both check it.
TEST(Activation, SameBitsOnEveryBuild)
{
    const std::vector<float> xs = sweep();
    std::vector<float> s(xs.size()), t(xs.size());
    sigmoid_span(xs.data(), s.data(), xs.size());
    tanh_span(xs.data(), t.data(), xs.size());
    std::uint64_t h = fnv1a(t, fnv1a(s, 0xCBF29CE484222325ull));

    const auto hash_matrix = [&h](const Matrix &m) {
        h = fnv1a(std::vector<float>(m.data(), m.data() + m.size()), h);
    };
    Rng rng(11);
    constexpr std::size_t B = 3, H = 40;
    for (const bool first_step : {true, false}) {
        Matrix z = random_inputs(B, 4 * H, rng);
        const Matrix bias = random_inputs(1, 4 * H, rng);
        const Matrix cp = random_inputs(B, H, rng);
        const Matrix dh = random_inputs(B, H, rng);
        Matrix dc = random_inputs(B, H, rng);
        Matrix c(B, H), hout(B, H), dz(B, 4 * H);
        const Matrix *cpp = first_step ? nullptr : &cp;
        lstm_gates_forward(z, bias, cpp, c, hout);
        lstm_gates_backward(z, c, cpp, dh, dc, dz);
        for (const Matrix *m : {&z, &c, &hout, &dz, &dc})
            hash_matrix(*m);
    }
    EXPECT_EQ(h, 0xB311143ECFBD6C12ull) << std::hex << "hash 0x" << h;
}

TEST(Activation, ErrorBoundAgainstDouble)
{
    std::vector<float> xs = sweep();
    // Densely around the tanh branch point and the steep middle.
    for (int i = -200000; i <= 200000; ++i)
        xs.push_back(static_cast<float>(i) * 5e-5f);
    std::vector<float> s(xs.size()), t(xs.size());
    sigmoid_span(xs.data(), s.data(), xs.size());
    tanh_span(xs.data(), t.data(), xs.size());

    double worst_abs = 0.0;
    std::int64_t worst_ulp = 0;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const float x = xs[i];
        if (std::isnan(x))
            continue;
        const double xd = x;
        const double sref = 1.0 / (1.0 + std::exp(-xd));
        const double tref = std::tanh(xd);
        if (sref < FLT_MIN) {  // flushed by design: exactly 0
            bad += s[i] != 0.0f;
        } else {
            const double e = std::fabs(s[i] - sref);
            const std::int64_t u =
                ulp_distance(s[i], static_cast<float>(sref));
            worst_abs = std::max(worst_abs, e);
            worst_ulp = std::max(worst_ulp, u);
            bad += e > 1e-7 || u > 4;
        }
        const double e = std::fabs(t[i] - tref);
        const std::int64_t u =
            ulp_distance(t[i], static_cast<float>(tref));
        worst_abs = std::max(worst_abs, e);
        worst_ulp = std::max(worst_ulp, u);
        bad += e > 1e-7 || u > 4;
    }
    EXPECT_EQ(bad, 0u) << "worst abs " << worst_abs << ", worst ulp "
                       << worst_ulp;
    EXPECT_LE(worst_ulp, 4);
    EXPECT_LE(worst_abs, 1e-7);
}

TEST(Activation, EdgeValuesAreExact)
{
    EXPECT_EQ(bits(sigmoid1(-kInf)), bits(0.0f));
    EXPECT_EQ(sigmoid1(kInf), 1.0f);
    EXPECT_EQ(tanh1(kInf), 1.0f);
    EXPECT_EQ(tanh1(-kInf), -1.0f);
    EXPECT_EQ(sigmoid1(0.0f), 0.5f);
    EXPECT_EQ(sigmoid1(-0.0f), 0.5f);
    EXPECT_EQ(bits(tanh1(0.0f)), bits(0.0f));
    EXPECT_EQ(bits(tanh1(-0.0f)), bits(-0.0f));
    // |x| > 88.7 saturates exactly, up to the largest finite float.
    for (const float x : {88.71f, 88.75f, 89.0f, 100.0f, 1e10f,
                          std::numeric_limits<float>::max()}) {
        EXPECT_EQ(bits(sigmoid1(-x)), bits(0.0f)) << x;
        EXPECT_EQ(sigmoid1(x), 1.0f) << x;
        EXPECT_EQ(tanh1(x), 1.0f) << x;
        EXPECT_EQ(tanh1(-x), -1.0f) << x;
    }
}

TEST(Activation, DenormalInputs)
{
    for (const std::uint32_t b :
         {0x00000001u, 0x00000002u, 0x00400000u, 0x007FFFFFu}) {
        for (const std::uint32_t sign : {0u, 0x80000000u}) {
            const float x = from_bits(b | sign);
            EXPECT_EQ(sigmoid1(x), 0.5f) << std::hex << (b | sign);
            EXPECT_EQ(bits(tanh1(x)), bits(x)) << std::hex << (b | sign);
        }
    }
}

TEST(Activation, NaNPropagatesInEveryLane)
{
    for (const std::size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u}) {
        for (std::size_t p = 0; p < n; ++p) {
            std::vector<float> x(n, 0.3f), s(n), t(n);
            x[p] = kNaN;
            sigmoid_span(x.data(), s.data(), n);
            tanh_span(x.data(), t.data(), n);
            for (std::size_t j = 0; j < n; ++j) {
                EXPECT_EQ(std::isnan(s[j]), j == p) << n << " " << p;
                EXPECT_EQ(std::isnan(t[j]), j == p) << n << " " << p;
            }
        }
    }
    // The fused gate pass carries a NaN cell state to c and h only at
    // its own element, tail lanes included.
    for (const std::size_t h : {16u, 17u, 33u}) {
        for (std::size_t p = 0; p < h; ++p) {
            Matrix z(1, 4 * h, 0.1f), bias(1, 4 * h);
            Matrix c_prev(1, h, 0.2f), c(1, h), hout(1, h);
            c_prev.at(0, p) = kNaN;
            lstm_gates_forward(z, bias, &c_prev, c, hout);
            for (std::size_t j = 0; j < h; ++j) {
                EXPECT_EQ(std::isnan(c.at(0, j)), j == p)
                    << h << " " << p;
                EXPECT_EQ(std::isnan(hout.at(0, j)), j == p)
                    << h << " " << p;
            }
        }
    }
}

// An element's bits depend only on its inputs: the forward and
// backward gate passes give element j of a row of width h, including
// the zero-padded tail, exactly what the same inputs give in a lane of
// a full 16-wide block whose other lanes hold unrelated values.
TEST(LstmGates, TailMatchesFullBlock)
{
    constexpr std::size_t VL = 16;
    Rng rng(7);
    std::vector<std::size_t> widths;
    for (std::size_t h = 1; h <= 33; ++h)
        widths.push_back(h);
    widths.push_back(64);
    for (const std::size_t h : widths) {
        for (const bool first_step : {true, false}) {
            const Matrix z0 = random_inputs(1, 4 * h, rng);
            const Matrix bias = random_inputs(1, 4 * h, rng);
            const Matrix cp = random_inputs(1, h, rng);
            const Matrix dh = random_inputs(1, h, rng);
            const Matrix dc0 = random_inputs(1, h, rng);
            const Matrix *cpp = first_step ? nullptr : &cp;

            Matrix z = z0, c(1, h), hout(1, h);
            lstm_gates_forward(z, bias, cpp, c, hout);
            Matrix dc = dc0, dz(1, 4 * h);
            lstm_gates_backward(z, c, cpp, dh, dc, dz);

            for (std::size_t j = 0; j < h; ++j) {
                const std::size_t lane = (5 * j + 3) % VL;
                Matrix bz = random_inputs(1, 4 * VL, rng);
                Matrix bb = random_inputs(1, 4 * VL, rng);
                Matrix bcp = random_inputs(1, VL, rng);
                Matrix bdh = random_inputs(1, VL, rng);
                Matrix bdc = random_inputs(1, VL, rng);
                for (std::size_t k = 0; k < 4; ++k) {
                    bz.at(0, k * VL + lane) = z0.at(0, k * h + j);
                    bb.at(0, k * VL + lane) = bias.at(0, k * h + j);
                }
                bcp.at(0, lane) = cp.at(0, j);
                bdh.at(0, lane) = dh.at(0, j);
                bdc.at(0, lane) = dc0.at(0, j);
                const Matrix *bcpp = first_step ? nullptr : &bcp;

                Matrix bc(1, VL), bh(1, VL), bdz(1, 4 * VL);
                lstm_gates_forward(bz, bb, bcpp, bc, bh);
                lstm_gates_backward(bz, bc, bcpp, bdh, bdc, bdz);

                for (std::size_t k = 0; k < 4; ++k) {
                    EXPECT_EQ(bits(z.at(0, k * h + j)),
                              bits(bz.at(0, k * VL + lane)))
                        << "h=" << h << " j=" << j << " gate " << k;
                    EXPECT_EQ(bits(dz.at(0, k * h + j)),
                              bits(bdz.at(0, k * VL + lane)))
                        << "h=" << h << " j=" << j << " dgate " << k;
                }
                EXPECT_EQ(bits(c.at(0, j)), bits(bc.at(0, lane)))
                    << "h=" << h << " j=" << j;
                EXPECT_EQ(bits(hout.at(0, j)), bits(bh.at(0, lane)))
                    << "h=" << h << " j=" << j;
                EXPECT_EQ(bits(dc.at(0, j)), bits(bdc.at(0, lane)))
                    << "h=" << h << " j=" << j;
            }
        }
    }
}

}  // namespace
}  // namespace voyager::nn

/**
 * @file
 * Tests for the dense kernels: GEMM variants against naive reference,
 * softmax/sigmoid/tanh and bias ops.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "nn/ops.hpp"
#include "util/random.hpp"

namespace voyager::nn {
namespace {

Matrix
random_matrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = rng.next_float() * 2.0f - 1.0f;
    return m;
}

Matrix
naive_gemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, j);
            c.at(i, j) = acc;
        }
    return c;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            t.at(j, i) = m.at(i, j);
    return t;
}

void
expect_close(const Matrix &a, const Matrix &b, float tol = 1e-4f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], tol);
}

TEST(Matrix, BasicsAndReshape)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_EQ(m.at(1, 2), 1.5f);
    m.reshape(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    m.zero();
    EXPECT_EQ(m.at(0, 0), 0.0f);
    m.resize(1, 4);
    EXPECT_EQ(m.size(), 4u);
}

TEST(Ops, GemmNnMatchesNaive)
{
    Rng rng(1);
    const auto a = random_matrix(5, 7, rng);
    const auto b = random_matrix(7, 3, rng);
    Matrix c(5, 3);
    gemm_nn(a, b, c);
    expect_close(c, naive_gemm(a, b));
}

TEST(Ops, GemmNnAccumulates)
{
    Rng rng(2);
    const auto a = random_matrix(2, 2, rng);
    const auto b = random_matrix(2, 2, rng);
    Matrix c(2, 2, 1.0f);
    gemm_nn(a, b, c);
    auto expect = naive_gemm(a, b);
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmTnAccumulates)
{
    Rng rng(21);
    const auto a = random_matrix(3, 2, rng);  // (k, m)
    const auto b = random_matrix(3, 4, rng);  // (k, n)
    Matrix c(2, 4, 1.0f);
    gemm_tn(a, b, c);
    auto expect = naive_gemm(transpose(a), b);
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmNtAccumulates)
{
    Rng rng(22);
    const auto a = random_matrix(2, 3, rng);  // (m, k)
    const auto b = random_matrix(4, 3, rng);  // (n, k)
    Matrix c(2, 4, 1.0f);
    gemm_nt(a, b, c);
    auto expect = naive_gemm(a, transpose(b));
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmTnMatchesNaive)
{
    Rng rng(3);
    const auto a = random_matrix(6, 4, rng);  // (k, m)
    const auto b = random_matrix(6, 5, rng);  // (k, n)
    Matrix c(4, 5);
    gemm_tn(a, b, c);
    expect_close(c, naive_gemm(transpose(a), b));
}

TEST(Ops, GemmNtMatchesNaive)
{
    Rng rng(4);
    const auto a = random_matrix(3, 6, rng);  // (m, k)
    const auto b = random_matrix(5, 6, rng);  // (n, k)
    Matrix c(3, 5);
    gemm_nt(a, b, c);
    expect_close(c, naive_gemm(a, transpose(b)));
}

/** Relative-error comparison for kernels on larger problems. */
void
expect_rel_close(const Matrix &a, const Matrix &b, float rel = 1e-4f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float mag = std::max(std::abs(b.data()[i]), 1.0f);
        ASSERT_NEAR(a.data()[i], b.data()[i], rel * mag)
            << "at flat index " << i;
    }
}

/**
 * The packed microkernel must agree with the retained naive reference
 * on shapes that are not multiples of the register tile (MR=8, NR=32):
 * degenerate dims, odd primes, one-off-a-tile and one-past-a-tile.
 * C is seeded with random values so accumulation is exercised too.
 */
TEST(Ops, GemmKernelsMatchReferenceOnOddShapes)
{
    const std::size_t dims[] = {1, 3, 17, 31, 33, 64};
    Rng rng(42);
    for (const std::size_t m : dims)
        for (const std::size_t n : dims)
            for (const std::size_t k : dims) {
                const auto a = random_matrix(m, k, rng);
                const auto b = random_matrix(k, n, rng);
                const auto at = transpose(a);
                const auto bt = transpose(b);
                const auto c0 = random_matrix(m, n, rng);

                Matrix c = c0;
                Matrix ref = c0;
                gemm_nn(a, b, c);
                gemm_nn_ref(a, b, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "nn m=" << m << " n=" << n << " k=" << k;

                c = c0;
                ref = c0;
                gemm_tn(at, b, c);
                gemm_tn_ref(at, b, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "tn m=" << m << " n=" << n << " k=" << k;

                c = c0;
                ref = c0;
                gemm_nt(a, bt, c);
                gemm_nt_ref(a, bt, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "nt m=" << m << " n=" << n << " k=" << k;
            }
}

bool
same_bits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Rows [r0, r1) of m. */
Matrix
row_slice(const Matrix &m, std::size_t r0, std::size_t r1)
{
    Matrix s(r1 - r0, m.cols());
    std::memcpy(s.data(), m.row(r0), s.size() * sizeof(float));
    return s;
}

TEST(Ops, GemmVariantsAgreeBitForBit)
{
    // nn, tn and nt compute the same products in the same k order, so
    // op(A) op(B) must not depend on which operand arrives transposed.
    const std::size_t dims[] = {1, 3, 17, 31, 33, 64};
    Rng rng(43);
    for (const std::size_t m : dims)
        for (const std::size_t n : dims)
            for (const std::size_t k : dims) {
                const auto a = random_matrix(m, k, rng);
                const auto b = random_matrix(k, n, rng);
                const auto c0 = random_matrix(m, n, rng);
                Matrix nn = c0;
                Matrix tn = c0;
                Matrix nt = c0;
                gemm_nn(a, b, nn);
                gemm_tn(transpose(a), b, tn);
                gemm_nt(a, transpose(b), nt);
                ASSERT_TRUE(same_bits(nn, tn))
                    << "m=" << m << " n=" << n << " k=" << k;
                ASSERT_TRUE(same_bits(nn, nt))
                    << "m=" << m << " n=" << n << " k=" << k;
            }
}

TEST(Ops, GemmRowsIndependentOfRowSplit)
{
    // Batch invariance: a row of C must not depend on which other rows
    // share its call, including the rows a ragged edge tile (m not a
    // multiple of the 8-row register tile) computes and discards.
    // Under ASan this also checks those discarded rows stay in bounds.
    const std::size_t dims[] = {1, 3, 17, 31, 33, 64};
    Rng rng(44);
    for (std::size_t m = 1; m <= 9; ++m)
        for (const std::size_t n : dims)
            for (const std::size_t k : dims) {
                const auto a = random_matrix(m, k, rng);
                const auto b = random_matrix(k, n, rng);
                const auto bt = transpose(b);
                const auto c0 = random_matrix(m, n, rng);
                Matrix whole[3] = {c0, c0, c0};
                gemm_nn(a, b, whole[0]);
                gemm_tn(transpose(a), b, whole[1]);
                gemm_nt(a, bt, whole[2]);
                for (std::size_t split = 1; split < m; ++split)
                    for (const auto &[r0, r1] :
                         {std::pair{std::size_t{0}, split},
                          std::pair{split, m}}) {
                        const auto part = row_slice(a, r0, r1);
                        Matrix c[3];
                        for (auto &ci : c)
                            ci = row_slice(c0, r0, r1);
                        gemm_nn(part, b, c[0]);
                        gemm_tn(transpose(part), b, c[1]);
                        gemm_nt(part, bt, c[2]);
                        for (int v = 0; v < 3; ++v)
                            ASSERT_TRUE(same_bits(
                                c[v], row_slice(whole[v], r0, r1)))
                                << "variant " << v << " m=" << m
                                << " rows [" << r0 << "," << r1
                                << ") n=" << n << " k=" << k;
                    }
            }
}

TEST(Ops, AddAndScale)
{
    Matrix y(1, 3);
    Matrix x(1, 3);
    for (int i = 0; i < 3; ++i) {
        y.data()[i] = static_cast<float>(i);
        x.data()[i] = 1.0f;
    }
    add_inplace(y, x);
    EXPECT_EQ(y.at(0, 2), 3.0f);
    scale_inplace(y, 0.5f);
    EXPECT_EQ(y.at(0, 0), 0.5f);
    EXPECT_EQ(y.at(0, 2), 1.5f);
}

TEST(Ops, BiasForwardBackward)
{
    Matrix y(2, 3);
    Matrix bias(1, 3);
    bias.at(0, 1) = 5.0f;
    add_bias(y, bias);
    EXPECT_EQ(y.at(0, 1), 5.0f);
    EXPECT_EQ(y.at(1, 1), 5.0f);

    Matrix dy(2, 3, 1.0f);
    Matrix db(1, 3);
    bias_backward(dy, db);
    EXPECT_EQ(db.at(0, 0), 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(5);
    auto m = random_matrix(4, 9, rng);
    scale_inplace(m, 10.0f);  // exercise stabilization
    softmax_rows(m);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            sum += m.at(r, c);
            ASSERT_GE(m.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxHandlesExtremeLogits)
{
    Matrix m(1, 3);
    m.at(0, 0) = 1000.0f;
    m.at(0, 1) = -1000.0f;
    m.at(0, 2) = 999.0f;
    softmax_rows(m);
    EXPECT_FALSE(std::isnan(m.at(0, 0)));
    EXPECT_GT(m.at(0, 0), m.at(0, 2));
    EXPECT_NEAR(m.at(0, 1), 0.0f, 1e-6f);
}

TEST(Ops, SigmoidAndTanh)
{
    Matrix m(1, 2);
    m.at(0, 0) = 0.0f;
    m.at(0, 1) = 100.0f;
    auto t = m;
    sigmoid_inplace(m);
    EXPECT_NEAR(m.at(0, 0), 0.5f, 1e-6f);
    EXPECT_NEAR(m.at(0, 1), 1.0f, 1e-6f);
    tanh_span(t.data(), t.data(), t.size());
    EXPECT_NEAR(t.at(0, 0), 0.0f, 1e-6f);
    EXPECT_NEAR(t.at(0, 1), 1.0f, 1e-6f);
}

TEST(Ops, SumSquares)
{
    Matrix m(1, 3);
    m.at(0, 0) = 3.0f;
    m.at(0, 1) = 4.0f;
    EXPECT_DOUBLE_EQ(sum_squares(m), 25.0);
}

}  // namespace
}  // namespace voyager::nn

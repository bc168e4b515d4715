/**
 * @file
 * Tests for layers (Embedding, Linear, Dropout, losses, Adam,
 * quantize/prune, serialize) at the behavioural level.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/activation.hpp"
#include "nn/adam.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"

namespace voyager::nn {
namespace {

TEST(Embedding, GathersRows)
{
    Rng rng(1);
    Embedding e(10, 4, rng);
    Matrix out;
    e.forward({3, 3, 7}, out);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(out.at(0, c), out.at(1, c));
        EXPECT_EQ(out.at(0, c), e.param().value.at(3, c));
    }
}

TEST(Embedding, BackwardAccumulatesTouchedRows)
{
    Rng rng(2);
    Embedding e(10, 2, rng);
    Matrix grad(3, 2, 1.0f);
    e.backward({3, 3, 7}, grad);
    EXPECT_EQ(e.param().grad.at(3, 0), 2.0f);  // row 3 hit twice
    EXPECT_EQ(e.param().grad.at(7, 0), 1.0f);
    EXPECT_EQ(e.param().grad.at(0, 0), 0.0f);
    EXPECT_EQ(e.touched().size(), 2u);
    e.clear_touched();
    EXPECT_TRUE(e.touched().empty());
}

TEST(Linear, ForwardMatchesManual)
{
    Rng rng(3);
    Linear l(2, 2, rng);
    l.weight().value.at(0, 0) = 1.0f;
    l.weight().value.at(0, 1) = 2.0f;
    l.weight().value.at(1, 0) = 3.0f;
    l.weight().value.at(1, 1) = 4.0f;
    l.bias().value.at(0, 0) = 0.5f;
    Matrix x(1, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    Matrix y;
    l.forward(x, y);
    EXPECT_NEAR(y.at(0, 0), 1 * 1 + 2 * 3 + 0.5f, 1e-5f);
    EXPECT_NEAR(y.at(0, 1), 1 * 2 + 2 * 4, 1e-5f);
}

TEST(Dropout, EvalModeIsIdentity)
{
    Dropout d(0.5f, 9);
    d.set_training(false);
    Matrix x(4, 4, 1.0f);
    d.forward(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x.data()[i], 1.0f);
}

TEST(Dropout, TrainModePreservesExpectation)
{
    Dropout d(0.8f, 10);
    Matrix x(100, 100, 1.0f);
    d.forward(x);
    double sum = 0.0;
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sum += x.data()[i];
        zeros += x.data()[i] == 0.0f;
    }
    EXPECT_NEAR(sum / static_cast<double>(x.size()), 1.0, 0.05);
    EXPECT_NEAR(static_cast<double>(zeros) / x.size(), 0.2, 0.03);
}

TEST(Dropout, BackwardUsesSameMask)
{
    Dropout d(0.5f, 11);
    Matrix x(8, 8, 1.0f);
    d.forward(x);
    Matrix g(8, 8, 1.0f);
    d.backward(g);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(g.data()[i], x.data()[i]);
}

TEST(Loss, SoftmaxCeKnownValue)
{
    Matrix logits(1, 3);  // uniform -> loss = log(3)
    std::vector<std::int32_t> labels = {1};
    Matrix dl;
    const double loss = softmax_ce_loss(logits, labels, dl);
    EXPECT_NEAR(loss, std::log(3.0), 1e-5);
    EXPECT_NEAR(dl.at(0, 1), 1.0f / 3.0f - 1.0f, 1e-5f);
    EXPECT_NEAR(dl.at(0, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(Loss, SoftmaxCeGradientSumsToZero)
{
    Rng rng(12);
    Matrix logits(4, 7);
    uniform_init(logits, 2.0f, rng);
    Matrix dl;
    softmax_ce_loss(logits, {0, 3, 6, 2}, dl);
    for (std::size_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 7; ++c)
            sum += dl.at(r, c);
        EXPECT_NEAR(sum, 0.0f, 1e-5f);
    }
}

TEST(Loss, BceMultilabelKnownValue)
{
    Matrix logits(1, 2);  // zeros: sigmoid = 0.5 everywhere
    Matrix dl;
    const double loss = bce_multilabel_loss(logits, {{0}}, dl);
    // loss = -log(0.5) - log(1-0.5) = 2 log 2.
    EXPECT_NEAR(loss, 2.0 * std::log(2.0), 1e-5);
    EXPECT_NEAR(dl.at(0, 0), 0.5f - 1.0f, 1e-5f);
    EXPECT_NEAR(dl.at(0, 1), 0.5f, 1e-5f);
}

TEST(Loss, BceMultiplePositives)
{
    Matrix logits(1, 3);
    Matrix dl;
    bce_multilabel_loss(logits, {{0, 2}}, dl);
    EXPECT_LT(dl.at(0, 0), 0.0f);
    EXPECT_GT(dl.at(0, 1), 0.0f);
    EXPECT_LT(dl.at(0, 2), 0.0f);
}

TEST(Loss, ArgmaxAndTopk)
{
    Matrix m(2, 4);
    m.at(0, 2) = 5.0f;
    m.at(1, 0) = 1.0f;
    m.at(1, 3) = 9.0f;
    const auto am = argmax_rows(m);
    EXPECT_EQ(am[0], 2);
    EXPECT_EQ(am[1], 3);
    const auto top = topk_row(m, 1, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 3);
    EXPECT_EQ(top[1], 0);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize ||w - target||^2 with Adam.
    Param w(1, 4);
    Matrix target(1, 4);
    for (int i = 0; i < 4; ++i)
        target.at(0, static_cast<std::size_t>(i)) =
            static_cast<float>(i) - 1.5f;
    AdamConfig cfg;
    cfg.lr = 0.05;
    cfg.clip_norm = 0.0;
    Adam opt(cfg);
    opt.add_param(&w);
    for (int step = 0; step < 500; ++step) {
        for (std::size_t i = 0; i < 4; ++i)
            w.grad.at(0, i) = 2.0f * (w.value.at(0, i) - target.at(0, i));
        opt.step();
    }
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(w.value.at(0, i), target.at(0, i), 0.02f);
    EXPECT_EQ(opt.steps(), 500u);
}

TEST(Adam, SparseEmbeddingUpdatesOnlyTouchedRows)
{
    Rng rng(13);
    Embedding e(6, 3, rng);
    const auto before = e.param().value;
    Adam opt;
    opt.add_embedding(&e);
    Matrix grad(1, 3, 1.0f);
    e.backward({2}, grad);
    opt.step();
    for (std::size_t r = 0; r < 6; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            if (r == 2)
                EXPECT_NE(e.param().value.at(r, c), before.at(r, c));
            else
                EXPECT_EQ(e.param().value.at(r, c), before.at(r, c));
        }
    }
    // Gradient cleared and touched set reset.
    EXPECT_EQ(e.param().grad.at(2, 0), 0.0f);
    EXPECT_TRUE(e.touched().empty());
}

TEST(Adam, StepMatchesScalarReferenceBits)
{
    // Adam::step against a plain scalar transcription of the update:
    // a global norm summed serially in double over every gradient
    // element (embedding tables whole), the clip applied to the
    // gradients first, then per-element m, v and w updates. Shapes
    // are odd so vector bodies and tails are both exercised.
    Rng rng(17);
    Param dense(5, 37);
    uniform_init(dense.value, 0.5f, rng);
    Embedding emb(50, 19, rng);
    const AdamConfig cfg{1e-2, 0.9, 0.999, 1e-8, 0.5};
    Adam opt(cfg);
    opt.add_param(&dense);
    opt.add_embedding(&emb);

    Param *params[2] = {&dense, &emb.param()};
    Matrix w[2] = {dense.value, emb.param().value};
    Matrix m[2] = {Matrix(5, 37), Matrix(50, 19)};
    Matrix v[2] = {Matrix(5, 37), Matrix(50, 19)};
    const auto b1 = static_cast<float>(cfg.beta1);
    const auto b2 = static_cast<float>(cfg.beta2);
    const auto eps = static_cast<float>(cfg.eps);

    for (std::uint64_t t = 1; t <= 6; ++t) {
        uniform_init(dense.grad, 2.0f, rng);
        const std::vector<std::int32_t> ids = {3, 17, 3, 42, 0, 49};
        Matrix go(ids.size(), 19);
        uniform_init(go, 2.0f, rng);
        emb.backward(ids, go);

        Matrix g[2] = {dense.grad, emb.param().grad};
        double total = 0.0;
        for (const Matrix &gi : g)
            for (std::size_t i = 0; i < gi.size(); ++i)
                total += static_cast<double>(gi.data()[i]) * gi.data()[i];
        const double norm = std::sqrt(total);
        ASSERT_GT(norm, cfg.clip_norm);  // the clip is active
        const auto scale = static_cast<float>(cfg.clip_norm / norm);
        const double bc1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(t));
        const double bc2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(t));
        const auto lr_t = static_cast<float>(cfg.lr * std::sqrt(bc2) / bc1);
        for (int p = 0; p < 2; ++p) {
            for (std::size_t i = 0; i < g[p].size(); ++i) {
                if (p == 1 && !emb.touched().count(
                                  static_cast<std::int32_t>(i / 19)))
                    continue;  // lazy update: untouched rows stay
                float &gi = g[p].data()[i];
                float &mi = m[p].data()[i];
                float &vi = v[p].data()[i];
                gi *= scale;
                mi = b1 * mi + (1.0f - b1) * gi;
                vi = b2 * vi + (1.0f - b2) * gi * gi;
                w[p].data()[i] -= lr_t * mi / (std::sqrt(vi) + eps);
            }
        }

        opt.step();
        EXPECT_TRUE(emb.touched().empty());
        for (int p = 0; p < 2; ++p) {
            ASSERT_EQ(std::memcmp(params[p]->value.data(), w[p].data(),
                                  w[p].size() * sizeof(float)),
                      0)
                << "param " << p << " step " << t;
            for (std::size_t i = 0; i < w[p].size(); ++i)
                ASSERT_EQ(params[p]->grad.data()[i], 0.0f);
        }
    }
    EXPECT_EQ(opt.steps(), 6u);

    // Non-finite gradient: the step is skipped whole.
    uniform_init(dense.grad, 2.0f, rng);
    dense.grad.at(4, 36) = std::nanf("");
    Matrix go(1, 19, 1.0f);
    emb.backward({7}, go);
    opt.step();
    EXPECT_EQ(opt.steps(), 6u);
    EXPECT_EQ(opt.skipped_steps(), 1u);
    EXPECT_TRUE(emb.touched().empty());
    for (int p = 0; p < 2; ++p) {
        EXPECT_EQ(std::memcmp(params[p]->value.data(), w[p].data(),
                              w[p].size() * sizeof(float)),
                  0);
        for (std::size_t i = 0; i < w[p].size(); ++i)
            ASSERT_EQ(params[p]->grad.data()[i], 0.0f);
    }
}

TEST(Adam, LrDecay)
{
    Adam opt(AdamConfig{1e-3, 0.9, 0.999, 1e-8, 0.0});
    opt.decay_lr(2.0);
    EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
}

TEST(Quantize, PruneZeroesSmallest)
{
    Matrix m(1, 10);
    for (int i = 0; i < 10; ++i)
        m.data()[i] = static_cast<float>(i + 1);
    magnitude_prune(m, 0.5);
    EXPECT_EQ(nonzero_count(m), 5u);
    EXPECT_EQ(m.data()[9], 10.0f);  // largest survive
    EXPECT_EQ(m.data()[0], 0.0f);
}

TEST(Quantize, PruneZeroIsNoOp)
{
    Matrix m(1, 4, 1.0f);
    magnitude_prune(m, 0.0);
    EXPECT_EQ(nonzero_count(m), 4u);
}

TEST(Quantize, Int8ErrorBounded)
{
    Rng rng(14);
    Matrix m(8, 8);
    uniform_init(m, 1.0f, rng);
    const QuantError err = quantize_dequantize_int8(m);
    // Symmetric per-row grid: error <= scale/2 = max|row|/254 <= 1/254.
    EXPECT_LE(err.max_err, 1.0f / 254.0f + 1e-6f);
    EXPECT_GT(err.max_err, 0.0f);
    EXPECT_LE(err.rms(), err.max_err);
    EXPECT_GT(err.rms(), 0.0);
    EXPECT_EQ(err.elements, 64u);
}

TEST(Quantize, StorageAccounting)
{
    Matrix m(1, 100, 1.0f);
    magnitude_prune(m, 0.8);
    const auto s32 = measure_storage(m, 32);
    EXPECT_EQ(s32.elements, 100u);
    EXPECT_EQ(s32.nonzero, 20u);
    EXPECT_EQ(s32.dense_bytes(), 400u);
    EXPECT_LT(s32.sparse_bytes(), s32.dense_bytes());
    const auto s8 = measure_storage(m, 8);
    EXPECT_LT(s8.sparse_bytes(), s32.sparse_bytes());
}

TEST(Serialize, MatrixRoundTrip)
{
    Rng rng(15);
    Matrix m(3, 5);
    uniform_init(m, 1.0f, rng);
    std::stringstream ss;
    save_matrix(ss, m);
    const Matrix n = load_matrix(ss);
    EXPECT_EQ(n, m);
}

TEST(Serialize, ParamsRoundTripAndValidation)
{
    Rng rng(16);
    Matrix a(2, 2);
    Matrix b(1, 3);
    uniform_init(a, 1.0f, rng);
    uniform_init(b, 1.0f, rng);
    std::stringstream ss;
    save_params(ss, {&a, &b});
    Matrix a2(2, 2);
    Matrix b2(1, 3);
    load_params(ss, {&a2, &b2});
    EXPECT_EQ(a2, a);
    EXPECT_EQ(b2, b);

    std::stringstream ss2;
    save_params(ss2, {&a});
    Matrix wrong(9, 9);
    EXPECT_THROW(load_params(ss2, {&wrong}), std::runtime_error);
}

TEST(Lstm, CacheReuseAcrossShrinkingSequences)
{
    // The forward caches grow but never shrink: running a long
    // sequence and then a shorter one on the same object must give
    // exactly the results of a fresh LSTM with identical weights —
    // stale cached steps beyond the live prefix must not leak into
    // either the forward pass or backward-through-time.
    const std::size_t B = 3;
    const std::size_t in = 4;
    const std::size_t H = 5;
    Rng rng_a(12);
    Rng rng_b(12);
    Lstm reused(in, H, rng_a);
    Lstm fresh(in, H, rng_b);

    Rng data_rng(13);
    std::vector<Matrix> xs_long(6, Matrix(B, in));
    for (auto &x : xs_long)
        uniform_init(x, 1.0f, data_rng);
    std::vector<Matrix> xs_short(3, Matrix(B, in));
    for (auto &x : xs_short)
        uniform_init(x, 1.0f, data_rng);

    // Warm the reused object's caches with the long sequence.
    Matrix h_warm;
    reused.forward(xs_long, h_warm);

    Matrix h_reused;
    Matrix h_fresh;
    reused.forward(xs_short, h_reused);
    fresh.forward(xs_short, h_fresh);
    ASSERT_EQ(h_reused.rows(), B);
    ASSERT_EQ(h_reused.cols(), H);
    for (std::size_t i = 0; i < h_reused.size(); ++i)
        ASSERT_EQ(h_reused.data()[i], h_fresh.data()[i]);

    Matrix dh(B, H);
    uniform_init(dh, 1.0f, data_rng);
    std::vector<Matrix> dxs_reused;
    std::vector<Matrix> dxs_fresh;
    reused.backward(dh, dxs_reused);
    fresh.backward(dh, dxs_fresh);
    ASSERT_EQ(dxs_reused.size(), xs_short.size());
    ASSERT_EQ(dxs_fresh.size(), xs_short.size());
    for (std::size_t t = 0; t < dxs_reused.size(); ++t)
        for (std::size_t i = 0; i < dxs_reused[t].size(); ++i)
            ASSERT_EQ(dxs_reused[t].data()[i], dxs_fresh[t].data()[i]);
    for (std::size_t i = 0; i < reused.wx().grad.size(); ++i)
        ASSERT_EQ(reused.wx().grad.data()[i], fresh.wx().grad.data()[i]);
    for (std::size_t i = 0; i < reused.wh().grad.size(); ++i)
        ASSERT_EQ(reused.wh().grad.data()[i], fresh.wh().grad.data()[i]);
}

TEST(Lstm, BackwardMatchesPerStepGemmNtReference)
{
    // Backprop through time transcribed step by step, with the input
    // gradients as gemm_nt(dz, W): Lstm::backward, which transposes
    // each weight once and runs gemm_nn, must give the same bits.
    // Odd shapes give ragged GEMM tiles on every dimension.
    const std::size_t B = 9;
    const std::size_t in = 13;
    const std::size_t H = 7;
    const std::size_t T = 5;
    Rng rng(31);
    Lstm lstm(in, H, rng);
    std::vector<Matrix> xs(T, Matrix(B, in));
    for (auto &x : xs)
        uniform_init(x, 1.0f, rng);
    Matrix dh_last(B, H);
    uniform_init(dh_last, 1.0f, rng);

    Matrix h_last;
    lstm.forward(xs, h_last);
    std::vector<Matrix> dxs;
    lstm.backward(dh_last, dxs);

    const Matrix &wx = lstm.wx().value;
    const Matrix &wh = lstm.wh().value;
    std::vector<Matrix> gates(T, Matrix(B, 4 * H));
    std::vector<Matrix> cs(T, Matrix(B, H));
    std::vector<Matrix> hs(T, Matrix(B, H));
    for (std::size_t t = 0; t < T; ++t) {
        gemm_nn(xs[t], wx, gates[t]);
        if (t > 0)
            gemm_nn(hs[t - 1], wh, gates[t]);
        lstm_gates_forward(gates[t], lstm.bias().value,
                           t > 0 ? &cs[t - 1] : nullptr, cs[t], hs[t]);
    }
    Matrix wx_grad(in, 4 * H);
    Matrix wh_grad(H, 4 * H);
    Matrix b_grad(1, 4 * H);
    std::vector<Matrix> ref_dxs(T, Matrix(B, in));
    Matrix dh = dh_last;
    Matrix dc(B, H);
    Matrix dz(B, 4 * H);
    for (std::size_t t = T; t-- > 0;) {
        lstm_gates_backward(gates[t], cs[t], t > 0 ? &cs[t - 1] : nullptr,
                            dh, dc, dz);
        gemm_tn(xs[t], dz, wx_grad);
        bias_backward(dz, b_grad);
        gemm_nt(dz, wx, ref_dxs[t]);
        if (t > 0) {
            gemm_tn(hs[t - 1], dz, wh_grad);
            dh.resize(B, H);
            gemm_nt(dz, wh, dh);
        }
    }

    const auto same = [](const Matrix &a, const Matrix &b) {
        return a.rows() == b.rows() && a.cols() == b.cols() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(float)) == 0;
    };
    EXPECT_TRUE(same(lstm.wx().grad, wx_grad));
    EXPECT_TRUE(same(lstm.wh().grad, wh_grad));
    EXPECT_TRUE(same(lstm.bias().grad, b_grad));
    ASSERT_EQ(dxs.size(), T);
    for (std::size_t t = 0; t < T; ++t)
        EXPECT_TRUE(same(dxs[t], ref_dxs[t])) << "step " << t;
}

}  // namespace
}  // namespace voyager::nn

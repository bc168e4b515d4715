/**
 * @file
 * Int8 inference engine tests (DESIGN.md §5.13): quantized layers
 * track their fp32 counterparts, and an end-to-end check that a
 * QuantizedVoyagerModel built from a compressed trained model agrees
 * with the quantize-dequantize fp32 path on >= 99% of top-1
 * predictions — the §5.4 claim, measured on the path that actually
 * executes int8.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/compress.hpp"
#include "core/qmodel.hpp"
#include "core/trainer.hpp"
#include "nn/qlayers.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager {
namespace {

using core::QuantizedVoyagerModel;
using nn::Matrix;
using trace::gen::Scale;

Matrix
random_matrix(std::size_t r, std::size_t c, float scale,
              std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    nn::uniform_init(m, scale, rng);
    return m;
}

core::VoyagerConfig
small_voyager()
{
    core::VoyagerConfig cfg;
    cfg.seq_len = 8;
    cfg.pc_embed_dim = 8;
    cfg.page_embed_dim = 16;
    cfg.num_experts = 4;
    cfg.lstm_units = 32;
    cfg.batch_size = 32;
    cfg.learning_rate = 1e-2;
    cfg.lr_decay_ratio = 1.0;
    return cfg;
}

/** FNV-1a over a matrix's float bits, folded into `h`. */
std::uint64_t
fnv1a(const Matrix &m, std::uint64_t h)
{
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::uint32_t u;
        std::memcpy(&u, m.data() + i, sizeof(u));
        for (int k = 0; k < 4; ++k) {
            h ^= (u >> (8 * k)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    }
    return h;
}

/**
 * Fill with grid values in [-1000, 1000] * step: an integer draw and
 * one float multiply, nothing a compiler could contract, so every
 * build sees the same weights and inputs.
 */
void
grid_fill(Matrix &m, float step, Rng &rng)
{
    for (std::size_t i = 0; i < m.size(); ++i) {
        const auto u =
            static_cast<std::int64_t>(rng.next_below(2001)) - 1000;
        m.data()[i] = static_cast<float>(u) * step;
    }
}

/** Run a QuantizedLstm on per-step inputs, stacked as it takes them. */
void
run_qlstm(nn::QuantizedLstm &qlstm, const std::vector<Matrix> &xs,
          Matrix &h_last)
{
    const std::size_t batch = xs[0].rows();
    Matrix stacked(xs.size() * batch, xs[0].cols());
    for (std::size_t t = 0; t < xs.size(); ++t)
        std::memcpy(stacked.row(t * batch), xs[t].data(),
                    xs[t].size() * sizeof(float));
    nn::QuantizedLstmInput in;
    in.quantize(stacked, xs.size());
    qlstm.forward(in, h_last);
}

TEST(QuantizedLayers, EmbeddingMatchesFp32PerRowGrid)
{
    Rng rng(31);
    nn::Embedding emb(20, 12, rng);
    const nn::QuantizedEmbedding qemb(emb);
    const std::vector<std::int32_t> ids = {0, 7, 19, 7};
    Matrix fp;
    Matrix q;
    emb.forward(ids, fp);
    qemb.forward(ids, q);
    ASSERT_EQ(q.rows(), 4u);
    ASSERT_EQ(q.cols(), 12u);
    for (std::size_t b = 0; b < ids.size(); ++b) {
        const auto row = static_cast<std::size_t>(ids[b]);
        const float tol =
            qemb.table().scale(row) * 0.5f + 1e-7f;
        for (std::size_t j = 0; j < 12; ++j)
            EXPECT_NEAR(q.at(b, j), fp.at(b, j), tol);
    }
    EXPECT_LT(qemb.int8_bytes(), 20u * 12u * sizeof(float));
}

TEST(QuantizedLayers, LinearTracksFp32)
{
    Rng rng(32);
    nn::Linear lin(24, 40, rng);
    nn::QuantizedLinear qlin(lin);
    EXPECT_EQ(qlin.in_dim(), 24u);
    EXPECT_EQ(qlin.out_dim(), 40u);
    const Matrix x = random_matrix(5, 24, 1.0f, 33);
    Matrix y_fp;
    Matrix y_q;
    lin.forward(x, y_fp);
    qlin.forward(x, y_q);
    double err = 0.0;
    double mag = 0.0;
    for (std::size_t i = 0; i < y_fp.size(); ++i) {
        err += std::fabs(y_q.data()[i] - y_fp.data()[i]);
        mag += std::fabs(y_fp.data()[i]);
    }
    // Mean |error| well under mean |activation|: int8 tracks fp32.
    EXPECT_LT(err, 0.05 * mag);
}

TEST(QuantizedLayers, LstmTracksFp32)
{
    Rng rng(34);
    nn::Lstm lstm(16, 24, rng);
    nn::QuantizedLstm qlstm(lstm);
    EXPECT_EQ(qlstm.in_dim(), 16u);
    EXPECT_EQ(qlstm.hidden(), 24u);
    std::vector<Matrix> xs;
    for (std::size_t t = 0; t < 4; ++t)
        xs.push_back(random_matrix(6, 16, 1.0f, 40 + t));
    Matrix h_fp;
    Matrix h_q;
    lstm.forward(xs, h_fp);
    run_qlstm(qlstm, xs, h_q);
    ASSERT_EQ(h_q.rows(), 6u);
    ASSERT_EQ(h_q.cols(), 24u);
    for (std::size_t i = 0; i < h_fp.size(); ++i)
        EXPECT_NEAR(h_q.data()[i], h_fp.data()[i], 0.05f);
}

// The int8 engine's output bits. Its arithmetic is integer qgemm,
// the contraction-free gate pass and explicit fmas, so release and
// sanitizer builds agree bit for bit, at every batch size (odd ones
// exercise the qgemm row tails) and whatever the grouping of its
// qgemm calls. A change that moves one output bit changes the hash.
TEST(QuantizedLayers, LstmSameBitsOnEveryBuild)
{
    Rng rng(61);
    nn::Lstm lstm(13, 7, rng);
    grid_fill(lstm.wx().value, 0.0005f, rng);
    grid_fill(lstm.wh().value, 0.0005f, rng);
    grid_fill(lstm.bias().value, 0.0005f, rng);
    nn::QuantizedLstm qlstm(lstm);
    constexpr std::size_t T = 5;
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::size_t batch : {1u, 3u, 8u, 9u}) {
        std::vector<Matrix> xs(T, Matrix(batch, 13));
        for (Matrix &x : xs)
            grid_fill(x, 0.002f, rng);
        Matrix h_last;
        run_qlstm(qlstm, xs, h_last);
        ASSERT_EQ(h_last.rows(), batch);
        h = fnv1a(h_last, h);
    }
    EXPECT_EQ(h, 0x3BD777FC2E3BCAE6ull) << std::hex << "hash 0x" << h;
}

TEST(QuantizedModel, LogitsSameBitsOnEveryBuild)
{
    core::VoyagerConfig cfg = small_voyager();
    // With one expert the fp32 attention returns the offset embedding
    // exactly (the softmax of one score is 1), so no fp32 arithmetic
    // outside the int8 engine reaches the logits.
    cfg.num_experts = 1;
    core::VoyagerModel model(cfg, 23, 41, 64);
    Rng rng(62);
    for (Matrix *w : model.weights())
        grid_fill(*w, 0.0005f, rng);
    QuantizedVoyagerModel qmodel(model);

    core::VoyagerBatch batch;
    batch.batch = 8;
    batch.seq = cfg.seq_len;
    for (std::size_t i = 0; i < batch.batch * batch.seq; ++i) {
        batch.pc.push_back(static_cast<std::int32_t>(rng.next_below(23)));
        batch.page.push_back(
            static_cast<std::int32_t>(rng.next_below(41)));
        batch.offset.push_back(
            static_cast<std::int32_t>(rng.next_below(64)));
    }
    qmodel.predict(batch, 1);
    ASSERT_EQ(qmodel.page_logits().rows(), 8u);
    ASSERT_EQ(qmodel.offset_logits().cols(), 64u);
    const std::uint64_t h = fnv1a(
        qmodel.offset_logits(),
        fnv1a(qmodel.page_logits(), 0xCBF29CE484222325ull));
    EXPECT_EQ(h, 0x95E4E22239B1E739ull) << std::hex << "hash 0x" << h;
}

TEST(QuantizedModel, Int8PredictTopOneAgreesWithFp32)
{
    // Train a tiny model online (integration-test idiom), compress
    // it onto the int8 grid, then compare the *executed int8*
    // prediction path against the quantize-dequantize fp32 path.
    // The weights are bit-identical by construction, so >= 99% top-1
    // agreement is the acceptance bar on activation quantization.
    const auto stream_src =
        trace::gen::make_workload("pr", Scale::Tiny, 4);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(stream_src, cfg);
    core::VoyagerAdapter voyager(small_voyager(), stream);
    core::OnlineTrainConfig ocfg;
    ocfg.epochs = 4;
    ocfg.train_passes = 8;
    ocfg.max_train_samples_per_epoch = 1200;
    train_online(voyager, stream.size(), ocfg);

    const auto rep = core::compress_model(voyager.model());
    EXPECT_GT(rep.max_quant_error, 0.0f);
    EXPECT_GT(rep.rms_quant_error, 0.0);
    EXPECT_LE(rep.rms_quant_error,
              static_cast<double>(rep.max_quant_error));

    std::vector<std::size_t> idx;
    for (std::size_t i = stream.size() / 2;
         i < stream.size() / 2 + 400 && i < stream.size(); ++i)
        idx.push_back(i);

    ASSERT_EQ(voyager.int8_model(), nullptr);
    const auto fp32 = voyager.predict_on(idx, 1);
    voyager.enable_int8_inference();
    ASSERT_NE(voyager.int8_model(), nullptr);
    const auto [scale_lo, scale_hi] =
        voyager.int8_model()->weight_scale_range();
    EXPECT_GT(scale_lo, 0.0f);
    EXPECT_GE(scale_hi, scale_lo);
    EXPECT_LT(voyager.int8_model()->int8_bytes(),
              voyager.model().parameter_bytes() / 3);
    const auto int8 = voyager.predict_on(idx, 1);
    voyager.disable_int8_inference();
    ASSERT_EQ(voyager.int8_model(), nullptr);

    std::size_t same = 0;
    std::size_t considered = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
        if (fp32[k].empty() && int8[k].empty())
            continue;
        ++considered;
        if (!fp32[k].empty() && !int8[k].empty())
            same += fp32[k][0] == int8[k][0];
    }
    ASSERT_GT(considered, 100u);
    const double agreement = static_cast<double>(same) /
                             static_cast<double>(considered);
    std::cout << "int8 top-1 agreement: " << same << "/" << considered
              << " (" << 100.0 * agreement << "%)\n";
    EXPECT_GE(agreement, 0.99)
        << same << "/" << considered << " top-1 predictions agree";
}

}  // namespace
}  // namespace voyager

/**
 * @file
 * Micro-benchmarks of the NN substrate (google-benchmark): GEMM,
 * LSTM step, MoE attention, embedding gather, BCE loss — the kernels
 * whose costs drive §5.4's training/inference overhead numbers.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "nn/attention.hpp"
#include "nn/hierarchical_softmax.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"
#include "nn/qmatrix.hpp"
#include "nn/qops.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace {

using namespace voyager;
using nn::Matrix;

void
BM_GemmNn(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Matrix a(n, n);
    Matrix b(n, n);
    Matrix c(n, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        nn::gemm_nn(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNn)->Arg(32)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------
// Microkernel vs seed-naive reference at Voyager shapes: (m, k, n) =
// (batch, input/hidden, 4*hidden or head width) with batch <= 32 and
// hidden 128-256 — the GEMMs every training step issues. items/s is
// FLOP/s; divide a *Voyager rate by its *RefVoyager twin for the
// speedup.
// ---------------------------------------------------------------------

void
GemmVoyagerShapes(benchmark::internal::Benchmark *b)
{
    b->Args({32, 128, 512})
        ->Args({32, 256, 1024})
        ->Args({16, 256, 1024})
        ->Args({8, 128, 512});
}

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmNnShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(11);
    Matrix a(m, k);
    Matrix b(k, n);
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn_ref>)
    ->Name("BM_GemmNnRefVoyager")
    ->Apply(GemmVoyagerShapes);

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmTnShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(12);
    Matrix a(k, m);  // transposed operand, as in weight gradients
    Matrix b(k, n);
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTnShaped<nn::gemm_tn>)
    ->Name("BM_GemmTnVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmTnShaped<nn::gemm_tn_ref>)
    ->Name("BM_GemmTnRefVoyager")
    ->Apply(GemmVoyagerShapes);

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmNtShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(13);
    Matrix a(m, k);
    Matrix b(n, k);  // transposed operand, as in input gradients
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt>)
    ->Name("BM_GemmNtVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt_ref>)
    ->Name("BM_GemmNtRefVoyager")
    ->Apply(GemmVoyagerShapes);

// The GEMMs the benchmark's model (perfbench, small scale: batch 64,
// 72-wide LSTM input, 64 LSTM units, page/offset heads of 191/47
// classes) issues per training step, and the 8-row serve batch.
// Forward and heads: C(m,n) = X W. Backward: weight gradients Xᵀ dZ
// (tn) and input gradients dZ Wᵀ (nt; Lstm::backward runs them as nn
// on a once-transposed W, the last two nn shapes).

void
GemmModelNnShapes(benchmark::internal::Benchmark *b)
{
    b->Args({64, 72, 256})
        ->Args({64, 64, 256})
        ->Args({8, 72, 256})
        ->Args({64, 64, 47})
        ->Args({64, 64, 191})
        ->Args({64, 256, 72})
        ->Args({64, 256, 64});
}

void
GemmModelTnShapes(benchmark::internal::Benchmark *b)
{
    b->Args({72, 64, 256});
}

void
GemmModelNtShapes(benchmark::internal::Benchmark *b)
{
    b->Args({64, 256, 72})->Args({64, 256, 64});
}

BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnModel")
    ->Apply(GemmModelNnShapes);
BENCHMARK(BM_GemmTnShaped<nn::gemm_tn>)
    ->Name("BM_GemmTnModel")
    ->Apply(GemmModelTnShapes);
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt>)
    ->Name("BM_GemmNtModel")
    ->Apply(GemmModelNtShapes);

// ---------------------------------------------------------------------
// Int8 qgemm vs fp32 at inference shapes (DESIGN.md §5.13). The first
// two arg sets are the Voyager head (batch x lstm_units -> vocab),
// the acceptance shape for the >= 2x int8 speedup; the rest mirror
// the LSTM-gate shapes above. BM_QgemmNtVoyager measures the whole
// int8 call as deployed — dynamic activation quantization included —
// and BM_GemmNnHeadFp32 is the packed fp32 kernel at identical
// (m, k, n); divide the items/s for the speedup. BM_QgemmNtRefVoyager
// is the naive reference baseline.
// ---------------------------------------------------------------------

void
QgemmVoyagerShapes(benchmark::internal::Benchmark *b)
{
    b->Args({64, 64, 1024})
        ->Args({64, 64, 16384})
        ->Args({32, 128, 512})
        ->Args({32, 256, 1024});
}

template <void (*Qgemm)(const nn::QActivations &, const nn::QMatrix &,
                        Matrix &)>
void
BM_QgemmNtShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(14);
    Matrix x(m, k);
    Matrix w(n, k);
    Matrix c(m, n);
    nn::uniform_init(x, 1.0f, rng);
    nn::uniform_init(w, 1.0f, rng);
    const nn::QMatrix qw = nn::QMatrix::quantize(w, /*transpose=*/false);
    qw.pack();
    nn::QActivations qa;
    for (auto _ : state) {
        nn::quantize_activations(x, qa);
        c.zero();
        Qgemm(qa, qw, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_QgemmNtShaped<nn::qgemm_nt>)
    ->Name("BM_QgemmNtVoyager")
    ->Apply(QgemmVoyagerShapes);
BENCHMARK(BM_QgemmNtShaped<nn::qgemm_nt_ref>)
    ->Name("BM_QgemmNtRefVoyager")
    ->Apply(QgemmVoyagerShapes);
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnHeadFp32")
    ->Apply(QgemmVoyagerShapes);

void
BM_LstmForward(benchmark::State &state)
{
    const auto hidden = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t T = 16;
    Rng rng(2);
    nn::Lstm lstm(hidden, hidden, rng);
    std::vector<Matrix> xs(T, Matrix(batch, hidden));
    for (auto &x : xs)
        nn::uniform_init(x, 1.0f, rng);
    Matrix h;
    for (auto _ : state) {
        lstm.forward(xs, h);
        benchmark::DoNotOptimize(h.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * T);
}
BENCHMARK(BM_LstmForward)->Arg(32)->Arg(64)->Arg(256);

void
BM_LstmBackward(benchmark::State &state)
{
    const auto hidden = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t T = 16;
    Rng rng(3);
    nn::Lstm lstm(hidden, hidden, rng);
    std::vector<Matrix> xs(T, Matrix(batch, hidden));
    for (auto &x : xs)
        nn::uniform_init(x, 1.0f, rng);
    Matrix h;
    lstm.forward(xs, h);
    Matrix dh(batch, hidden, 0.01f);
    std::vector<Matrix> dxs;
    for (auto _ : state) {
        lstm.backward(dh, dxs);
        benchmark::DoNotOptimize(dxs.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * T);
}
BENCHMARK(BM_LstmBackward)->Arg(32)->Arg(64);

void
BM_MoeAttention(benchmark::State &state)
{
    const auto experts = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t d = 32;
    Rng rng(4);
    nn::MoeAttention attn(experts);
    Matrix page(batch, d);
    Matrix offset(batch, experts * d);
    nn::uniform_init(page, 1.0f, rng);
    nn::uniform_init(offset, 1.0f, rng);
    Matrix out;
    for (auto _ : state) {
        attn.forward(page, offset, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MoeAttention)->Arg(4)->Arg(10)->Arg(100);

void
BM_EmbeddingGather(benchmark::State &state)
{
    const auto vocab = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    nn::Embedding emb(vocab, 64, rng);
    std::vector<std::int32_t> ids(256);
    for (auto &id : ids)
        id = static_cast<std::int32_t>(rng.next_below(vocab));
    Matrix out;
    for (auto _ : state) {
        emb.forward(ids, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_EmbeddingGather)->Arg(1024)->Arg(65536);

void
BM_BceLoss(benchmark::State &state)
{
    const auto classes = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix logits(64, classes);
    nn::uniform_init(logits, 1.0f, rng);
    std::vector<std::vector<std::int32_t>> labels(64);
    for (auto &l : labels)
        l = {static_cast<std::int32_t>(rng.next_below(classes))};
    Matrix dl;
    for (auto _ : state) {
        const double loss = nn::bce_multilabel_loss(logits, labels, dl);
        benchmark::DoNotOptimize(loss);
    }
    state.SetItemsProcessed(state.iterations() * 64 * classes);
}
BENCHMARK(BM_BceLoss)->Arg(191)->Arg(4096);

void
BM_FlatSoftmaxHead(benchmark::State &state)
{
    const auto classes = static_cast<std::size_t>(state.range(0));
    const std::size_t in = 64;
    Rng rng(7);
    nn::Linear head(in, classes, rng);
    Matrix x(64, in);
    nn::uniform_init(x, 1.0f, rng);
    std::vector<std::int32_t> targets(64);
    for (auto &t : targets)
        t = static_cast<std::int32_t>(rng.next_below(classes));
    Matrix y;
    Matrix dl;
    Matrix dx;
    for (auto _ : state) {
        head.forward(x, y);
        nn::softmax_ce_loss(y, targets, dl);
        head.backward(dl, dx);
        benchmark::DoNotOptimize(dx.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FlatSoftmaxHead)->Arg(1024)->Arg(16384);

void
BM_HierarchicalSoftmaxHead(benchmark::State &state)
{
    // The paper's §5.5 estimate: hierarchical softmax cuts the output
    // head's train cost 3-4x. Compare against BM_FlatSoftmaxHead.
    const auto classes = static_cast<std::size_t>(state.range(0));
    const std::size_t in = 64;
    Rng rng(8);
    nn::HierarchicalSoftmax head(in, classes, rng);
    Matrix x(64, in);
    nn::uniform_init(x, 1.0f, rng);
    std::vector<std::int32_t> targets(64);
    for (auto &t : targets)
        t = static_cast<std::int32_t>(rng.next_below(classes));
    Matrix dx;
    for (auto _ : state) {
        const double loss = head.loss_and_grad(x, targets, dx);
        benchmark::DoNotOptimize(loss);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HierarchicalSoftmaxHead)->Arg(1024)->Arg(16384);

/**
 * Dump the nn::op_stats() counters accumulated across every benchmark
 * that ran. "work" is FLOPs for GEMM and processed elements for the
 * pointwise classes; "rate" is work/seconds. This is the baseline
 * future perf PRs diff against (see README "Reading the op counters").
 */
void
report_op_stats()
{
    const auto &s = voyager::nn::op_stats();
    struct Row
    {
        const char *name;
        const voyager::nn::OpClassStats &c;
    };
    const Row rows[] = {
        {"gemm", s.gemm},
        {"qgemm", s.qgemm},
        {"lstm_gate", s.lstm_gate},
        {"attention", s.attention},
    };
    std::printf("\nop-class counters (whole run)\n");
    std::printf("%-10s %12s %16s %12s %14s\n", "class", "calls",
                "work", "seconds", "work/s");
    for (const Row &r : rows) {
        const double rate =
            r.c.seconds > 0.0
                ? static_cast<double>(r.c.work) / r.c.seconds
                : 0.0;
        std::printf("%-10s %12llu %16llu %12.3f %14.3e\n", r.name,
                    static_cast<unsigned long long>(r.c.calls),
                    static_cast<unsigned long long>(r.c.work),
                    r.c.seconds, rate);
    }
}

/**
 * Strip `--stats_json=`/`--stats_csv=` from argv (google-benchmark
 * rejects flags it does not know) and return the extracted path.
 */
std::string
extract_flag(int &argc, char **argv, const std::string &flag)
{
    const std::string prefix = "--" + flag + "=";
    std::string value;
    int w = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            value = arg.substr(prefix.size());
        else
            argv[w++] = argv[i];
    }
    argc = w;
    return value;
}

/**
 * Map `--op=<class>` to a benchmark filter regex so CI smoke runs can
 * select one kernel family (`--op=qgemm` runs the int8 kernels plus
 * their fp32 comparison rows). Unknown values pass through as a raw
 * regex.
 */
std::string
op_filter(const std::string &op)
{
    if (op == "qgemm")
        return "BM_Qgemm|BM_GemmNnHeadFp32";
    if (op == "gemm")
        return "BM_Gemm";
    if (op == "lstm")
        return "BM_Lstm";
    if (op == "attention")
        return "BM_MoeAttention";
    if (op == "embedding")
        return "BM_EmbeddingGather";
    return op;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::string stats_json = extract_flag(argc, argv, "stats_json");
    const std::string stats_csv = extract_flag(argc, argv, "stats_csv");
    const std::string op = extract_flag(argc, argv, "op");
    std::vector<char *> args(argv, argv + argc);
    std::string filter_arg;
    if (!op.empty()) {
        filter_arg = "--benchmark_filter=" + op_filter(op);
        args.push_back(filter_arg.data());
    }
    argc = static_cast<int>(args.size());
    argv = args.data();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    voyager::nn::op_stats().reset();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    report_op_stats();

    if (!stats_json.empty() || !stats_csv.empty()) {
        voyager::StatRegistry reg;
        reg.set_meta("bench", "micro_nn");
        voyager::nn::export_op_stats(reg);
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            reg.write_json(os);
        }
        if (!stats_csv.empty()) {
            std::ofstream os(stats_csv);
            reg.write_csv(os);
        }
    }
    return 0;
}

#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/ops.hpp"

namespace voyager::nn {

double
softmax_ce_loss(const Matrix &logits,
                const std::vector<std::int32_t> &labels, Matrix &dlogits)
{
    dlogits = logits;
    softmax_rows(dlogits);
    return softmax_ce_loss_from_probs(dlogits, labels);
}

double
softmax_ce_loss_from_probs(Matrix &probs,
                           const std::vector<std::int32_t> &labels)
{
    const std::size_t batch = probs.rows();
    const std::size_t classes = probs.cols();
    assert(labels.size() == batch);

    double loss = 0.0;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t r = 0; r < batch; ++r) {
        const auto y = labels[r];
        assert(y >= 0 && static_cast<std::size_t>(y) < classes);
        float *row = probs.row(r);
        loss -= std::log(std::max(row[y], 1e-12f));
        row[y] -= 1.0f;
        for (std::size_t c = 0; c < classes; ++c)
            row[c] *= inv_batch;
    }
    return loss / static_cast<double>(batch);
}

double
bce_multilabel_loss(const Matrix &logits,
                    const std::vector<std::vector<std::int32_t>> &labels,
                    Matrix &dlogits, float pos_weight)
{
    const std::size_t batch = logits.rows();
    const std::size_t classes = logits.cols();
    assert(labels.size() == batch);

    dlogits.resize(batch, classes);
    double loss = 0.0;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t r = 0; r < batch; ++r) {
        const float *z = logits.row(r);
        float *dz = dlogits.row(r);
        // All-negative pass, then patch the positives.
        for (std::size_t c = 0; c < classes; ++c) {
            const float s = 1.0f / (1.0f + std::exp(-z[c]));
            // -log(1 - sigmoid(z)) = z + log(1 + exp(-z)) stably:
            loss += std::max(z[c], 0.0f) +
                    std::log1p(std::exp(-std::fabs(z[c])));
            dz[c] = s * inv_batch;
        }
        for (const auto y : labels[r]) {
            assert(y >= 0 && static_cast<std::size_t>(y) < classes);
            // Swap the negative term -log(1-s) for pos_weight copies
            // of the positive term -log(s).
            const float neg_term =
                std::max(z[y], 0.0f) +
                std::log1p(std::exp(-std::fabs(z[y])));
            const float pos_term = neg_term - z[y];  // = -log(sigmoid)
            loss += pos_weight * pos_term - neg_term;
            const float s = 1.0f / (1.0f + std::exp(-z[y]));
            dz[y] = pos_weight * (s - 1.0f) * inv_batch;
        }
    }
    return loss / static_cast<double>(batch);
}

std::vector<std::int32_t>
argmax_rows(const Matrix &m)
{
    std::vector<std::int32_t> out(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *row = m.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < m.cols(); ++c)
            if (row[c] > row[best])
                best = c;
        out[r] = static_cast<std::int32_t>(best);
    }
    return out;
}

std::vector<std::int32_t>
topk_row(const Matrix &m, std::size_t row, std::size_t k)
{
    const float *r = m.row(row);
    std::vector<std::int32_t> idx(m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c)
        idx[c] = static_cast<std::int32_t>(c);
    const std::size_t kk = std::min(k, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                      [r](std::int32_t a, std::int32_t b) {
                          return r[a] > r[b];
                      });
    idx.resize(kk);
    return idx;
}

}  // namespace voyager::nn

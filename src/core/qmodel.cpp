#include "core/qmodel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace voyager::core {

using nn::Matrix;

QuantizedVoyagerModel::QuantizedVoyagerModel(const VoyagerModel &src)
    : cfg_(src.config()),
      pc_emb_(src.pc_embedding()),
      page_emb_(src.page_embedding()),
      offset_emb_(src.offset_embedding()),
      attn_(cfg_.seq_len,
            nn::MoeAttention(cfg_.num_experts, cfg_.attention_scale)),
      page_lstm_(src.page_lstm()),
      offset_lstm_(src.offset_lstm()),
      page_head_(src.page_head()),
      offset_head_(src.offset_head())
{
}

void
QuantizedVoyagerModel::forward(const VoyagerBatch &batch)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    assert(T == cfg_.seq_len);
    assert(batch.pc.size() == B * T && batch.page.size() == B * T &&
           batch.offset.size() == B * T);

    const std::size_t d_pc = cfg_.use_pc_feature ? cfg_.pc_embed_dim : 0;
    const std::size_t d_page = cfg_.page_embed_dim;
    const std::size_t in_dim = d_pc + 2 * d_page;

    // Same input assembly as VoyagerModel::forward (minus dropout,
    // which is identity at inference): per step, gather + dequantize
    // the embeddings in int8, mix the page-aware offset embedding in
    // fp32 attention, and concatenate [pc | page | attention] rows.
    // The steps are stacked, step t in rows t*B .. t*B + B - 1, and
    // quantized once for both LSTMs.
    std::vector<std::int32_t> pc_ids(B);
    std::vector<std::int32_t> page_ids(B);
    std::vector<std::int32_t> off_ids(B);
    Matrix pc_e;
    Matrix page_e;
    Matrix off_e;
    Matrix off_aware;
    x_.resize_uninit(T * B, in_dim);  // every row is written below
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t b = 0; b < B; ++b) {
            pc_ids[b] = batch.pc[b * T + t];
            page_ids[b] = batch.page[b * T + t];
            off_ids[b] = batch.offset[b * T + t];
        }
        page_emb_.forward(page_ids, page_e);
        offset_emb_.forward(off_ids, off_e);
        attn_[t].forward(page_e, off_e, off_aware);
        if (cfg_.use_pc_feature)
            pc_emb_.forward(pc_ids, pc_e);
        for (std::size_t b = 0; b < B; ++b) {
            float *row = x_.row(t * B + b);
            std::size_t o = 0;
            if (cfg_.use_pc_feature) {
                std::memcpy(row, pc_e.row(b), d_pc * sizeof(float));
                o += d_pc;
            }
            std::memcpy(row + o, page_e.row(b), d_page * sizeof(float));
            o += d_page;
            std::memcpy(row + o, off_aware.row(b),
                        d_page * sizeof(float));
        }
    }

    lstm_in_.quantize(x_, T);
    page_lstm_.forward(lstm_in_, h_page_);
    offset_lstm_.forward(lstm_in_, h_offset_);
    page_head_.forward(h_page_, page_logits_);
    offset_head_.forward(h_offset_, offset_logits_);
}

std::vector<std::vector<TokenPrediction>>
QuantizedVoyagerModel::predict(const VoyagerBatch &batch, std::size_t k)
{
    forward(batch);
    const bool use_bce =
        cfg_.multi_label && cfg_.multi_label_loss == MultiLabelLoss::Bce;
    return rank_token_predictions(page_logits_, offset_logits_,
                                  use_bce, k);
}

std::uint64_t
QuantizedVoyagerModel::int8_bytes() const
{
    return pc_emb_.int8_bytes() + page_emb_.int8_bytes() +
           offset_emb_.int8_bytes() + page_lstm_.int8_bytes() +
           offset_lstm_.int8_bytes() + page_head_.int8_bytes() +
           offset_head_.int8_bytes();
}

std::pair<float, float>
QuantizedVoyagerModel::weight_scale_range() const
{
    float lo = 0.0f;
    float hi = 0.0f;
    bool any = false;
    const auto fold = [&](const std::vector<float> &scales) {
        for (const float s : scales) {
            if (s == 0.0f)
                continue;  // all-zero (fully pruned) channel
            if (!any) {
                lo = hi = s;
                any = true;
            } else {
                lo = std::min(lo, s);
                hi = std::max(hi, s);
            }
        }
    };
    fold(pc_emb_.table().scales());
    fold(page_emb_.table().scales());
    fold(offset_emb_.table().scales());
    fold(page_lstm_.wx().scales());
    fold(page_lstm_.wh().scales());
    fold(offset_lstm_.wx().scales());
    fold(offset_lstm_.wh().scales());
    fold(page_head_.weight().scales());
    fold(offset_head_.weight().scales());
    return {lo, hi};
}

}  // namespace voyager::core

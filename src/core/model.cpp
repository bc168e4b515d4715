#include "core/model.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"

namespace voyager::core {

using nn::Matrix;

VoyagerConfig
VoyagerConfig::paper()
{
    VoyagerConfig c;
    c.seq_len = 16;
    c.pc_embed_dim = 64;
    c.page_embed_dim = 256;
    c.num_experts = 100;  // offset embedding 25600 = 256 x 100
    c.lstm_units = 256;
    c.dropout_keep = 0.8f;
    c.learning_rate = 1e-3;
    c.lr_decay_ratio = 2.0;
    c.batch_size = 256;
    return c;
}

VoyagerModel::VoyagerModel(const VoyagerConfig &cfg,
                           std::int32_t num_pc_tokens,
                           std::int32_t num_page_tokens,
                           std::int32_t num_offset_tokens)
    : cfg_(cfg), rng_(cfg.seed),
      pc_emb_(static_cast<std::size_t>(num_pc_tokens), cfg.pc_embed_dim,
              rng_),
      page_emb_(static_cast<std::size_t>(num_page_tokens),
                cfg.page_embed_dim, rng_),
      offset_emb_(static_cast<std::size_t>(num_offset_tokens),
                  cfg.offset_embed_dim(), rng_),
      attn_(cfg.seq_len,
            nn::MoeAttention(cfg.num_experts, cfg.attention_scale)),
      page_lstm_((cfg.use_pc_feature ? cfg.pc_embed_dim : 0) +
                     2 * cfg.page_embed_dim,
                 cfg.lstm_units, rng_),
      offset_lstm_((cfg.use_pc_feature ? cfg.pc_embed_dim : 0) +
                       2 * cfg.page_embed_dim,
                   cfg.lstm_units, rng_),
      page_dropout_(cfg.dropout_keep, cfg.seed ^ 0x9e37u),
      offset_dropout_(cfg.dropout_keep, cfg.seed ^ 0x79b9u),
      page_head_(cfg.lstm_units, static_cast<std::size_t>(num_page_tokens),
                 rng_),
      offset_head_(cfg.lstm_units,
                   static_cast<std::size_t>(num_offset_tokens), rng_),
      opt_(nn::AdamConfig{cfg.learning_rate, 0.9, 0.999, 1e-8,
                          cfg.grad_clip})
{
    opt_.add_embedding(&pc_emb_);
    opt_.add_embedding(&page_emb_);
    opt_.add_embedding(&offset_emb_);
    for (nn::Lstm *l : {&page_lstm_, &offset_lstm_}) {
        opt_.add_param(&l->wx());
        opt_.add_param(&l->wh());
        opt_.add_param(&l->bias());
    }
    for (nn::Linear *l : {&page_head_, &offset_head_}) {
        opt_.add_param(&l->weight());
        opt_.add_param(&l->bias());
    }
}

void
VoyagerModel::forward(const VoyagerBatch &batch, bool training)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    assert(T == cfg_.seq_len);
    assert(batch.pc.size() == B * T && batch.page.size() == B * T &&
           batch.offset.size() == B * T);

    page_dropout_.set_training(training);
    offset_dropout_.set_training(training);

    const std::size_t d_pc = cfg_.use_pc_feature ? cfg_.pc_embed_dim : 0;
    const std::size_t d_page = cfg_.page_embed_dim;
    const std::size_t in_dim = d_pc + 2 * d_page;

    xs_.assign(T, Matrix());
    step_pc_ids_.assign(T, {});
    step_page_ids_.assign(T, {});
    step_offset_ids_.assign(T, {});

    Matrix pc_e;
    Matrix page_e;
    Matrix off_e;
    Matrix off_aware;
    for (std::size_t t = 0; t < T; ++t) {
        auto &pc_ids = step_pc_ids_[t];
        auto &page_ids = step_page_ids_[t];
        auto &off_ids = step_offset_ids_[t];
        pc_ids.resize(B);
        page_ids.resize(B);
        off_ids.resize(B);
        for (std::size_t b = 0; b < B; ++b) {
            pc_ids[b] = batch.pc[b * T + t];
            page_ids[b] = batch.page[b * T + t];
            off_ids[b] = batch.offset[b * T + t];
        }
        page_emb_.forward(page_ids, page_e);
        offset_emb_.forward(off_ids, off_e);
        attn_[t].forward(page_e, off_e, off_aware);

        Matrix &x = xs_[t];
        x.resize(B, in_dim);
        if (cfg_.use_pc_feature)
            pc_emb_.forward(pc_ids, pc_e);
        for (std::size_t b = 0; b < B; ++b) {
            float *row = x.row(b);
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

    // Inference skips the per-step LSTM caches (backward never runs);
    // both entry points are bit-identical (see Lstm::forward_inference),
    // so predictions do not depend on which one served them.
    if (training) {
        page_lstm_.forward(xs_, h_page_);
        offset_lstm_.forward(xs_, h_offset_);
    } else {
        page_lstm_.forward_inference(xs_, h_page_);
        offset_lstm_.forward_inference(xs_, h_offset_);
    }
    page_dropout_.forward(h_page_);
    offset_dropout_.forward(h_offset_);
    page_head_.forward(h_page_, page_logits_);
    offset_head_.forward(h_offset_, offset_logits_);
}

void
VoyagerModel::backward(const VoyagerBatch &batch,
                       const Matrix &dpage_logits,
                       const Matrix &doffset_logits)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    const std::size_t d_pc = cfg_.use_pc_feature ? cfg_.pc_embed_dim : 0;
    const std::size_t d_page = cfg_.page_embed_dim;

    Matrix dh_page;
    Matrix dh_offset;
    page_head_.backward(dpage_logits, dh_page);
    offset_head_.backward(doffset_logits, dh_offset);
    page_dropout_.backward(dh_page);
    offset_dropout_.backward(dh_offset);

    std::vector<Matrix> dxs_page;
    std::vector<Matrix> dxs_offset;
    page_lstm_.backward(dh_page, dxs_page);
    offset_lstm_.backward(dh_offset, dxs_offset);

    Matrix dpage_e(B, d_page);
    Matrix dpage_from_attn;
    Matrix doff_e;
    Matrix dattn_out(B, d_page);
    Matrix dpc_e(B, d_pc == 0 ? 1 : d_pc);
    for (std::size_t t = 0; t < T; ++t) {
        add_inplace(dxs_page[t], dxs_offset[t]);  // both LSTMs share x
        const Matrix &dx = dxs_page[t];
        // Split dx back into [pc | page | attention-output] chunks.
        for (std::size_t b = 0; b < B; ++b) {
            const float *row = dx.row(b);
            std::size_t o = 0;
            if (d_pc > 0) {
                std::memcpy(dpc_e.row(b), row, d_pc * sizeof(float));
                o += d_pc;
            }
            std::memcpy(dpage_e.row(b), row + o, d_page * sizeof(float));
            o += d_page;
            std::memcpy(dattn_out.row(b), row + o,
                        d_page * sizeof(float));
        }
        attn_[t].backward(dattn_out, dpage_from_attn, doff_e);
        add_inplace(dpage_from_attn, dpage_e);
        page_emb_.backward(step_page_ids_[t], dpage_from_attn);
        offset_emb_.backward(step_offset_ids_[t], doff_e);
        if (d_pc > 0)
            pc_emb_.backward(step_pc_ids_[t], dpc_e);
    }
}

double
VoyagerModel::train_step(const VoyagerBatch &batch)
{
    assert(batch.labels.size() == batch.batch);
    forward(batch, /*training=*/true);

    Matrix dpage;
    Matrix doffset;
    double loss = 0.0;
    const bool use_bce =
        cfg_.multi_label && cfg_.multi_label_loss == MultiLabelLoss::Bce;
    if (use_bce) {
        // Paper §4.4: independent sigmoids, every candidate positive.
        std::vector<std::vector<std::int32_t>> pl(batch.batch);
        std::vector<std::vector<std::int32_t>> ol(batch.batch);
        for (std::size_t b = 0; b < batch.batch; ++b) {
            for (const TokenLabel &lab : batch.labels[b]) {
                if (std::find(pl[b].begin(), pl[b].end(), lab.page) ==
                    pl[b].end())
                    pl[b].push_back(lab.page);
                if (std::find(ol[b].begin(), ol[b].end(), lab.offset) ==
                    ol[b].end())
                    ol[b].push_back(lab.offset);
            }
        }
        loss += nn::bce_multilabel_loss(page_logits_, pl, dpage,
                                        cfg_.bce_pos_weight);
        loss += nn::bce_multilabel_loss(offset_logits_, ol, doffset,
                                        cfg_.bce_pos_weight);
    } else {
        // Softmax CE against one candidate per sample: either the
        // most-predictable candidate (multi-label SoftmaxBest) or the
        // first candidate (single-label ablations). Each head's
        // softmax is computed once, into its gradient buffer: it picks
        // the candidate, then becomes the CE gradient.
        std::vector<std::int32_t> pl(batch.batch);
        std::vector<std::int32_t> ol(batch.batch);
        dpage = page_logits_;
        doffset = offset_logits_;
        nn::softmax_rows(dpage);
        nn::softmax_rows(doffset);
        if (cfg_.multi_label) {
            for (std::size_t b = 0; b < batch.batch; ++b) {
                assert(!batch.labels[b].empty());
                // "Most predictable" candidate, with a stability rule:
                // on near-ties (within 10% of the max) the earliest
                // scheme wins, so early high-entropy batches train a
                // consistent target instead of thrashing.
                float max_p = 0.0f;
                std::vector<float> ps(batch.labels[b].size());
                for (std::size_t k = 0; k < batch.labels[b].size();
                     ++k) {
                    const TokenLabel &lab = batch.labels[b][k];
                    ps[k] = dpage.at(b, static_cast<std::size_t>(
                                            lab.page)) *
                            doffset.at(b, static_cast<std::size_t>(
                                              lab.offset));
                    max_p = std::max(max_p, ps[k]);
                }
                std::size_t pick = 0;
                for (std::size_t k = 0; k < ps.size(); ++k) {
                    if (ps[k] >= 0.9f * max_p) {
                        pick = k;
                        break;
                    }
                }
                pl[b] = batch.labels[b][pick].page;
                ol[b] = batch.labels[b][pick].offset;
            }
        } else {
            for (std::size_t b = 0; b < batch.batch; ++b) {
                assert(!batch.labels[b].empty());
                pl[b] = batch.labels[b][0].page;
                ol[b] = batch.labels[b][0].offset;
            }
        }
        loss += nn::softmax_ce_loss_from_probs(dpage, pl);
        loss += nn::softmax_ce_loss_from_probs(doffset, ol);
    }

    backward(batch, dpage, doffset);
    opt_.step();
    return loss;
}

std::vector<std::vector<TokenPrediction>>
rank_token_predictions(const Matrix &page_logits,
                       const Matrix &offset_logits, bool use_bce,
                       std::size_t k)
{
    // Head activations -> probabilities. With BCE training the heads
    // are independent sigmoids; with CE they are softmaxes. Either
    // way, ranking by (page_prob * offset_prob) picks the paper's
    // highest-probability (page, offset) pair.
    Matrix page_probs = page_logits;
    Matrix offset_probs = offset_logits;
    if (use_bce) {
        nn::sigmoid_inplace(page_probs);
        nn::sigmoid_inplace(offset_probs);
    } else {
        nn::softmax_rows(page_probs);
        nn::softmax_rows(offset_probs);
    }

    std::vector<std::vector<TokenPrediction>> out(page_probs.rows());
    for (std::size_t b = 0; b < page_probs.rows(); ++b) {
        const auto top_pages = nn::topk_row(page_probs, b, k);
        const auto top_offsets = nn::topk_row(offset_probs, b, k);
        std::vector<TokenPrediction> cands;
        cands.reserve(top_pages.size() * top_offsets.size());
        for (const auto p : top_pages) {
            for (const auto o : top_offsets) {
                cands.push_back(
                    {p, o,
                     page_probs.at(b, static_cast<std::size_t>(p)) *
                         offset_probs.at(b, static_cast<std::size_t>(o))});
            }
        }
        std::sort(cands.begin(), cands.end(),
                  [](const TokenPrediction &a, const TokenPrediction &c) {
                      return a.prob > c.prob;
                  });
        if (cands.size() > k)
            cands.resize(k);
        out[b] = std::move(cands);
    }
    return out;
}

std::vector<std::vector<TokenPrediction>>
VoyagerModel::predict(const VoyagerBatch &batch, std::size_t k)
{
    forward(batch, /*training=*/false);
    const bool use_bce =
        cfg_.multi_label && cfg_.multi_label_loss == MultiLabelLoss::Bce;
    return rank_token_predictions(page_logits_, offset_logits_,
                                  use_bce, k);
}

void
VoyagerModel::save_state(std::ostream &os) const
{
    nn::write_u64(os, cfg_.seq_len);
    nn::write_u64(os, cfg_.use_pc_feature ? 1 : 0);
    pc_emb_.save_state(os);
    page_emb_.save_state(os);
    offset_emb_.save_state(os);
    for (const nn::MoeAttention &a : attn_)
        a.save_state(os);
    page_lstm_.save_state(os);
    offset_lstm_.save_state(os);
    page_dropout_.save_state(os);
    offset_dropout_.save_state(os);
    page_head_.save_state(os);
    offset_head_.save_state(os);
    opt_.save_state(os);
    nn::save_rng_state(os, rng_.state());
}

void
VoyagerModel::load_state(std::istream &is)
{
    nn::expect_u64(is, cfg_.seq_len, "voyager seq_len");
    nn::expect_u64(is, cfg_.use_pc_feature ? 1 : 0,
                   "voyager use_pc_feature");
    pc_emb_.load_state(is);
    page_emb_.load_state(is);
    offset_emb_.load_state(is);
    for (nn::MoeAttention &a : attn_)
        a.load_state(is);
    page_lstm_.load_state(is);
    offset_lstm_.load_state(is);
    page_dropout_.load_state(is);
    offset_dropout_.load_state(is);
    page_head_.load_state(is);
    offset_head_.load_state(is);
    opt_.load_state(is);
    rng_.set_state(nn::load_rng_state(is));
}

std::vector<Matrix *>
VoyagerModel::weights()
{
    return {
        &pc_emb_.param().value,     &page_emb_.param().value,
        &offset_emb_.param().value, &page_lstm_.wx().value,
        &page_lstm_.wh().value,     &page_lstm_.bias().value,
        &offset_lstm_.wx().value,   &offset_lstm_.wh().value,
        &offset_lstm_.bias().value, &page_head_.weight().value,
        &page_head_.bias().value,   &offset_head_.weight().value,
        &offset_head_.bias().value,
    };
}

std::vector<const Matrix *>
VoyagerModel::weights() const
{
    auto *self = const_cast<VoyagerModel *>(this);
    std::vector<const Matrix *> out;
    for (Matrix *m : self->weights())
        out.push_back(m);
    return out;
}

bool
VoyagerModel::weights_finite() const
{
    for (const Matrix *m : weights())
        if (!nn::is_finite(*m))
            return false;
    return true;
}

std::uint64_t
VoyagerModel::parameter_count() const
{
    std::uint64_t n = 0;
    for (const Matrix *m : weights())
        n += m->size();
    return n;
}

std::uint64_t
VoyagerModel::embedding_bytes() const
{
    return (pc_emb_.param().size() + page_emb_.param().size() +
            offset_emb_.param().size()) * 4;
}

}  // namespace voyager::core

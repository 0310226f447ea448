#include "nn/attention.h"

#include <algorithm>
#include <cmath>

namespace lipformer {

Tensor MakeCausalMask(int64_t sq, int64_t sk) {
  Tensor mask = Tensor::Empty(Shape{sq, sk});
  float* pm = mask.data();
  for (int64_t i = 0; i < sq; ++i) {
    for (int64_t j = 0; j < sk; ++j) {
      pm[i * sk + j] = j > i ? -1e9f : 0.0f;
    }
  }
  return mask;
}

namespace {

// q [*, Sq, dk], k [*, Sk, dk], v [*, Sk, dv] with equal leading dims:
// one fused Attention call over the flattened leading dims, one head.
Variable AttentionCore(const Variable& q, const Variable& k,
                       const Variable& v, const Tensor* causal_mask) {
  LIPF_CHECK_GE(q.dim(), 2);
  const Shape& qs = q.shape();
  const Shape lead(qs.begin(), qs.end() - 2);
  LIPF_CHECK(k.dim() == q.dim() && v.dim() == q.dim() &&
             std::equal(lead.begin(), lead.end(), k.shape().begin()) &&
             std::equal(lead.begin(), lead.end(), v.shape().begin()))
      << "attention operands need equal leading dims";
  const int64_t n = NumElements(lead);
  const int64_t sq = q.size(-2);
  const int64_t sk = k.size(-2);
  const int64_t dk = q.size(-1);
  const int64_t dv = v.size(-1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Variable out = Attention(Reshape(q, Shape{n, sq, dk}),
                           Reshape(k, Shape{n, sk, dk}),
                           Reshape(v, Shape{n, sk, dv}), /*num_heads=*/1,
                           scale, causal_mask);
  Shape out_shape = lead;
  out_shape.push_back(sq);
  out_shape.push_back(dv);
  return Reshape(out, std::move(out_shape));
}

}  // namespace

Variable ScaledDotProductAttention(const Variable& q, const Variable& k,
                                   const Variable& v, bool causal) {
  if (!causal) return AttentionCore(q, k, v, nullptr);
  const Tensor mask = MakeCausalMask(q.size(-2), k.size(-2));
  return AttentionCore(q, k, v, &mask);
}

Variable ScaledDotProductAttention(const Variable& q, const Variable& k,
                                   const Variable& v,
                                   const Tensor& causal_mask) {
  return AttentionCore(q, k, v, &causal_mask);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t model_dim,
                                               int64_t num_heads, Rng& rng,
                                               float dropout, bool causal)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      causal_(causal) {
  LIPF_CHECK_EQ(model_dim % num_heads, 0)
      << "model_dim must be divisible by num_heads";
  wq_ = std::make_unique<Linear>(model_dim, model_dim, rng);
  wk_ = std::make_unique<Linear>(model_dim, model_dim, rng);
  wv_ = std::make_unique<Linear>(model_dim, model_dim, rng);
  wo_ = std::make_unique<Linear>(model_dim, model_dim, rng);
  RegisterModule("wq", wq_.get());
  RegisterModule("wk", wk_.get());
  RegisterModule("wv", wv_.get());
  RegisterModule("wo", wo_.get());
  if (dropout > 0.0f) {
    attn_dropout_ = std::make_unique<Dropout>(dropout, rng);
    RegisterModule("attn_dropout", attn_dropout_.get());
  }
}

Variable MultiHeadSelfAttention::Forward(const Variable& x) const {
  return Attend(x, x);
}

Variable MultiHeadSelfAttention::Forward(const Variable& q_input,
                                         const Variable& kv_input) const {
  return Attend(q_input, kv_input);
}

const Tensor& MultiHeadSelfAttention::CausalMask(int64_t sq,
                                                 int64_t sk) const {
  if (sq != mask_sq_ || sk != mask_sk_) {
    mask_cache_ = MakeCausalMask(sq, sk);
    mask_sq_ = sq;
    mask_sk_ = sk;
  }
  return mask_cache_;
}

Variable MultiHeadSelfAttention::Attend(const Variable& q_in,
                                        const Variable& kv_in) const {
  LIPF_CHECK_EQ(q_in.dim(), 3);
  LIPF_CHECK_EQ(q_in.size(-1), model_dim_);
  const int64_t sq = q_in.size(1);
  const int64_t skv = kv_in.size(1);

  // The kernel reads each head's columns of the [B, S, D] projections in
  // place and writes the merged [B, Sq, D] context: no head split/merge
  // transposes.
  Variable q = wq_->Forward(q_in);
  Variable k = wk_->Forward(kv_in);
  Variable v = wv_->Forward(kv_in);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Variable ctx = Attention(q, k, v, num_heads_, scale,
                           causal_ ? &CausalMask(sq, skv) : nullptr);
  if (attn_dropout_) ctx = attn_dropout_->Forward(ctx);
  return wo_->Forward(ctx);
}

}  // namespace lipformer

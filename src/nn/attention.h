#ifndef LIPFORMER_NN_ATTENTION_H_
#define LIPFORMER_NN_ATTENTION_H_

#include <memory>

#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace lipformer {

// Additive causal mask [sq, sk]: 0 on/below the diagonal, -1e9 above.
Tensor MakeCausalMask(int64_t sq, int64_t sk);

// Scaled dot-product attention: q [*, Sq, dk], k [*, Sk, dk], v [*, Sk,
// dv] with equal leading dims -> [*, Sq, dv], computed by the fused
// Attention kernel (tensor/ops.h) as one head per leading index. Causal
// masks future positions.
Variable ScaledDotProductAttention(const Variable& q, const Variable& k,
                                   const Variable& v, bool causal = false);
// Variant taking a precomputed additive mask (see MakeCausalMask), so
// callers that run many forwards at a fixed (sq, sk) can cache it.
Variable ScaledDotProductAttention(const Variable& q, const Variable& k,
                                   const Variable& v,
                                   const Tensor& causal_mask);

// Multi-head self-attention with learned Q/K/V/O projections over the last
// dimension. Input [B, S, D] -> output [B, S, D]. This is the `Attn`
// operator of the paper (vanilla Transformer attention); LiPFormer applies
// it both across trend sequences (Cross-Patch) and across patch tokens
// (Inter-Patch), always without positional encoding.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t model_dim, int64_t num_heads, Rng& rng,
                         float dropout = 0.0f, bool causal = false);

  Variable Forward(const Variable& x) const;

  // Cross-attention flavor: queries from `q_input` [B, Sq, D], keys/values
  // from `kv_input` [B, Skv, D].
  Variable Forward(const Variable& q_input, const Variable& kv_input) const;

  int64_t model_dim() const { return model_dim_; }
  int64_t num_heads() const { return num_heads_; }

 private:
  Variable Attend(const Variable& q_in, const Variable& kv_in) const;
  // Returns the cached causal mask for (sq, sk), rebuilding it only when
  // the sequence lengths change. Like the module's Rng-backed dropout,
  // the cache makes Forward non-reentrant across threads.
  const Tensor& CausalMask(int64_t sq, int64_t sk) const;

  int64_t model_dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  bool causal_;
  mutable Tensor mask_cache_;
  mutable int64_t mask_sq_ = -1;
  mutable int64_t mask_sk_ = -1;
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
  std::unique_ptr<Dropout> attn_dropout_;
};

}  // namespace lipformer

#endif  // LIPFORMER_NN_ATTENTION_H_

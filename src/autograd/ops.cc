#include "autograd/ops.h"

#include <cmath>
#include <cstring>

namespace lipformer {

namespace {

// True when this op must be recorded on the tape: gradients are on and at
// least one input requires grad. When false, ops return a plain Variable
// without touching Variable::MakeNode — no closure allocation and no
// captured parent tensors, so inference intermediates release their
// pooled storage as soon as the Variable dies.
inline bool Taped(const Variable& a) {
  return GradEnabled() && a.requires_grad();
}

inline bool Taped(const Variable& a, const Variable& b) {
  return GradEnabled() && (a.requires_grad() || b.requires_grad());
}

inline bool Taped(const Variable& a, const Variable& b, const Variable& c) {
  return GradEnabled() &&
         (a.requires_grad() || b.requires_grad() || c.requires_grad());
}

inline bool Taped(const std::vector<Variable>& vs) {
  if (!GradEnabled()) return false;
  for (const Variable& v : vs) {
    if (v.requires_grad()) return true;
  }
  return false;
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Tensor value = Add(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Shape sa = a.shape();
  const Shape sb = b.shape();
  return Variable::MakeNode(
      std::move(value), {a, b}, [sa, sb](const Tensor& g) {
        return std::vector<Tensor>{ReduceToShape(g, sa), ReduceToShape(g, sb)};
      });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor value = Sub(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Shape sa = a.shape();
  const Shape sb = b.shape();
  return Variable::MakeNode(
      std::move(value), {a, b}, [sa, sb](const Tensor& g) {
        return std::vector<Tensor>{ReduceToShape(g, sa),
                                   ReduceToShape(Neg(g), sb)};
      });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor value = Mul(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Tensor av = a.value();
  const Tensor bv = b.value();
  return Variable::MakeNode(
      std::move(value), {a, b}, [av, bv](const Tensor& g) {
        return std::vector<Tensor>{ReduceToShape(Mul(g, bv), av.shape()),
                                   ReduceToShape(Mul(g, av), bv.shape())};
      });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor value = Div(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Tensor av = a.value();
  const Tensor bv = b.value();
  return Variable::MakeNode(
      std::move(value), {a, b}, [av, bv](const Tensor& g) {
        Tensor ga = ReduceToShape(Div(g, bv), av.shape());
        // d/db (a/b) = -a / b^2
        Tensor gb = ReduceToShape(Neg(Div(Mul(g, av), Mul(bv, bv))),
                                  bv.shape());
        return std::vector<Tensor>{std::move(ga), std::move(gb)};
      });
}

Variable AddScalar(const Variable& a, float s) {
  Tensor value = AddScalar(a.value(), s);
  if (!Taped(a)) return Variable(std::move(value));
  return Variable::MakeNode(std::move(value), {a}, [](const Tensor& g) {
    return std::vector<Tensor>{g};
  });
}

Variable MulScalar(const Variable& a, float s) {
  Tensor value = MulScalar(a.value(), s);
  if (!Taped(a)) return Variable(std::move(value));
  return Variable::MakeNode(std::move(value), {a}, [s](const Tensor& g) {
    return std::vector<Tensor>{MulScalar(g, s)};
  });
}

Variable PowScalar(const Variable& a, float p) {
  Tensor value = PowScalar(a.value(), p);
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor av = a.value();
  return Variable::MakeNode(std::move(value), {a}, [av, p](const Tensor& g) {
    // d/dx x^p = p * x^(p-1)
    return std::vector<Tensor>{
        Mul(g, MulScalar(PowScalar(av, p - 1.0f), p))};
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  Tensor value = Exp(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(std::move(value), {a}, [out](const Tensor& g) {
    return std::vector<Tensor>{Mul(g, out)};
  });
}

Variable Log(const Variable& a) {
  Tensor value = Log(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor av = a.value();
  return Variable::MakeNode(std::move(value), {a}, [av](const Tensor& g) {
    return std::vector<Tensor>{Div(g, av)};
  });
}

Variable Sqrt(const Variable& a) {
  Tensor value = Sqrt(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(std::move(value), {a}, [out](const Tensor& g) {
    return std::vector<Tensor>{Div(g, MulScalar(out, 2.0f))};
  });
}

Variable Abs(const Variable& a) {
  Tensor value = Abs(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor av = a.value();
  return Variable::MakeNode(std::move(value), {a}, [av](const Tensor& g) {
    Tensor sign = Tensor::Empty(av.shape());
    const float* p = av.data();
    float* ps = sign.data();
    for (int64_t i = 0; i < av.numel(); ++i) {
      ps[i] = p[i] > 0.0f ? 1.0f : (p[i] < 0.0f ? -1.0f : 0.0f);
    }
    return std::vector<Tensor>{Mul(g, sign)};
  });
}

Variable Tanh(const Variable& a) {
  Tensor value = Tanh(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(std::move(value), {a}, [out](const Tensor& g) {
    // 1 - tanh^2
    Tensor one_minus = AddScalar(Neg(Mul(out, out)), 1.0f);
    return std::vector<Tensor>{Mul(g, one_minus)};
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor value = Sigmoid(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(std::move(value), {a}, [out](const Tensor& g) {
    Tensor d = Mul(out, AddScalar(Neg(out), 1.0f));
    return std::vector<Tensor>{Mul(g, d)};
  });
}

Variable Relu(const Variable& a) {
  Tensor value = Relu(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor av = a.value();
  return Variable::MakeNode(std::move(value), {a}, [av](const Tensor& g) {
    Tensor mask = Tensor::Empty(av.shape());
    const float* p = av.data();
    float* pm = mask.data();
    for (int64_t i = 0; i < av.numel(); ++i) pm[i] = p[i] > 0.0f ? 1.0f : 0.0f;
    return std::vector<Tensor>{Mul(g, mask)};
  });
}

Variable Gelu(const Variable& a) {
  Tensor value = Gelu(a.value());
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor av = a.value();
  return Variable::MakeNode(std::move(value), {a}, [av](const Tensor& g) {
    // Derivative of the tanh-approximation GELU (same formula as the
    // fused AddBiasActBackward in tensor/ops.cc).
    constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
    Tensor d = Tensor::Empty(av.shape());
    const float* p = av.data();
    float* pd = d.data();
    for (int64_t i = 0; i < av.numel(); ++i) {
      const float x = p[i];
      const float inner = kC * (x + 0.044715f * x * x * x);
      const float th = std::tanh(inner);
      const float sech2 = 1.0f - th * th;
      const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
      pd[i] = 0.5f * (1.0f + th) + 0.5f * x * sech2 * dinner;
    }
    return std::vector<Tensor>{Mul(g, d)};
  });
}

Variable MatMul(const Variable& a_in, const Variable& b_in) {
  // Promote 1-d operands via differentiable reshapes so the core rule only
  // deals with >=2-d inputs.
  Variable a = a_in;
  Variable b = b_in;
  bool squeeze_m = false;
  bool squeeze_n = false;
  if (a.dim() == 1) {
    a = Reshape(a, Shape{1, a.size(0)});
    squeeze_m = true;
  }
  if (b.dim() == 1) {
    b = Reshape(b, Shape{b.size(0), 1});
    squeeze_n = true;
  }
  Tensor value = MatMul(a.value(), b.value());
  Variable out;
  if (!Taped(a, b)) {
    out = Variable(std::move(value));
  } else {
    const Tensor av = a.value();
    const Tensor bv = b.value();
    out = Variable::MakeNode(
        std::move(value), {a, b}, [av, bv](const Tensor& g) {
          // da = g b^T, db = a^T g; both transposes are folded into the
          // packed GEMM instead of materialized.
          Tensor ga = ReduceToShape(MatMulTransB(g, bv), av.shape());
          Tensor gb = ReduceToShape(MatMulTransA(av, g), bv.shape());
          return std::vector<Tensor>{std::move(ga), std::move(gb)};
        });
  }
  if (squeeze_m || squeeze_n) {
    Shape s = out.shape();
    if (squeeze_n) s.erase(s.end() - 1);
    if (squeeze_m) s.erase(s.end() - (squeeze_n ? 1 : 2));
    out = Reshape(out, std::move(s));
  }
  return out;
}

Variable MatMulTransB(const Variable& a, const Variable& b) {
  Tensor value = MatMulTransB(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Tensor av = a.value();
  const Tensor bv = b.value();
  return Variable::MakeNode(
      std::move(value), {a, b}, [av, bv](const Tensor& g) {
        // c = a b^T with g [..., m, n]: da = g b, db = g^T a.
        Tensor ga = ReduceToShape(MatMul(g, bv), av.shape());
        Tensor gb = ReduceToShape(MatMulTransA(g, av), bv.shape());
        return std::vector<Tensor>{std::move(ga), std::move(gb)};
      });
}

Variable MatMulTransA(const Variable& a, const Variable& b) {
  Tensor value = MatMulTransA(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Tensor av = a.value();
  const Tensor bv = b.value();
  return Variable::MakeNode(
      std::move(value), {a, b}, [av, bv](const Tensor& g) {
        // c = a^T b with g [..., m, n]: da = b g^T, db = a g.
        Tensor ga = ReduceToShape(MatMulTransB(bv, g), av.shape());
        Tensor gb = ReduceToShape(MatMul(av, g), bv.shape());
        return std::vector<Tensor>{std::move(ga), std::move(gb)};
      });
}

Variable Reshape(const Variable& a, Shape new_shape) {
  Tensor value = a.value().Reshape(std::move(new_shape));
  if (!Taped(a)) return Variable(std::move(value));
  const Shape orig = a.shape();
  return Variable::MakeNode(std::move(value), {a}, [orig](const Tensor& g) {
    return std::vector<Tensor>{g.Reshape(orig)};
  });
}

Variable Permute(const Variable& a, const std::vector<int64_t>& perm) {
  Tensor value = Permute(a.value(), perm);
  if (!Taped(a)) return Variable(std::move(value));
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  return Variable::MakeNode(std::move(value), {a},
                            [inverse](const Tensor& g) {
                              return std::vector<Tensor>{Permute(g, inverse)};
                            });
}

Variable Transpose(const Variable& a, int64_t d0, int64_t d1) {
  const int64_t nd = a.dim();
  if (d0 < 0) d0 += nd;
  if (d1 < 0) d1 += nd;
  std::vector<int64_t> perm(nd);
  for (int64_t i = 0; i < nd; ++i) perm[i] = i;
  std::swap(perm[d0], perm[d1]);
  return Permute(a, perm);
}

Variable Slice(const Variable& a, int64_t dim, int64_t start, int64_t end) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  if (start < 0) start += a.size(dim);
  if (end < 0) end += a.size(dim);
  Tensor value = Slice(a.value(), dim, start, end);
  if (!Taped(a)) return Variable(std::move(value));
  const Shape orig = a.shape();
  return Variable::MakeNode(
      std::move(value), {a}, [orig, dim, start, end](const Tensor& g) {
        // Scatter g back into a zero tensor of the original shape.
        Tensor out = Pad(g, dim, start, orig[dim] - end);
        return std::vector<Tensor>{std::move(out)};
      });
}

Variable Concat(const std::vector<Variable>& vs, int64_t dim) {
  LIPF_CHECK(!vs.empty());
  const int64_t nd = vs[0].dim();
  if (dim < 0) dim += nd;
  std::vector<Tensor> values;
  values.reserve(vs.size());
  std::vector<int64_t> sizes;
  for (const Variable& v : vs) {
    values.push_back(v.value());
    sizes.push_back(v.size(dim));
  }
  Tensor value = Concat(values, dim);
  if (!Taped(vs)) return Variable(std::move(value));
  return Variable::MakeNode(
      std::move(value), vs, [sizes, dim](const Tensor& g) {
        std::vector<Tensor> grads;
        grads.reserve(sizes.size());
        int64_t off = 0;
        for (int64_t s : sizes) {
          grads.push_back(Slice(g, dim, off, off + s));
          off += s;
        }
        return grads;
      });
}

Variable IndexSelect(const Variable& a, int64_t dim,
                     const std::vector<int64_t>& indices) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  Tensor value = IndexSelect(a.value(), dim, indices);
  if (!Taped(a)) return Variable(std::move(value));
  const Shape orig = a.shape();
  return Variable::MakeNode(
      std::move(value), {a}, [orig, dim, indices](const Tensor& g) {
        Tensor out = Tensor::Zeros(orig);
        // scatter-add rows of g into out along dim.
        int64_t outer = 1;
        int64_t inner = 1;
        for (int64_t i = 0; i < dim; ++i) outer *= orig[i];
        for (size_t i = dim + 1; i < orig.size(); ++i) inner *= orig[i];
        const int64_t mid = orig[dim];
        const int64_t nsel = static_cast<int64_t>(indices.size());
        const float* pg = g.data();
        float* po = out.data();
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t s = 0; s < nsel; ++s) {
            const int64_t idx = indices[s];
            const float* src = pg + (o * nsel + s) * inner;
            float* dst = po + (o * mid + idx) * inner;
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
        return std::vector<Tensor>{std::move(out)};
      });
}

Variable Sum(const Variable& a, int64_t dim, bool keepdim) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  Tensor value = Sum(a.value(), dim, keepdim);
  if (!Taped(a)) return Variable(std::move(value));
  const Shape orig = a.shape();
  return Variable::MakeNode(
      std::move(value), {a}, [orig, dim, keepdim](const Tensor& g) {
        Tensor gk = g;
        if (!keepdim) gk = g.Unsqueeze(dim);
        // Broadcast back over the reduced dim.
        Tensor out = BroadcastTo(gk, orig);
        return std::vector<Tensor>{std::move(out)};
      });
}

Variable Mean(const Variable& a, int64_t dim, bool keepdim) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  const float inv = 1.0f / static_cast<float>(a.size(dim));
  return MulScalar(Sum(a, dim, keepdim), inv);
}

Variable SumAll(const Variable& a) {
  Tensor value = Tensor::Scalar(SumAll(a.value()));
  if (!Taped(a)) return Variable(std::move(value));
  const Shape orig = a.shape();
  return Variable::MakeNode(std::move(value), {a}, [orig](const Tensor& g) {
    return std::vector<Tensor>{Tensor::Full(orig, g.item())};
  });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return MulScalar(SumAll(a), inv);
}

Variable Softmax(const Variable& a, int64_t dim) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  Tensor value = Softmax(a.value(), dim);
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(
      std::move(value), {a}, [out, dim](const Tensor& g) {
        // dx = (g - sum(g*y, dim)) * y
        Tensor gy = Mul(g, out);
        Tensor s = Sum(gy, dim, /*keepdim=*/true);
        Tensor dx = Mul(Sub(g, s), out);
        return std::vector<Tensor>{std::move(dx)};
      });
}

Variable LogSoftmax(const Variable& a, int64_t dim) {
  const int64_t nd = a.dim();
  if (dim < 0) dim += nd;
  Tensor value = LogSoftmax(a.value(), dim);
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(
      std::move(value), {a}, [out, dim](const Tensor& g) {
        // dx = g - softmax(x) * sum(g, dim)
        Tensor s = Sum(g, dim, /*keepdim=*/true);
        Tensor dx = Sub(g, Mul(Exp(out), s));
        return std::vector<Tensor>{std::move(dx)};
      });
}

Variable MulConst(const Variable& a, const Tensor& c) {
  Tensor value = Mul(a.value(), c);
  if (!Taped(a)) return Variable(std::move(value));
  const Shape sa = a.shape();
  return Variable::MakeNode(std::move(value), {a}, [sa, c](const Tensor& g) {
    return std::vector<Tensor>{ReduceToShape(Mul(g, c), sa)};
  });
}

Variable AddConst(const Variable& a, const Tensor& c) {
  Tensor value = Add(a.value(), c);
  if (!Taped(a)) return Variable(std::move(value));
  const Shape sa = a.shape();
  return Variable::MakeNode(std::move(value), {a}, [sa](const Tensor& g) {
    return std::vector<Tensor>{ReduceToShape(g, sa)};
  });
}

Variable ScaledMaskedSoftmax(const Variable& a, float scale,
                             const Tensor* mask) {
  Tensor value = ScaledMaskedSoftmax(a.value(), scale, mask);
  if (!Taped(a)) return Variable(std::move(value));
  const Tensor out = value;
  return Variable::MakeNode(
      std::move(value), {a}, [out, scale](const Tensor& g) {
        return std::vector<Tensor>{
            ScaledMaskedSoftmaxBackward(g, out, scale)};
      });
}

Variable Attention(const Variable& q, const Variable& k, const Variable& v,
                   int64_t num_heads, float scale, const Tensor* mask) {
  if (!Taped(q, k, v)) {
    return Variable(Attention(q.value(), k.value(), v.value(), num_heads,
                              scale, mask));
  }
  Tensor probs;
  Tensor value = Attention(q.value(), k.value(), v.value(), num_heads, scale,
                           mask, &probs);
  const Tensor qv = q.value();
  const Tensor kv = k.value();
  const Tensor vv = v.value();
  return Variable::MakeNode(
      std::move(value), {q, k, v},
      [qv, kv, vv, probs, num_heads, scale](const Tensor& g) {
        return AttentionBackward(g, qv, kv, vv, probs, num_heads, scale);
      });
}

Variable TimeDelayAggregate(const Variable& q, const Variable& k,
                            const Variable& v, int64_t topk) {
  if (!Taped(v)) {
    return Variable(TimeDelayAggregate(q.value(), k.value(), v.value(), topk));
  }
  std::vector<int64_t> lags;
  std::vector<float> weights;
  Tensor value = TimeDelayAggregate(q.value(), k.value(), v.value(), topk,
                                    &lags, &weights);
  const Shape sv = v.shape();
  return Variable::MakeNode(
      std::move(value), {v},
      [sv, topk, lags = std::move(lags),
       weights = std::move(weights)](const Tensor& g) {
        // dv[(t + lag_i) % s] += w_i * g[t], per sample.
        const int64_t b = sv[0], s = sv[1], d = sv[2];
        Tensor dv = Tensor::Zeros(sv);
        const float* pg = g.data();
        float* po = dv.data();
        for (int64_t bi = 0; bi < b; ++bi) {
          for (int64_t i = 0; i < topk; ++i) {
            const int64_t lag = lags[bi * topk + i];
            const float w = weights[bi * topk + i];
            for (int64_t t = 0; t < s; ++t) {
              const float* src = pg + (bi * s + t) * d;
              float* dst = po + (bi * s + (t + lag) % s) * d;
              for (int64_t c = 0; c < d; ++c) dst[c] += w * src[c];
            }
          }
        }
        return std::vector<Tensor>{std::move(dv)};
      });
}

Variable AddBiasAct(const Variable& a, const Variable& bias, FusedAct act) {
  Tensor value = AddBiasAct(a.value(), bias.value(), act);
  if (!Taped(a, bias)) return Variable(std::move(value));
  const Tensor av = a.value();
  const Tensor bv = bias.value();
  return Variable::MakeNode(
      std::move(value), {a, bias}, [av, bv, act](const Tensor& g) {
        // dz = g * act'(a + bias); da is dz itself, dbias reduces dz over
        // every dim but the last (same column order as the unfused chain).
        Tensor dz = AddBiasActBackward(g, av, bv, act);
        Tensor db = ReduceToShape(dz, bv.shape());
        return std::vector<Tensor>{dz, std::move(db)};
      });
}

Variable SubBroadcastMid(const Variable& a, const Variable& b) {
  Tensor value = SubBroadcastMid(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Shape sb = b.shape();
  return Variable::MakeNode(
      std::move(value), {a, b}, [sb](const Tensor& g) {
        return std::vector<Tensor>{g, ReduceToShape(Neg(g), sb)};
      });
}

Variable AddBroadcastMid(const Variable& a, const Variable& b) {
  Tensor value = AddBroadcastMid(a.value(), b.value());
  if (!Taped(a, b)) return Variable(std::move(value));
  const Shape sb = b.shape();
  return Variable::MakeNode(
      std::move(value), {a, b}, [sb](const Tensor& g) {
        return std::vector<Tensor>{g, ReduceToShape(g, sb)};
      });
}

}  // namespace lipformer

#include "core/instance_norm.h"

namespace lipformer {

std::pair<Variable, InstanceNormState> InstanceNormalize(const Variable& x) {
  LIPF_CHECK_EQ(x.dim(), 3);
  const int64_t t = x.size(1);
  InstanceNormState state;
  state.last_values = Slice(x, 1, t - 1, t);  // [b, 1, c]
  Variable normalized = Sub(x, state.last_values);
  return {normalized, state};
}

Variable InstanceDenormalize(const Variable& prediction,
                             const InstanceNormState& state) {
  LIPF_CHECK_EQ(prediction.dim(), 3);
  return Add(prediction, state.last_values);
}

}  // namespace lipformer

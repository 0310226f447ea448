#ifndef LIPFORMER_NN_MODULE_H_
#define LIPFORMER_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"
#include "common/status.h"

// Module base class: owns named parameters, composes child modules, and
// provides recursive parameter listing, train/eval switching, zero-grad and
// binary save/load of parameters.

namespace lipformer {

namespace serve {
struct Checkpoint;
}  // namespace serve

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters of this module and its children (depth-first). The
  // returned handles share storage with the module's members, so optimizer
  // updates are visible to the module.
  std::vector<Variable> Parameters() const;

  // Parameter names qualified by child-module path, aligned with
  // Parameters().
  std::vector<std::string> ParameterNames() const;

  void ZeroGrad();

  // Total number of scalar parameters.
  int64_t ParameterCount() const;

  // Train/eval mode (affects Dropout); recursive.
  void SetTraining(bool training);
  bool training() const { return training_; }

  // Marks every parameter as not requiring grad (and vice versa); used to
  // freeze the Covariate Encoder during prediction training.
  void SetRequiresGrad(bool requires_grad);

  // Binary parameter (de)serialization in the self-describing checkpoint
  // v2 format (serve/checkpoint.h): every parameter is stored with its
  // qualified name and shape, and loading verifies both per tensor, so a
  // checkpoint from a different architecture fails with an error naming
  // the offending parameter instead of silently producing garbage.
  // Tensors whose name starts with serve::kReservedTensorPrefix ("__",
  // e.g. the fitted scaler of a serving bundle) are ignored by
  // LoadParameters. Legacy v1 files (shape-blind flat dumps) are detected
  // and rejected with migration advice; convert them with the
  // `checkpoint_convert` tool.
  Status SaveParameters(const std::string& path) const;
  Status LoadParameters(const std::string& path);
  // The same checks and copy from a checkpoint the caller already read;
  // `origin` names it in error messages. A loader that also reads the
  // checkpoint's metadata must pass that one parsed copy here: reading
  // the path twice could mix two files published between the reads.
  Status LoadParameters(const serve::Checkpoint& ckpt,
                        const std::string& origin);

  // Reads the legacy v1 layout (u64 count, then u64 numel + raw floats
  // per parameter, in Parameters() order). Only the flat sizes can be
  // verified — kept solely so `checkpoint_convert` can migrate old files;
  // new code must use LoadParameters. Rejects short/truncated files and
  // trailing bytes.
  Status LoadParametersLegacyV1(const std::string& path);

  // This module and every (transitive) child, depth-first, paired with
  // the child-module path ("" for this module itself) that prefixes its
  // parameter names in ParameterNames(). Used by the serving quantizer to
  // locate the nn::Linear modules owning each "<path>.weight" parameter.
  std::vector<std::pair<std::string, Module*>> NamedModules();

  // Live RNG streams of this module tree (e.g. per-Dropout mask streams),
  // named by child-module path like ParameterNames(). Exact training
  // resume serializes them: a mid-run snapshot that restored weights but
  // not these streams would draw different dropout masks after resume.
  std::vector<std::pair<std::string, Rng*>> NamedRngs();

 protected:
  // Modules owning an RNG stream override this to expose it (and must
  // still recurse via Module::CollectRngs for children).
  virtual void CollectRngs(const std::string& prefix,
                           std::vector<std::pair<std::string, Rng*>>* out);

  // Registers a parameter; returns a handle sharing storage.
  Variable RegisterParameter(std::string name, Variable param);
  // Registers a child; the child must outlive this module (normally a
  // member object).
  void RegisterModule(std::string name, Module* child);

 private:
  void CollectParameters(const std::string& prefix,
                         std::vector<std::pair<std::string, Variable>>* out)
      const;

  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace lipformer

#endif  // LIPFORMER_NN_MODULE_H_

#include "nn/module.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "serve/checkpoint.h"

namespace lipformer {

std::vector<Variable> Module::Parameters() const {
  std::vector<std::pair<std::string, Variable>> named;
  CollectParameters("", &named);
  std::vector<Variable> out;
  out.reserve(named.size());
  for (auto& [name, v] : named) out.push_back(v);
  return out;
}

std::vector<std::string> Module::ParameterNames() const {
  std::vector<std::pair<std::string, Variable>> named;
  CollectParameters("", &named);
  std::vector<std::string> out;
  out.reserve(named.size());
  for (auto& [name, v] : named) out.push_back(name);
  return out;
}

void Module::CollectParameters(
    const std::string& prefix,
    std::vector<std::pair<std::string, Variable>>* out) const {
  for (const auto& [name, v] : params_) {
    out->emplace_back(prefix.empty() ? name : prefix + "." + name, v);
  }
  for (const auto& [name, child] : children_) {
    child->CollectParameters(prefix.empty() ? name : prefix + "." + name,
                             out);
  }
}

std::vector<std::pair<std::string, Module*>> Module::NamedModules() {
  std::vector<std::pair<std::string, Module*>> out;
  // Iterative depth-first walk matching CollectParameters' ordering.
  std::vector<std::pair<std::string, Module*>> stack{{"", this}};
  while (!stack.empty()) {
    auto [prefix, module] = stack.back();
    stack.pop_back();
    out.emplace_back(prefix, module);
    for (auto it = module->children_.rbegin(); it != module->children_.rend();
         ++it) {
      stack.emplace_back(
          prefix.empty() ? it->first : prefix + "." + it->first, it->second);
    }
  }
  return out;
}

std::vector<std::pair<std::string, Rng*>> Module::NamedRngs() {
  std::vector<std::pair<std::string, Rng*>> out;
  CollectRngs("", &out);
  return out;
}

void Module::CollectRngs(const std::string& prefix,
                         std::vector<std::pair<std::string, Rng*>>* out) {
  for (auto& [name, child] : children_) {
    child->CollectRngs(prefix.empty() ? name : prefix + "." + name, out);
  }
}

void Module::ZeroGrad() {
  for (Variable& v : const_cast<Module*>(this)->Parameters()) {
    v.ZeroGrad();
  }
}

int64_t Module::ParameterCount() const {
  int64_t n = 0;
  for (const Variable& v : Parameters()) n += v.numel();
  return n;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::SetRequiresGrad(bool requires_grad) {
  for (Variable& v : Parameters()) v.set_requires_grad(requires_grad);
}

Status Module::SaveParameters(const std::string& path) const {
  std::vector<std::pair<std::string, Variable>> named;
  CollectParameters("", &named);
  serve::Checkpoint ckpt;
  ckpt.tensors.reserve(named.size());
  for (const auto& [name, v] : named) {
    // Clone() detaches the saved bytes from the live (optimizer-mutated)
    // storage; WriteCheckpoint may interleave with further training.
    ckpt.tensors.push_back({name, v.value().Clone()});
  }
  return serve::WriteCheckpoint(path, ckpt);
}

Status Module::LoadParameters(const std::string& path) {
  Result<serve::Checkpoint> loaded = serve::ReadCheckpoint(path);
  if (!loaded.ok()) return loaded.status();
  return LoadParameters(loaded.value(), path);
}

Status Module::LoadParameters(const serve::Checkpoint& ckpt,
                              const std::string& origin) {
  std::vector<std::pair<std::string, Variable>> named;
  CollectParameters("", &named);

  // Count only the parameter tensors; reserved "__" entries (e.g. a
  // serving bundle's scaler) ride along and are ignored here.
  size_t param_tensors = 0;
  for (const serve::CheckpointTensor& t : ckpt.tensors) {
    if (t.name.rfind(serve::kReservedTensorPrefix, 0) != 0) ++param_tensors;
  }
  if (param_tensors != named.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch in " + origin + ": checkpoint has " +
        std::to_string(param_tensors) + " tensors, module has " +
        std::to_string(named.size()));
  }

  for (auto& [name, v] : named) {
    const serve::CheckpointTensor* entry = ckpt.Find(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("checkpoint " + origin +
                                     " has no tensor named '" + name + "'");
    }
    if (!SameShape(entry->data.shape(), v.shape())) {
      return Status::InvalidArgument(
          "shape mismatch for parameter '" + name + "' in " + origin +
          ": checkpoint has " + ShapeToString(entry->data.shape()) +
          ", module expects " + ShapeToString(v.shape()));
    }
    const float* src = entry->data.data();
    std::copy(src, src + v.numel(), v.mutable_value().data());
  }
  return Status::OK();
}

Status Module::LoadParametersLegacyV1(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (static_cast<size_t>(in.gcount()) != sizeof(count)) {
    return Status::InvalidArgument(
        "not a v1 parameter file: " + path +
        " is shorter than the 8-byte header");
  }
  // A v2 file starts with the ASCII magic "LPFCKPT2"; read as a little-
  // endian u64 count it would be a nonsense number. Catch it here so
  // running the converter on an already-converted file says so instead of
  // reporting a garbage parameter count.
  if (std::memcmp(&count, "LPFCKPT2", sizeof(count)) == 0) {
    return Status::InvalidArgument(
        path + " is already a v2 checkpoint; load it with LoadParameters");
  }
  std::vector<Variable> params = Parameters();
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch in " + path + ": file has " +
        std::to_string(count) + ", module has " +
        std::to_string(params.size()));
  }
  for (Variable& v : params) {
    uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (static_cast<size_t>(in.gcount()) != sizeof(n)) {
      return Status::InvalidArgument("truncated v1 parameter file: " + path);
    }
    if (n != static_cast<uint64_t>(v.numel())) {
      return Status::InvalidArgument("parameter size mismatch in " + path);
    }
    in.read(reinterpret_cast<char*>(v.mutable_value().data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (static_cast<uint64_t>(in.gcount()) != n * sizeof(float)) {
      return Status::InvalidArgument("truncated v1 parameter file: " + path);
    }
  }
  char extra;
  in.read(&extra, 1);
  if (in.gcount() != 0) {
    return Status::InvalidArgument(
        "trailing bytes after the last parameter in " + path);
  }
  return Status::OK();
}

Variable Module::RegisterParameter(std::string name, Variable param) {
  param.set_requires_grad(true);
  params_.emplace_back(std::move(name), param);
  return param;
}

void Module::RegisterModule(std::string name, Module* child) {
  LIPF_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace lipformer

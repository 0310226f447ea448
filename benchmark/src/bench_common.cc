#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "data/scaler.h"
#include "models/factory.h"
#include "serve/quantize.h"
#include "serve/session.h"

namespace lipf_bench {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return std::nan("");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second.first;
}

void Report::Violation(const std::string& what) {
  std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
  violations_.push_back(what);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson(const Options& options) const {
  std::string out = "{\"workload\": " + JsonString(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"seconds\": " + JsonNumber(options.seconds) +
                    ", \"trace\": " + (options.trace ? "true" : "false") +
                    ", \"correct\": " + (violations_.empty() ? "true" : "false") +
                    ", \"valid\": " + (valid ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"violations\": [";
  for (size_t i = 0; i < violations_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(violations_[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(entry.first) + ", \"unit\": " +
           JsonString(entry.second) + "}";
    first = false;
  }
  return out + "}}";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>());
  return logs_.back().get();
}

Status Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                   "\"request\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   s.name, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   Seconds(s.start - origin_) * 1e6,
                   Seconds(s.end - origin_) * 1e6);
    }
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("cannot close " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanLog* log, const char* name,
                       int64_t parent, int64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = tracer->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = Clock::now();
  log_->Add(span_);
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLipf:
      return "lipf";
    case ModelKind::kLipfInt8:
      return "lipf_int8";
    case ModelKind::kDLinear:
      return "dlinear";
  }
  return "?";
}

Status WriteBundle(ModelKind kind, int generation, const std::string& path) {
  using namespace lipformer;
  ForecasterDims dims;
  dims.input_len = kInputLen;
  dims.pred_len = kPredLen;
  dims.channels = kChannels;
  ModelOptions options;
  options.hidden_dim = kHiddenDim;
  const std::string model_name = kind == ModelKind::kDLinear ? "dlinear"
                                                             : "lipformer";
  switch (kind) {
    case ModelKind::kLipf:
      options.seed = 100 + static_cast<uint64_t>(generation);
      break;
    case ModelKind::kLipfInt8:
      options.seed = 200;
      break;
    case ModelKind::kDLinear:
      options.seed = 300;
      break;
  }
  std::unique_ptr<Forecaster> model = CreateModel(model_name, dims, options);
  Rng rng(options.seed + 1000);
  StandardScaler scaler;
  scaler.Fit(Tensor::Randn({256, kChannels}, rng));
  if (kind != ModelKind::kLipfInt8) {
    return serve::SaveModelBundle(path, model_name, options, *model, scaler);
  }
  const std::string fp32_path = path + ".fp32";
  LIPF_RETURN_IF_ERROR(
      serve::SaveModelBundle(fp32_path, model_name, options, *model, scaler));
  Status quantized = serve::QuantizeBundleFile(fp32_path, path, /*force=*/true);
  std::remove(fp32_path.c_str());
  return quantized;
}

std::vector<Tensor> MakeWindows(uint64_t seed) {
  lipformer::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Tensor> windows;
  windows.reserve(kWindowPool);
  for (int64_t i = 0; i < kWindowPool; ++i) {
    windows.push_back(Tensor::Randn({kInputLen, kChannels}, rng));
  }
  return windows;
}

Status SerialReferences(const std::string& path,
                        const std::vector<Tensor>& windows,
                        std::vector<Tensor>* out) {
  auto session = lipformer::serve::InferenceSession::Open(path);
  if (!session.ok()) return session.status();
  out->clear();
  out->reserve(windows.size());
  for (const Tensor& window : windows) {
    auto prediction = session.value()->Predict(window);
    if (!prediction.ok()) return prediction.status();
    out->push_back(prediction.value());
  }
  return Status::OK();
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

}  // namespace lipf_bench

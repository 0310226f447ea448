#include "serve/registry.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"

namespace lipformer {
namespace serve {

namespace {

// stat() the bundle path. Because publishes are atomic renames, whatever
// signature we read corresponds to a complete file.
Result<FileSignature> StatFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat '" + path +
                            "': " + std::strerror(errno));
  }
  FileSignature sig;
  sig.device = static_cast<uint64_t>(st.st_dev);
  sig.inode = static_cast<uint64_t>(st.st_ino);
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

Status ValidateName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (name.find_first_of("|,= \t\n") != std::string::npos) {
    return Status::InvalidArgument(
        "model name '" + name +
        "' contains a character reserved by the line protocol "
        "('|', ',', '=', whitespace)");
  }
  return Status::OK();
}

}  // namespace

ModelRegistry::ModelRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  if (options_.reload_poll.count() > 0) {
    watcher_ = std::thread([this] { WatcherLoop(); });
  }
}

ModelRegistry::~ModelRegistry() { Shutdown(); }

Status ModelRegistry::OpenModel(const std::string& path, FileSignature* sig,
                                std::shared_ptr<ServingModel>* model) const {
  // Signature first: if a publish lands between stat and open we serve
  // the newer file under the older signature, and the next watcher poll
  // simply reloads again. The reverse order could mask a publish.
  Result<FileSignature> stat_result = StatFile(path);
  if (!stat_result.ok()) return stat_result.status();
  *sig = stat_result.value();

  Result<std::unique_ptr<InferenceSession>> session =
      InferenceSession::Open(path);
  if (!session.ok()) return session.status();

  std::shared_ptr<ServingModel> fresh(new ServingModel());
  fresh->session_ = std::move(session.value());
  // The session's Open-time timed probe seeds the batcher's admission
  // cost model, so deadline-based shedding works from the first request.
  BatcherOptions batcher_options = options_.batcher;
  batcher_options.cost_hint_seconds = fresh->session_->probe_latency_seconds();
  fresh->batcher_ =
      std::make_unique<Batcher>(fresh->session_.get(), batcher_options);
  *model = std::move(fresh);
  return Status::OK();
}

Status ModelRegistry::Load(const std::string& name, const std::string& path) {
  Status name_ok = ValidateName(name);
  if (!name_ok.ok()) return name_ok;

  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  FileSignature sig;
  std::shared_ptr<ServingModel> fresh;
  Status opened = OpenModel(path, &sig, &fresh);
  if (!opened.ok()) return opened;

  std::shared_ptr<ServingModel> old;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (shutdown_) {
      return Status::Unavailable("registry is shut down");
    }
    Entry& entry = entries_[name];
    old = std::exchange(entry.model, std::move(fresh));
    entry.path = path;
    entry.sig = sig;
    entry.attempted_sig = sig;
    entry.last_error.clear();
  }
  if (options_.verbose) {
    std::fprintf(stderr, "registry: loaded model '%s' from %s\n",
                 name.c_str(), path.c_str());
  }
  // Drain the replaced generation outside every lock: its batcher may be
  // mid-PredictBatch and Shutdown joins the worker.
  if (old != nullptr) old->batcher_->Shutdown();
  return Status::OK();
}

Status ModelRegistry::Reload(const std::string& name) {
  return ReloadImpl(name, /*from_watcher=*/false);
}

Status ModelRegistry::ReloadImpl(const std::string& name, bool from_watcher) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  std::string path;
  FileSignature current_sig;
  FileSignature attempted_sig;
  std::shared_ptr<ServingModel> current;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("registry is shut down");
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no model named '" + name + "'");
    }
    path = it->second.path;
    current_sig = it->second.sig;
    attempted_sig = it->second.attempted_sig;
    current = it->second.model;
  }

  if (from_watcher) {
    // Cheap poll: only react to a file that differs both from what is
    // serving and from the last file we already tried (a bad publish is
    // attempted once, not once per poll).
    Result<FileSignature> now = StatFile(path);
    if (!now.ok()) return Status::OK();  // transiently missing; keep serving
    if (now.value() == current_sig || now.value() == attempted_sig) {
      return Status::OK();
    }
  }

  FileSignature sig;
  std::shared_ptr<ServingModel> fresh;
  Status opened = OpenModel(path, &sig, &fresh);
  if (opened.ok() && current != nullptr) {
    // The slot's tensor shape is part of the serving contract; a reload
    // that changes it would break clients mid-stream. Publish such a
    // bundle under a new name (or a fresh Load) instead.
    InferenceSession* a = current->session();
    InferenceSession* b = fresh->session();
    if (a->input_len() != b->input_len() || a->pred_len() != b->pred_len() ||
        a->channels() != b->channels()) {
      opened = Status::InvalidArgument(
          "reload of '" + name + "' changes tensor shape from [" +
          std::to_string(a->input_len()) + "," +
          std::to_string(a->channels()) + "]->[" +
          std::to_string(a->pred_len()) + "," + std::to_string(a->channels()) +
          "] to [" + std::to_string(b->input_len()) + "," +
          std::to_string(b->channels()) + "]->[" +
          std::to_string(b->pred_len()) + "," + std::to_string(b->channels()) +
          "]; load it under a new name instead");
    }
  }

  if (!opened.ok()) {
    std::shared_ptr<ServingModel> discard = std::move(fresh);
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      auto it = entries_.find(name);
      if (it != entries_.end()) {
        // Remember what we tried (when the file was readable at all) so
        // the watcher does not re-attempt the identical bad publish.
        Result<FileSignature> now = StatFile(path);
        if (now.ok()) it->second.attempted_sig = now.value();
        ++it->second.reload_failures;
        it->second.last_error = opened.message();
      }
    }
    if (options_.verbose) {
      std::fprintf(stderr,
                   "registry: reload failed for model '%s' (%s); keeping "
                   "previous model: %s\n",
                   name.c_str(), path.c_str(), opened.message().c_str());
    }
    if (discard != nullptr) discard->batcher_->Shutdown();
    return opened;
  }

  std::shared_ptr<ServingModel> old;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (shutdown_) {
      // Lost the race with Shutdown; do not swap a live batcher in.
      fresh->batcher_->Shutdown();
      return Status::Unavailable("registry is shut down");
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      fresh->batcher_->Shutdown();
      return Status::NotFound("no model named '" + name + "'");
    }
    old = std::exchange(it->second.model, std::move(fresh));
    it->second.sig = sig;
    it->second.attempted_sig = sig;
    ++it->second.reloads;
    it->second.last_error.clear();
  }
  if (options_.verbose) {
    std::fprintf(stderr, "registry: reloaded model '%s' from %s\n",
                 name.c_str(), path.c_str());
  }
  if (old != nullptr) old->batcher_->Shutdown();
  return Status::OK();
}

std::shared_ptr<ServingModel> ModelRegistry::Find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return it->second.model;
}

size_t ModelRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<ModelInfo> ModelRegistry::Models() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ModelInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    ModelInfo info;
    info.name = name;
    info.path = entry.path;
    info.reloads = entry.reloads;
    info.reload_failures = entry.reload_failures;
    info.last_error = entry.last_error;
    if (entry.model != nullptr) {
      const InferenceSession* session = entry.model->session();
      info.input_len = session->input_len();
      info.pred_len = session->pred_len();
      info.channels = session->channels();
      info.quantized = session->quantized();
      info.batcher = entry.model->batcher()->Stats();
      const std::shared_ptr<const InferencePlan> plan =
          session->PlanForBatch(1);
      info.plan = plan->stats();
      info.op_timings = plan->OpTimings();
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

std::string FormatModelStats(const ModelInfo& info) {
  const BatcherStats& b = info.batcher;
  const BreakerStats& breaker = b.breaker;
  const PlanStats& plan = info.plan;
  std::ostringstream line;
  line << std::fixed << std::setprecision(3);
  line << "model=" << info.name
       << " breaker=" << BreakerStateName(breaker.state)
       << " trips=" << breaker.trips << " probes=" << breaker.probes
       << " breaker_rejected=" << breaker.rejected
       << " queue=" << b.queue_depth
       << " est_batch_ms=" << b.cost_ewma_seconds * 1e3
       << " shed=" << b.shed_overload << " expired=" << b.expired
       << " nonfinite=" << b.nonfinite_answers
       << " executed_past_deadline=" << b.executed_past_deadline
       << " retry_after_ms=" << breaker.retry_after.count()
       << " reloads=" << info.reloads
       << " reload_failures=" << info.reload_failures;
  line << " path=" << std::quoted(info.path)
       << " input_len=" << info.input_len << " pred_len=" << info.pred_len
       << " channels=" << info.channels
       << " int8=" << (info.quantized ? 1 : 0)
       << " submitted=" << b.submitted << " completed=" << b.completed
       << " rejected=" << b.rejected_full << " batches=" << b.batches
       << " p50_ms=" << b.p50_latency_seconds * 1e3
       << " p99_ms=" << b.p99_latency_seconds * 1e3
       << " p999_ms=" << b.p999_latency_seconds * 1e3;
  line << " plan_ops=" << plan.num_ops << " arena_bytes=" << plan.arena_bytes
       << " constants=" << plan.num_constants
       << " prepacked_gemms=" << plan.prepacked_gemms
       << " fused_transposes=" << plan.fused_gemm_operands
       << " fused_epilogues=" << plan.fused_epilogues
       << " passes_eliminated=" << plan.passes_eliminated
       << " macs=" << plan.macs;
  for (const PlanOpTiming& t : info.op_timings) {
    line << " op." << t.name << ".calls=" << t.calls << " op." << t.name
         << ".total_ms=" << static_cast<double>(t.total_ns) * 1e-6;
  }
  line << " last_error=" << std::quoted(info.last_error);
  return line.str();
}

std::future<Result<Tensor>> ModelRegistry::Submit(
    const std::string& name, Tensor history,
    std::chrono::microseconds deadline, SubmitMode mode) {
  using namespace std::chrono_literals;
  // A hot swap between Find and Submit makes the old generation's batcher
  // reject with Unavailable even though the fresh generation is healthy.
  // Detect that exact case — the registry no longer hands out the model
  // we submitted to — and retry on the current generation, so a reload
  // never surfaces as a failed request. Bounded: anything still failing
  // after a handful of swaps is a real availability problem.
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::shared_ptr<ServingModel> model = Find(name);
    if (model == nullptr) {
      std::promise<Result<Tensor>> p;
      p.set_value(Status::NotFound("no model named '" + name +
                                   "' (see --load)"));
      return p.get_future();
    }
    std::future<Result<Tensor>> future =
        model->batcher()->Submit(history, deadline, mode);
    if (future.wait_for(0s) != std::future_status::ready) return future;
    Result<Tensor> result = future.get();
    if (!result.ok() && result.status().code() == StatusCode::kUnavailable &&
        Find(name) != model) {
      continue;  // swapped under us; resubmit to the fresh generation
    }
    std::promise<Result<Tensor>> p;
    p.set_value(std::move(result));
    return p.get_future();
  }
  std::promise<Result<Tensor>> p;
  p.set_value(Status::Unavailable("model '" + name +
                                  "' kept reloading across retries"));
  return p.get_future();
}

void ModelRegistry::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = true;
  }
  watcher_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();

  std::vector<std::shared_ptr<ServingModel>> models;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    shutdown_ = true;
    for (const auto& [name, entry] : entries_) {
      if (entry.model != nullptr) models.push_back(entry.model);
    }
  }
  // Drain outside the lock; entries stay readable for final stats.
  for (const std::shared_ptr<ServingModel>& model : models) {
    model->batcher_->Shutdown();
  }
}

void ModelRegistry::WatcherLoop() {
  std::unique_lock<std::mutex> lock(watcher_mu_);
  while (!watcher_stop_) {
    watcher_cv_.wait_for(lock, options_.reload_poll,
                         [this] { return watcher_stop_; });
    if (watcher_stop_) return;
    lock.unlock();
    // Chaos hook: a stalled watcher (slow disk, cgroup throttling) must
    // only delay reloads, never serving — check_chaos.sh asserts that.
    const int64_t stall_ms = fault::WatcherStallMs();
    if (stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    std::vector<std::string> names = ModelNames();
    for (const std::string& name : names) {
      (void)ReloadImpl(name, /*from_watcher=*/true);
    }
    lock.lock();
  }
}

}  // namespace serve
}  // namespace lipformer

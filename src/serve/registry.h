#ifndef LIPFORMER_SERVE_REGISTRY_H_
#define LIPFORMER_SERVE_REGISTRY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/session.h"

// Multi-tenant serving: a registry of named InferenceSessions, each with
// its own micro-batcher, behind a read-mostly lock. The hot path (Submit)
// takes a shared lock only long enough to copy a shared_ptr; reloads take
// the exclusive lock only for the pointer swap.
//
// Zero-downtime hot reload: bundles are published with an atomic rename
// (common/atomic_file.h), which the watcher thread detects as a change of
// inode/mtime/size at the registered path. The replacement session is
// opened and validated entirely off the hot path (InferenceSession::Open
// re-runs checkpoint-v2 validation and memcmp-gates the compiled plan
// against the module forward), then swapped in under the exclusive lock;
// the old generation's batcher is drained afterwards, outside any lock.
// A reload that fails validation keeps the old model serving, records the
// error, and remembers the failed file signature so the watcher does not
// retry the same bad file every poll.
//
// Requests in flight during a swap resolve against whichever generation
// admitted them — never a mix — because each generation owns its session
// and batcher, and the old batcher drains everything it accepted.

namespace lipformer {
namespace serve {

struct RegistryOptions {
  // Every model gets its own batcher with these knobs.
  BatcherOptions batcher;
  // Poll cadence of the hot-reload watcher thread; zero disables the
  // watcher (Reload() still works manually).
  std::chrono::milliseconds reload_poll{0};
  // Log load/reload events to stderr (the CLI server wants a journal).
  bool verbose = false;
};

// Identity of the bundle file a session was opened from. An atomic-rename
// publish lands a new inode at the same path, so comparing signatures is
// a race-free change detector (no partially-written file is ever visible
// at the path).
struct FileSignature {
  uint64_t device = 0;
  uint64_t inode = 0;
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  bool operator==(const FileSignature&) const = default;
};

// One generation of one tenant: an immutable-once-open session plus the
// batcher feeding it. Handed out by shared_ptr so a hot reload can swap
// the registry slot while in-flight holders finish against the
// generation that admitted them.
class ServingModel {
 public:
  InferenceSession* session() const { return session_.get(); }
  Batcher* batcher() const { return batcher_.get(); }

 private:
  friend class ModelRegistry;
  ServingModel() = default;
  std::unique_ptr<InferenceSession> session_;
  std::unique_ptr<Batcher> batcher_;
};

// Snapshot of one tenant: everything `serve` reports about a model, on
// "!health", "!stats", SIGHUP, startup and exit (FormatModelStats).
struct ModelInfo {
  std::string name;
  std::string path;
  int64_t input_len = 0;
  int64_t pred_len = 0;
  int64_t channels = 0;
  bool quantized = false;
  int64_t reloads = 0;          // successful hot swaps since Load
  int64_t reload_failures = 0;  // rejected reload attempts
  std::string last_error;       // from the most recent failed reload
  BatcherStats batcher;
  PlanStats plan;               // the serving plan's compile-time facts
  // Per-op-kind time of the serving plan; empty unless profiling is on.
  std::vector<PlanOpTiming> op_timings;
};

// Renders `info` as one line of space-separated key=value pairs. The
// first keys are the ones scripted clients parse from "!health", in this
// order: model breaker trips probes breaker_rejected queue est_batch_ms
// shed expired nonfinite executed_past_deadline retry_after_ms reloads
// reload_failures. Then come the model's shape and request counters
// (path ... p999_ms), the plan (plan_ops ... macs), op.<kind>.calls and
// op.<kind>.total_ms for every op kind that has run while profiling, and
// last, last_error. Every time key names its unit. The two values that
// may hold spaces, path and last_error, are double-quoted with '"' and
// '\' escaped (std::quoted). Dropping or renaming a key breaks scripted
// clients, so record it in CHANGES.md.
std::string FormatModelStats(const ModelInfo& info);

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryOptions options = RegistryOptions());
  ~ModelRegistry();  // Shutdown()

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Opens the bundle at `path` and serves it as `name`. Loading an
  // existing name hot-swaps it (old generation drains), like Reload but
  // allowing a different path and a different tensor shape.
  Status Load(const std::string& name, const std::string& path);

  // Re-opens `name`'s bundle from its registered path and swaps it in.
  // On any failure (unreadable file, validation, shape change) the old
  // model keeps serving and the error is recorded in ModelInfo.
  Status Reload(const std::string& name);

  // Current generation of `name`, or nullptr. Holders may use the
  // session/batcher for as long as they keep the shared_ptr; a reload
  // shuts the old batcher down but never invalidates the pointer.
  std::shared_ptr<ServingModel> Find(const std::string& name) const;

  size_t size() const;
  std::vector<std::string> ModelNames() const;
  std::vector<ModelInfo> Models() const;

  // Routes one request to `name`'s batcher. Resolves to NotFound for an
  // unknown name; otherwise behaves like Batcher::Submit, except that a
  // rejection caused purely by a concurrent hot swap (the generation
  // shut down between Find and Submit) is retried on the fresh
  // generation, so callers never see a spurious failure from a reload.
  std::future<Result<Tensor>> Submit(
      const std::string& name, Tensor history,
      std::chrono::microseconds deadline = std::chrono::microseconds::zero(),
      SubmitMode mode = SubmitMode::kReject);

  // Stops the watcher and drains every model's batcher. Idempotent;
  // called by the destructor. Entries stay readable for final stats.
  void Shutdown();

 private:
  struct Entry {
    std::string path;
    FileSignature sig;            // signature of the serving bundle
    FileSignature attempted_sig;  // last signature a reload was tried on
    std::shared_ptr<ServingModel> model;
    int64_t reloads = 0;
    int64_t reload_failures = 0;
    std::string last_error;
  };

  // Opens + validates a session/batcher pair for `path`. On success the
  // out-params are filled; `sig` is the file signature read before open.
  Status OpenModel(const std::string& path, FileSignature* sig,
                   std::shared_ptr<ServingModel>* model) const;
  Status ReloadImpl(const std::string& name, bool from_watcher);
  void WatcherLoop();

  RegistryOptions options_;

  mutable std::shared_mutex mu_;  // guards entries_ and shutdown_
  std::map<std::string, Entry> entries_;
  bool shutdown_ = false;

  // Serializes Load/Reload (open + swap + drain) against each other so
  // two publishes of the same path cannot interleave their swaps.
  std::mutex reload_mu_;

  std::mutex shutdown_mu_;  // serializes concurrent Shutdown calls

  std::mutex watcher_mu_;
  std::condition_variable watcher_cv_;
  bool watcher_stop_ = false;
  std::thread watcher_;
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_REGISTRY_H_

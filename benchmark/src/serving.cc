#include "serving.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <queue>
#include <thread>

#include "common/random.h"
#include "serve/registry.h"
#include "tensor/storage_pool.h"

namespace lipf_bench {
namespace {

using lipformer::Result;
using lipformer::StatusCode;
namespace serve = lipformer::serve;

struct TenantSpec {
  ModelKind kind;
  double share;
};

// One serving workload. Tenant 0 is the one whose bundle is republished.
struct ServingSpec {
  std::vector<TenantSpec> tenants;
  double rate_rps = 0;
  double deadline_s = 0;  // 0: requests carry no deadline
  int max_attempts = 1;   // only kOverloaded sheds are retried
  double backoff_s = 0.010;
  // Latency limit behind goodput and slo_frac; 0: every ok answer counts.
  double limit_s = 0;
  int publishes = 0;      // tenant-0 generations published mid-load
  // Under overload a typed shed (kOverloaded after the retries, or
  // kDeadlineExceeded) is the promised behaviour: it costs goodput but is
  // not an operation failure.
  bool sheds_expected = false;
};

ServingSpec SpecFor(const std::string& workload, double seconds) {
  ServingSpec spec;
  if (workload == "steady") {
    spec.tenants = {{ModelKind::kLipf, 1.0}};
    spec.rate_rps = 800;
    spec.limit_s = 0.010;
  } else if (workload == "multitenant_reload") {
    spec.tenants = {{ModelKind::kLipf, 0.5},
                    {ModelKind::kLipfInt8, 0.3},
                    {ModelKind::kDLinear, 0.2}};
    spec.rate_rps = 1500;
    spec.limit_s = 0.010;
    // One publish per ~3 s of load, at most 5; shortened (smoke) runs
    // still publish once.
    spec.publishes =
        static_cast<int>(std::clamp(std::floor(seconds / 3.0), 1.0, 5.0));
  } else {  // overload
    spec.tenants = {{ModelKind::kLipf, 1.0}};
    spec.rate_rps = 5000;
    spec.deadline_s = 0.100;
    spec.max_attempts = 3;
    // Every ok answer started executing before its deadline (asserted
    // below), so goodput is the ok answer rate: the capacity. A limit at
    // the deadline would count answers either side of the p50.
    spec.limit_s = 0;
    spec.sheds_expected = true;
  }
  return spec;
}

struct Arrival {
  double at = 0;  // seconds after the load starts
  int tenant = 0;
  int window = 0;
};

// Poisson arrivals conditioned on their count: exactly rate x seconds
// arrival times drawn uniformly over the run and sorted, so every seed
// offers the same load and only the timing pattern differs.
std::vector<Arrival> MakeSchedule(const ServingSpec& spec, double seconds,
                                  uint64_t seed) {
  lipformer::Rng rng(seed);
  const int64_t n = std::llround(spec.rate_rps * seconds);
  std::vector<double> times(static_cast<size_t>(n));
  for (double& t : times) t = rng.Uniform() * seconds;
  std::sort(times.begin(), times.end());
  std::vector<Arrival> schedule(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    schedule[i].at = times[i];
    double u = rng.Uniform();
    int tenant = 0;
    while (tenant + 1 < static_cast<int>(spec.tenants.size()) &&
           u >= spec.tenants[static_cast<size_t>(tenant)].share) {
      u -= spec.tenants[static_cast<size_t>(tenant)].share;
      ++tenant;
    }
    schedule[i].tenant = tenant;
    schedule[i].window = static_cast<int>(rng.UniformInt(kWindowPool));
  }
  return schedule;
}

struct Request {
  int64_t id = 0;    // schedule index
  int64_t span = 0;  // request span id (traced runs)
  int tenant = 0;
  int window = 0;
  int attempt = 1;
  int publishes = 0;  // tenant-0 publishes done when it was first sent
  Clock::time_point scheduled;
  Clock::time_point deadline;  // epoch: none
};

struct Pending {
  Request request;
  std::future<Result<Tensor>> future;
};

// What one client thread observed; merged when the load ends. Latencies
// are kept per request by the load phase itself.
struct Outcomes {
  explicit Outcomes(size_t generations)
      : first_seen(generations, Clock::time_point::max()) {}

  std::vector<double> late_ms;    // generator: actual send - scheduled send
  std::vector<double> submit_us;  // time inside ModelRegistry::Submit
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;     // unexpected typed failures
  int64_t torn = 0;       // ok answers equal to no accepted reference
  int64_t nonfinite = 0;  // ok answers carrying NaN/Inf
  // Per tenant-0 generation: when an answer equal to its reference was
  // first observed.
  std::vector<Clock::time_point> first_seen;
  std::string first_error;

  void Merge(const Outcomes& o) {
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    ok += o.ok;
    shed += o.shed;
    expired += o.expired;
    failed += o.failed;
    torn += o.torn;
    nonfinite += o.nonfinite;
    for (size_t g = 0; g < first_seen.size(); ++g) {
      first_seen[g] = std::min(first_seen[g], o.first_seen[g]);
    }
    if (first_error.empty()) first_error = o.first_error;
  }
};

// Admitted requests of one tenant in submit order. The tenant's batcher
// answers in that order, so the completion thread's future::get returns
// at (almost exactly) each answer's completion.
struct TenantQueue {
  std::mutex submit_mu;  // Submit + push form one step: FIFO == batcher order
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;
};

struct RetryItem {
  Clock::time_point at;
  Request request;
  bool operator>(const RetryItem& o) const { return at > o.at; }
};

// One open-loop load phase. Client threads: the calling thread generates,
// one completion thread per tenant observes answers, and a retry thread
// exists only when the workload retries (overload has one tenant), so at
// most four client threads run.
class LoadPhase {
 public:
  LoadPhase(const ServingSpec& spec, serve::ModelRegistry* registry,
            const std::vector<std::string>& names,
            const std::vector<Tensor>& windows,
            const std::vector<std::vector<std::vector<Tensor>>>& refs,
            Tracer* tracer)
      : spec_(spec),
        registry_(registry),
        names_(names),
        windows_(windows),
        refs_(refs),
        tracer_(tracer),
        generations_(names.size()) {
    for (size_t t = 0; t < names.size(); ++t) {
      queues_.push_back(std::make_unique<TenantQueue>());
    }
  }

  // Drives `schedule`, publishing tenant 0's generation k+1 by renaming
  // `publish_paths[k]` over `served_path` at `publish_at[k]` seconds.
  // Returns false when the answers did not drain in time.
  bool Run(const std::vector<Arrival>& schedule,
           const std::vector<std::string>& publish_paths,
           const std::vector<double>& publish_at,
           const std::string& served_path);

  Outcomes Merged() const;
  // Per schedule index: scheduled send to observed answer, ms; NaN for
  // requests that were not answered ok.
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<Clock::time_point>& rename_times() const {
    return rename_times_;
  }
  // Every generation of every tenant seen during the load (old ones stay
  // alive here so their batcher counters can be summed).
  const std::vector<std::vector<std::shared_ptr<serve::ServingModel>>>&
  generations() const {
    return generations_;
  }

 private:
  void Send(Request request, Outcomes* out, SpanLog* log);
  void Resolve(const Request& request, Result<Tensor> result,
               Clock::time_point observed, Outcomes* out, SpanLog* log);
  int MatchGeneration(const Request& request, const Tensor& answer) const;
  void CompletionLoop(size_t tenant, Outcomes* out, SpanLog* log);
  void RetryLoop(Outcomes* out, SpanLog* log);
  void PushRetry(RetryItem item);
  void TrackGenerations();
  void FinishOne();

  const ServingSpec& spec_;
  serve::ModelRegistry* registry_;
  const std::vector<std::string>& names_;
  const std::vector<Tensor>& windows_;
  // refs_[tenant][generation][window]
  const std::vector<std::vector<std::vector<Tensor>>>& refs_;
  Tracer* tracer_;

  std::vector<std::unique_ptr<TenantQueue>> queues_;
  std::vector<std::unique_ptr<Outcomes>> outcomes_;
  std::vector<double> latency_ms_;
  std::vector<Clock::time_point> rename_times_;
  std::vector<std::vector<std::shared_ptr<serve::ServingModel>>> generations_;

  std::mutex retry_mu_;
  std::condition_variable retry_cv_;
  std::priority_queue<RetryItem, std::vector<RetryItem>, std::greater<>>
      retries_;
  bool retry_closed_ = false;

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  int64_t outstanding_ = 0;  // sent and not yet terminally resolved
};

void LoadPhase::FinishOne() {
  std::lock_guard<std::mutex> lock(done_mu_);
  if (--outstanding_ == 0) done_cv_.notify_all();
}

void LoadPhase::PushRetry(RetryItem item) {
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    retries_.push(std::move(item));
  }
  retry_cv_.notify_all();
}

int LoadPhase::MatchGeneration(const Request& request,
                               const Tensor& answer) const {
  const auto& gens = refs_[static_cast<size_t>(request.tenant)];
  // A request sent after p publishes is answered by the generation the
  // registry admitted it to: p-1 when the swap has not happened yet, p
  // after it, p+1 only if a swap-raced resubmission saw the next one.
  // Only tenant 0 is republished.
  const int last = static_cast<int>(gens.size()) - 1;
  const int lo = std::min(last, std::max(0, request.publishes - 1));
  const int hi = std::min(last, request.publishes + 1);
  for (int g = lo; g <= hi; ++g) {
    if (BitwiseEqual(answer,
                     gens[static_cast<size_t>(g)]
                         [static_cast<size_t>(request.window)])) {
      return g;
    }
  }
  return -1;
}

void LoadPhase::Resolve(const Request& request, Result<Tensor> result,
                        Clock::time_point observed, Outcomes* out,
                        SpanLog* log) {
  if (result.ok()) {
    const Tensor& answer = result.value();
    ++out->ok;
    // Each id resolves exactly once, so threads write distinct elements.
    latency_ms_[static_cast<size_t>(request.id)] =
        Ms(observed - request.scheduled);
    if (!AllFinite(answer)) ++out->nonfinite;
    const int gen = MatchGeneration(request, answer);
    if (gen < 0) {
      ++out->torn;
    } else if (request.tenant == 0) {
      auto& seen = out->first_seen[static_cast<size_t>(gen)];
      seen = std::min(seen, observed);
    }
  } else {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kOverloaded &&
        request.attempt < spec_.max_attempts &&
        request.deadline != Clock::time_point{}) {
      const Clock::time_point at =
          observed + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec_.backoff_s));
      if (at < request.deadline) {
        RetryItem item{at, request};
        ++item.request.attempt;
        PushRetry(std::move(item));
        return;  // still outstanding
      }
    }
    if (spec_.sheds_expected && code == StatusCode::kOverloaded) {
      ++out->shed;
    } else if (spec_.sheds_expected &&
               code == StatusCode::kDeadlineExceeded) {
      ++out->expired;
    } else {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = result.status().ToString();
      }
    }
  }
  if (log != nullptr) {
    log->Add(Span{"request", request.span, 0, request.id, request.scheduled,
                  observed});
  }
  FinishOne();
}

void LoadPhase::Send(Request request, Outcomes* out, SpanLog* log) {
  std::chrono::microseconds deadline{0};
  if (request.deadline != Clock::time_point{}) {
    deadline = std::chrono::duration_cast<std::chrono::microseconds>(
        request.deadline - Clock::now());
    if (deadline.count() <= 0) {
      Resolve(request, Status::DeadlineExceeded("deadline passed in backoff"),
              Clock::now(), out, log);
      return;
    }
  }
  TenantQueue& q = *queues_[static_cast<size_t>(request.tenant)];
  std::future<Result<Tensor>> future;
  {
    std::lock_guard<std::mutex> lock(q.submit_mu);
    ScopedSpan span(tracer_, log, "registry.submit", request.span, request.id);
    const Clock::time_point t0 = Clock::now();
    future = registry_->Submit(names_[static_cast<size_t>(request.tenant)],
                               windows_[static_cast<size_t>(request.window)],
                               deadline);
    out->submit_us.push_back(Seconds(Clock::now() - t0) * 1e6);
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      {
        std::lock_guard<std::mutex> qlock(q.mu);
        q.queue.push_back(Pending{request, std::move(future)});
      }
      q.cv.notify_one();
      return;
    }
  }
  // Refused at Submit (admission shed, dead on arrival, ...): resolve here
  // so a retry is not held behind earlier admitted requests.
  Resolve(request, future.get(), Clock::now(), out, log);
}

void LoadPhase::CompletionLoop(size_t tenant, Outcomes* out, SpanLog* log) {
  TenantQueue& q = *queues_[tenant];
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(q.mu);
      q.cv.wait(lock, [&q] { return q.closed || !q.queue.empty(); });
      if (q.queue.empty()) return;
      pending = std::move(q.queue.front());
      q.queue.pop_front();
    }
    Result<Tensor> result = pending.future.get();
    Resolve(pending.request, std::move(result), Clock::now(), out, log);
  }
}

void LoadPhase::RetryLoop(Outcomes* out, SpanLog* log) {
  std::unique_lock<std::mutex> lock(retry_mu_);
  for (;;) {
    if (retries_.empty()) {
      if (retry_closed_) return;
      retry_cv_.wait(lock);
      continue;
    }
    const Clock::time_point at = retries_.top().at;
    if (Clock::now() < at) {
      retry_cv_.wait_until(lock, at);
      continue;
    }
    RetryItem item = retries_.top();
    retries_.pop();
    lock.unlock();
    Send(item.request, out, log);
    lock.lock();
  }
}

void LoadPhase::TrackGenerations() {
  for (size_t t = 0; t < names_.size(); ++t) {
    std::shared_ptr<serve::ServingModel> model = registry_->Find(names_[t]);
    if (model == nullptr) continue;
    auto& seen = generations_[t];
    if (!seen.empty() && seen.back() == model) continue;
    // Traced runs profile plan ops on every generation, including those a
    // reload opens mid-load.
    if (tracer_->enabled()) model->session()->SetPlanProfiling(true);
    seen.push_back(std::move(model));
  }
}

bool LoadPhase::Run(const std::vector<Arrival>& schedule,
                    const std::vector<std::string>& publish_paths,
                    const std::vector<double>& publish_at,
                    const std::string& served_path) {
  const size_t tenants = names_.size();
  const size_t generations = refs_[0].size();
  for (size_t i = 0; i < tenants + 2; ++i) {
    outcomes_.push_back(std::make_unique<Outcomes>(generations));
  }
  latency_ms_.assign(schedule.size(), std::nan(""));
  Outcomes* gen_out = outcomes_[tenants].get();
  Outcomes* retry_out = outcomes_[tenants + 1].get();
  SpanLog* gen_log = tracer_->NewLog();

  TrackGenerations();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < tenants; ++t) {
    SpanLog* log = tracer_->NewLog();
    threads.emplace_back(
        [this, t, log] { CompletionLoop(t, outcomes_[t].get(), log); });
  }
  if (spec_.max_attempts > 1) {
    SpanLog* log = tracer_->NewLog();
    threads.emplace_back([this, retry_out, log] { RetryLoop(retry_out, log); });
  }

  const auto after = [](Clock::time_point start, double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  size_t published = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    const Clock::time_point scheduled = after(start, arrival.at);
    // Publishing is an atomic rename, done by the generator itself so the
    // client stays within its thread budget.
    while (published < publish_at.size() &&
           after(start, publish_at[published]) <= scheduled) {
      std::this_thread::sleep_until(after(start, publish_at[published]));
      if (std::rename(publish_paths[published].c_str(),
                      served_path.c_str()) != 0) {
        std::fprintf(stderr, "publish rename failed\n");
      }
      rename_times_.push_back(Clock::now());
      ++published;
    }
    if (i % 128 == 0) TrackGenerations();
    std::this_thread::sleep_until(scheduled);
    gen_out->late_ms.push_back(Ms(Clock::now() - scheduled));

    Request request;
    request.id = static_cast<int64_t>(i);
    request.span = tracer_->enabled() ? tracer_->NextId() : 0;
    request.tenant = arrival.tenant;
    request.window = arrival.window;
    request.publishes = static_cast<int>(published);
    request.scheduled = scheduled;
    if (spec_.deadline_s > 0) request.deadline = after(scheduled, spec_.deadline_s);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      ++outstanding_;
    }
    Send(request, gen_out, gen_log);
  }
  TrackGenerations();

  bool drained;
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    drained = done_cv_.wait_for(lock, std::chrono::seconds(60),
                                [this] { return outstanding_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    retry_closed_ = true;
  }
  retry_cv_.notify_all();
  for (auto& q : queues_) {
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->closed = true;
    }
    q->cv.notify_all();
  }
  // Undrained futures still resolve: every batcher answers what it
  // accepted, and the registry shuts down after this returns.
  for (std::thread& thread : threads) thread.join();
  return drained;
}

Outcomes LoadPhase::Merged() const {
  Outcomes all(refs_[0].size());
  for (const auto& out : outcomes_) all.Merge(*out);
  return all;
}

// Latency percentile with the number of samples strictly beyond it.
void SetTail(Report* report, const std::vector<double>& latency, double p,
             const std::string& tag) {
  const double v = Percentile(latency, p);
  int64_t beyond = 0;
  for (double x : latency) beyond += x > v ? 1 : 0;
  report->Set("latency." + tag + "_ms", v, "ms");
  report->Set("latency." + tag + "_beyond", static_cast<double>(beyond),
              "count");
}

}  // namespace

bool IsServingWorkload(const std::string& workload) {
  return workload == "steady" || workload == "multitenant_reload" ||
         workload == "overload";
}

std::vector<ModelKind> ServingKinds(const std::string& workload) {
  std::vector<ModelKind> kinds;
  for (const TenantSpec& tenant : SpecFor(workload, 0).tenants) {
    kinds.push_back(tenant.kind);
  }
  return kinds;
}

Status RunServing(const Options& options, Tracer* tracer, Report* report,
                  int64_t* median_batch) {
  const ServingSpec spec = SpecFor(options.workload, options.seconds);
  SpanLog* log = tracer->NewLog();
  const size_t tenants = spec.tenants.size();

  // Bundles: tenant 0 serves generation 0 from paths[0]; generations
  // 1..publishes are pre-written beside it and renamed over it mid-load.
  std::vector<std::string> names;
  std::vector<std::string> paths;
  for (const TenantSpec& tenant : spec.tenants) {
    names.push_back(ModelKindName(tenant.kind));
    paths.push_back(options.workdir + "/" + names.back() + ".bundle");
    LIPF_RETURN_IF_ERROR(WriteBundle(tenant.kind, 0, paths.back()));
  }
  std::vector<std::string> publish_paths;
  std::vector<double> publish_at;
  for (int g = 1; g <= spec.publishes; ++g) {
    publish_paths.push_back(options.workdir + "/lipf.gen" + std::to_string(g) +
                            ".bundle");
    LIPF_RETURN_IF_ERROR(WriteBundle(ModelKind::kLipf, g, publish_paths.back()));
    publish_at.push_back(options.seconds * g / (spec.publishes + 1));
  }

  const std::vector<Tensor> windows = MakeWindows(options.seed);
  std::vector<std::vector<std::vector<Tensor>>> refs(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    refs[t].emplace_back();
    LIPF_RETURN_IF_ERROR(SerialReferences(paths[t], windows, &refs[t][0]));
  }
  for (const std::string& path : publish_paths) {
    refs[0].emplace_back();
    LIPF_RETURN_IF_ERROR(SerialReferences(path, windows, &refs[0].back()));
  }

  // Setup: Load every tenant and compile the batch-2..16 plans the load
  // will use, kSetupRepeats times on fresh registries.
  serve::RegistryOptions registry_options;
  registry_options.batcher.max_batch_size = kMaxBatch;
  registry_options.batcher.queue_capacity = kQueueCapacity;
  if (spec.publishes > 0) {
    registry_options.reload_poll = std::chrono::milliseconds(20);
  }
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    registry.reset();
    ScopedSpan setup(tracer, log, "setup");
    const Clock::time_point t0 = Clock::now();
    registry = std::make_unique<serve::ModelRegistry>(registry_options);
    for (size_t t = 0; t < tenants; ++t) {
      ScopedSpan load(tracer, log, "registry.load", setup.id());
      LIPF_RETURN_IF_ERROR(registry->Load(names[t], paths[t]));
    }
    for (size_t t = 0; t < tenants; ++t) {
      serve::InferenceSession* session = registry->Find(names[t])->session();
      for (int64_t b = 2; b <= kMaxBatch; ++b) {
        ScopedSpan compile(tracer, log, "session.plan_for_batch", setup.id());
        (void)session->PlanForBatch(b);
      }
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  report->Set("setup_s", Median(setup_s), "s");

  const std::vector<Arrival> schedule =
      MakeSchedule(spec, options.seconds, options.seed);
  lipformer::ResetStoragePoolCounters();
  LoadPhase load(spec, registry.get(), names, windows, refs, tracer);
  bool drained;
  {
    ScopedSpan span(tracer, log, "load");
    drained = load.Run(schedule, publish_paths, publish_at, paths[0]);
  }
  const lipformer::StoragePoolStats pool = lipformer::GetStoragePoolStats();
  report->Set("rss_mb", PeakRssMb(), "MiB");
  if (!drained) report->Violation("answers did not drain within 60 s");

  // Client view.
  const Outcomes out = load.Merged();
  const int64_t offered = static_cast<int64_t>(schedule.size());
  std::vector<double> latency;
  std::vector<std::vector<double>> tenant_latency(tenants);
  // Tenant 0 after its last publish: the window its serving generation's
  // batcher statistics cover, which the stage table splits.
  std::vector<double> last_generation_latency;
  const double last_publish = publish_at.empty() ? 0 : publish_at.back();
  int64_t in_limit = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double ms = load.latency_ms()[i];
    if (std::isnan(ms)) continue;
    latency.push_back(ms);
    tenant_latency[static_cast<size_t>(schedule[i].tenant)].push_back(ms);
    if (schedule[i].tenant == 0 && schedule[i].at >= last_publish) {
      last_generation_latency.push_back(ms);
    }
    if (spec.limit_s == 0 || ms <= spec.limit_s * 1e3) ++in_limit;
  }
  report->Set("stage.client_p50_ms", Percentile(last_generation_latency, 50),
              "ms");
  const int64_t wrong = out.torn + out.nonfinite;
  report->attempted = offered;
  report->failed = out.failed + wrong;
  report->Set("p50_ms", Percentile(latency, 50), "ms");
  report->Set("goodput_per_s", static_cast<double>(in_limit) / options.seconds,
              "1/s");
  SetTail(report, latency, 95, "p95");
  SetTail(report, latency, 99, "p99");
  SetTail(report, latency, 99.9, "p999");
  report->Set("slo_frac", static_cast<double>(in_limit) / offered, "fraction");
  report->Set("fail_frac", static_cast<double>(report->failed) / offered,
              "fraction");
  report->Set("client.offered", static_cast<double>(offered), "count");
  report->Set("client.ok", static_cast<double>(out.ok), "count");
  report->Set("client.failed", static_cast<double>(report->failed), "count");
  report->Set("client.shed", static_cast<double>(out.shed + out.expired),
              "count");
  report->Set("client.torn", static_cast<double>(out.torn), "count");
  report->Set("client.late_p50_ms", Percentile(out.late_ms, 50), "ms");
  const double late_p99 = Percentile(out.late_ms, 99);
  report->Set("client.late_p99_ms", late_p99, "ms");
  report->valid = late_p99 <= kLateLimitMs;
  report->Set("registry.submit_us.p50", Percentile(out.submit_us, 50), "us");
  report->Set("registry.submit_us.p99", Percentile(out.submit_us, 99), "us");
  for (size_t t = 0; t < tenants; ++t) {
    report->Set("tenant." + names[t] + ".p50_ms",
                Percentile(tenant_latency[t], 50), "ms");
  }
  if (!out.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", out.first_error.c_str());
  }

  // Registry and batcher counters, summed over every generation served.
  int64_t reloads = 0;
  int64_t reload_failures = 0;
  for (const serve::ModelInfo& info : registry->Models()) {
    reloads += info.reloads;
    reload_failures += info.reload_failures;
  }
  report->Set("registry.reloads", static_cast<double>(reloads), "count");
  report->Set("registry.reload_failures", static_cast<double>(reload_failures),
              "count");
  int64_t batches = 0, rows = 0, full = 0, brownout = 0, shed_overload = 0,
          expired = 0, past_deadline = 0, nonfinite_answers = 0;
  std::vector<int64_t> tenant0_hist(static_cast<size_t>(kMaxBatch), 0);
  for (size_t t = 0; t < tenants; ++t) {
    for (const auto& model : load.generations()[t]) {
      const serve::BatcherStats s = model->batcher()->Stats();
      batches += s.batches;
      brownout += s.brownout_batches;
      shed_overload += s.shed_overload;
      expired += s.expired;
      past_deadline += s.executed_past_deadline;
      nonfinite_answers += s.nonfinite_answers;
      for (size_t k = 0; k < s.batch_size_histogram.size(); ++k) {
        rows += s.batch_size_histogram[k] * static_cast<int64_t>(k + 1);
        if (t == 0) tenant0_hist[k] += s.batch_size_histogram[k];
      }
      full += s.batch_size_histogram.back();
    }
  }
  report->Set("batcher.mean_batch",
              batches > 0 ? static_cast<double>(rows) / batches : 0, "rows");
  report->Set("batcher.full_batch_frac",
              batches > 0 ? static_cast<double>(full) / batches : 0,
              "fraction");
  report->Set("batcher.brownout_batches", static_cast<double>(brownout),
              "count");
  report->Set("batcher.shed_overload", static_cast<double>(shed_overload),
              "count");
  report->Set("batcher.expired", static_cast<double>(expired), "count");
  report->Set("batcher.executed_past_deadline",
              static_cast<double>(past_deadline), "count");
  report->Set("batcher.nonfinite_answers",
              static_cast<double>(nonfinite_answers), "count");
  // Latency percentiles cannot be summed across generations: the batcher
  // figures below are tenant 0's serving generation at the end of the load.
  const serve::BatcherStats last =
      load.generations()[0].back()->batcher()->Stats();
  report->Set("batcher.server_p50_ms", last.p50_latency_seconds * 1e3, "ms");
  report->Set("batcher.cost_ewma_ms", last.cost_ewma_seconds * 1e3, "ms");
  int64_t total = 0;
  for (int64_t n : tenant0_hist) total += n;
  int64_t cumulative = 0;
  for (size_t k = 0; k < tenant0_hist.size(); ++k) {
    cumulative += tenant0_hist[k];
    if (2 * cumulative >= total) {
      *median_batch = static_cast<int64_t>(k + 1);
      break;
    }
  }
  report->Set("storage_pool.heap_allocs_per_req",
              static_cast<double>(pool.heap_allocs) / offered, "count");
  report->Set("storage_pool.bytes_pooled_mb",
              static_cast<double>(pool.bytes_pooled) / (1 << 20), "MiB");

  // Reload latency: rename(2) to the first answer equal to the new
  // generation's reference.
  if (spec.publishes > 0) {
    std::vector<double> reload_s;
    for (size_t k = 0; k < load.rename_times().size(); ++k) {
      const Clock::time_point seen = out.first_seen[k + 1];
      if (seen == Clock::time_point::max()) {
        report->Violation("generation " + std::to_string(k + 1) +
                          " never answered");
        continue;
      }
      reload_s.push_back(Seconds(seen - load.rename_times()[k]));
      std::fprintf(stderr, "publish %zu: first new answer after %.3f s\n",
                   k + 1, reload_s.back());
    }
    report->Set("reload_s", Median(reload_s), "s");
    if (reloads != spec.publishes) {
      report->Violation("expected " + std::to_string(spec.publishes) +
                        " reloads, registry reports " +
                        std::to_string(reloads));
    }
    if (reload_failures != 0) report->Violation("a reload failed");
  }

  if (out.ok == 0) report->Violation("no request was answered");
  if (out.failed > 0) {
    report->Violation(std::to_string(out.failed) + " request(s) failed: " +
                      out.first_error);
  }
  if (out.torn > 0) {
    report->Violation(std::to_string(out.torn) +
                      " answer(s) matched no reference (torn)");
  }
  if (out.nonfinite > 0) report->Violation("non-finite answers delivered");
  if (past_deadline != 0) report->Violation("requests executed past deadline");
  if (nonfinite_answers != 0) {
    report->Violation("the model produced non-finite forecasts");
  }

  registry->Shutdown();
  return Status::OK();
}

}  // namespace lipf_bench

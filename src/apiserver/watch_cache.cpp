#include "apiserver/watch_cache.h"

namespace vc::apiserver {

namespace {
// Events drained per strand pass: bounds how long one pass holds the cache
// lock and how long readers wait for a notify.
constexpr size_t kApplyBatch = 256;
constexpr std::string_view kRegistryRoot = "/registry/";
}  // namespace

WatchCache::WatchCache(kv::KvStore* store, std::shared_ptr<DecodeCache> decode,
                       std::shared_ptr<Executor> exec, size_t watch_buffer)
    : store_(store),
      decode_(std::move(decode)),
      exec_(std::move(exec)),
      watch_buffer_(watch_buffer) {
  Rebuild();  // synchronous so the first read after construction can hit
}

std::string_view WatchCache::KindPrefixOf(std::string_view key) {
  if (key.substr(0, kRegistryRoot.size()) != kRegistryRoot) return {};
  const size_t end = key.find('/', kRegistryRoot.size());
  return end == std::string_view::npos ? std::string_view{} : key.substr(0, end + 1);
}

bool WatchCache::healthy() const {
  std::lock_guard<std::mutex> l(mu_);
  return healthy_;
}

int64_t WatchCache::revision() const {
  std::lock_guard<std::mutex> l(mu_);
  return revision_;
}

size_t WatchCache::kinds() const {
  std::lock_guard<std::mutex> l(mu_);
  return kinds_.size();
}

bool WatchCache::stopping() const {
  std::lock_guard<std::mutex> l(mu_);
  return stopping_;
}

void WatchCache::TestOnRebuildWatchCreated(std::function<void()> fn) {
  std::lock_guard<std::mutex> l(mu_);
  test_rebuild_hook_ = std::move(fn);
}

void WatchCache::BreakWatch() {
  std::shared_ptr<kv::WatchChannel> w;
  {
    std::lock_guard<std::mutex> l(mu_);
    w = watch_;
  }
  if (w) w->CloseGone();  // its signal schedules the strand, which rebuilds
}

void WatchCache::PrimeLocked(const std::string& kind_prefix, Kind& k) {
  kv::ListResult snap = store_->List(kind_prefix);
  std::map<std::string, Slot> items;
  for (const kv::Entry& e : snap.entries) {
    Result<std::shared_ptr<const void>> obj =
        k.decode(*decode_, e.mod_revision, e.value, e.mod_revision);
    if (!obj.ok()) continue;  // malformed blob: leave it to the store path
    items.emplace(e.key, Slot{std::move(*obj), e.value, e.mod_revision});
  }
  k.items.swap(items);
  k.floor = snap.revision;
}

bool WatchCache::WaitFreshLocked(std::unique_lock<std::mutex>& l,
                                 const std::string& kind_prefix, const Kind& k,
                                 int64_t target, Duration timeout) {
  auto fresh = [&] { return !healthy_ || std::max(revision_, k.floor) >= target; };
  if (!fresh()) {
    // Reconcilers read from pool tasks: only an actual wait is a blocking
    // region (an already-fresh read must not make the pool spawn a spare).
    l.unlock();
    BlockingRegion blocking;
    l.lock();
    cv_.wait_for(l, timeout, fresh);
  }
  if (!healthy_) return false;
  const int64_t served = std::max(revision_, k.floor);
  if (served < target) return false;
  // Still under mu_: `served` is exactly what this read answers from. The
  // checker's read-your-write pass asserts revision >= arg (target).
  trace::Emit(trace::Component::kWatchCache, trace::Verb::kCacheServe,
              trace::CurrentTraceId(), served, kind_prefix, static_cast<uint64_t>(target));
  return true;
}

WatchCache::Kind* WatchCache::FindKindLocked(std::string_view key) {
  const std::string_view prefix = KindPrefixOf(key);
  if (prefix.empty()) return nullptr;
  auto it = kinds_.find(prefix);
  return it == kinds_.end() ? nullptr : &it->second;
}

bool WatchCache::Rebuild() {
  std::shared_ptr<kv::WatchChannel> old;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> l(mu_);
    old = std::move(watch_);
    healthy_ = false;
    hook = test_rebuild_hook_;
  }
  if (old) {
    old->SetSignal(nullptr);
    old->Cancel();
  }
  // One unfiltered watch over the whole keyspace, from the current fence. A
  // compaction racing past the fence just means trying again from the new one.
  kv::WatchParams params;
  Result<std::shared_ptr<kv::WatchChannel>> ch = GoneError("not armed");
  while (ch.status().IsGone()) {
    params.from_revision = store_->RevisionFence();
    params.buffer_capacity = watch_buffer_;
    ch = store_->Watch("", params);
  }
  if (!ch.ok()) return false;  // store shut down; stay unhealthy
  if (hook) hook();
  {
    std::lock_guard<std::mutex> l(mu_);
    if (stopping_) {
      // Stop() already ran: never publish, so no signal outlives the cache.
      (*ch)->Cancel();
      return false;
    }
    watch_ = *ch;
    revision_ = params.from_revision;
    for (auto& [prefix, kind] : kinds_) PrimeLocked(prefix, kind);
    healthy_ = true;
    // Installed in the same critical section that published the watch and
    // checked stopping_: a Stop() after it sees watch_ and clears this signal.
    (*ch)->SetSignal([this] { ScheduleApply(); });
  }
  cv_.notify_all();
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  ScheduleApply();  // picks up anything buffered before the signal existed
  return true;
}

void WatchCache::ScheduleApply() {
  std::lock_guard<std::mutex> l(strand_mu_);
  if (stopping_ || scheduled_) return;
  if (running_) {
    rerun_ = true;  // the running pass drains it: no extra task
    return;
  }
  scheduled_ = true;
  apply_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (!exec_->Submit([this] { RunApply(); })) scheduled_ = false;
}

void WatchCache::RunApply() {
  {
    std::lock_guard<std::mutex> l(strand_mu_);
    scheduled_ = false;
    if (stopping_) {
      strand_cv_.notify_all();
      return;
    }
    // ScheduleApply never submits while a pass runs, so no pass is running.
    running_ = true;
    rerun_ = false;
  }
  for (;;) {
    const bool more = ApplyBatch();
    std::lock_guard<std::mutex> l(strand_mu_);
    if (stopping_ || (!more && !rerun_)) {
      running_ = false;
      strand_cv_.notify_all();
      return;
    }
    rerun_ = false;
  }
}

bool WatchCache::ApplyBatch() {
  std::shared_ptr<kv::WatchChannel> w;
  {
    std::lock_guard<std::mutex> l(mu_);
    w = watch_;
  }
  if (!w) {
    // Watch previously broke. Rebuild unless the store is gone for good.
    if (store_->IsShutdown()) return false;
    Rebuild();
    return false;  // Rebuild's ScheduleApply set rerun_ for events buffered since
  }
  std::vector<kv::Event> batch;
  bool dead = false;
  while (batch.size() < kApplyBatch) {
    std::optional<kv::Event> e = w->TryNext();
    if (!e) {
      dead = !w->ok();
      break;
    }
    batch.push_back(std::move(*e));
  }
  if (!batch.empty()) Apply(batch);
  if (dead) {
    // Dead channel (overflow / BreakWatches / shutdown): drop it and let the
    // next pass rebuild from a fresh snapshot.
    w->SetSignal(nullptr);
    {
      std::lock_guard<std::mutex> l(mu_);
      if (watch_ == w) watch_.reset();
      healthy_ = false;
    }
    cv_.notify_all();
    return true;
  }
  return batch.size() == kApplyBatch;
}

void WatchCache::Apply(std::vector<kv::Event>& batch) {
  // Pass 1: decode outside the lock the puts of kinds registered right now.
  // Kind entries are never erased, and `decode` never changes after
  // registration, so the pointers stay valid once mu_ is dropped.
  std::vector<std::shared_ptr<const void>> decoded(batch.size());
  std::vector<DecodeFn> decoders(batch.size(), nullptr);
  {
    std::lock_guard<std::mutex> l(mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].type != kv::EventType::kPut) continue;
      if (Kind* k = FindKindLocked(batch[i].key)) decoders[i] = k->decode;
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (decoders[i] == nullptr) continue;
    const kv::Event& e = batch[i];
    Result<std::shared_ptr<const void>> obj =
        decoders[i](*decode_, e.revision, e.value, e.revision);
    if (obj.ok()) decoded[i] = std::move(*obj);
  }
  // Pass 2: apply in revision order. A kind registered since pass 1 has its
  // floor at or above everything applied so far; its puts above the floor
  // are decoded here.
  {
    std::lock_guard<std::mutex> l(mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      kv::Event& e = batch[i];
      revision_ = e.revision;
      Kind* k = FindKindLocked(e.key);
      if (k == nullptr || e.revision <= k->floor) continue;
      if (e.type == kv::EventType::kPut) {
        if (decoders[i] == nullptr) {
          Result<std::shared_ptr<const void>> obj =
              k->decode(*decode_, e.revision, e.value, e.revision);
          if (obj.ok()) decoded[i] = std::move(*obj);
        }
        if (decoded[i]) {
          k->items[e.key] = Slot{std::move(decoded[i]), std::move(e.value), e.revision};
        } else {
          k->items.erase(e.key);  // malformed: don't serve a stale decode
        }
      } else {
        k->items.erase(e.key);
      }
      trace::Emit(trace::Component::kWatchCache, trace::Verb::kCacheApply, e.trace,
                  e.revision, e.key);
    }
  }
  cv_.notify_all();
}

void WatchCache::Stop() {
  std::shared_ptr<kv::WatchChannel> w;
  {
    std::lock_guard<std::mutex> l(mu_);
    {
      std::lock_guard<std::mutex> sl(strand_mu_);
      stopping_ = true;
    }
    w = std::move(watch_);
    healthy_ = false;
    // Under mu_, the lock Rebuild publishes and installs under: either the
    // rebuild's signal is already on `w` (cleared here, which also blocks out
    // in-flight calls) or that rebuild will see stopping_ and never install.
    if (w) w->SetSignal(nullptr);
  }
  if (w) w->Cancel();
  cv_.notify_all();
  BlockingRegion blocking;  // the apply strand may need a pool slot to finish
  std::unique_lock<std::mutex> l(strand_mu_);
  strand_cv_.wait(l, [this] { return !scheduled_ && !running_; });
}

}  // namespace vc::apiserver

// The apiserver read-path cache — kube-apiserver's watchCache reproduced over
// our kv store.
//
//   * DecodeCache — a process-wide memoized decode keyed by store revision.
//     One write produces one blob at one revision; every consumer that needs
//     the decoded form (watch cache, TypedWatch deliveries to N informers,
//     namespace admission) shares a single parse of it.
//   * WatchCache — ONE cache per apiserver front end, maintained from ONE
//     unfiltered watch on the store's whole keyspace. Every store revision
//     reaches it as a data event, so its revision advances in lockstep with
//     every write without bookmarks. A single apply strand routes each event
//     by key prefix (/registry/<Kind>/) into the decoded map of its kind;
//     kinds nobody has read through the cache only advance the revision and
//     are never decoded. Serves Get and unpaged selector List with zero JSON
//     decode bytes; the apiserver falls back to the store for paged /
//     continue-token reads and whenever the cache is unhealthy or stale.
//
// Freshness contract (kube's waitUntilFreshAndBlock): a read first asks the
// store for its current revision, then blocks briefly until the cache has
// applied at least that revision. A read that waited successfully is
// read-your-write consistent with any Put that returned before the read
// began. If the cache cannot catch up in time the caller serves from the
// store instead — the cache is an accelerator, never a correctness risk.
//
// Kind registration floor: the first read of a kind primes its map from a
// store snapshot at revision L (under the cache lock, so the strand cannot be
// past L), and the strand ignores that kind's events at revisions <= L. The
// kind's map is then exactly the store's state at max(revision, L), which is
// the revision its reads are served (and traced) at.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/codec.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/strings.h"
#include "common/trace.h"
#include "kv/kvstore.h"

namespace vc::apiserver {

// Memoized decode keyed by signed store revision: +rev addresses the value
// blob of the event/entry at rev, -rev the prev_value blob of the event at
// rev. Revisions are store-wide unique, so a key names exactly one blob (the
// kind tag is still checked to make collisions impossible, not just
// unlikely). Bounded FIFO eviction; hit/miss counters for the benches.
class DecodeCache {
 public:
  explicit DecodeCache(size_t capacity = 8192) : capacity_(capacity) {}

  // Returns the decoded object for `key`, parsing (and caching) `blob` on a
  // miss. stamp_rv is written into meta.resource_version of a freshly decoded
  // object (never stored in the blob itself).
  template <typename T>
  Result<std::shared_ptr<const T>> GetOrDecode(int64_t key, const kv::Blob& blob,
                                               int64_t stamp_rv) {
    {
      std::lock_guard<std::mutex> l(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && std::strcmp(it->second.kind, T::kKind) == 0) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return std::static_pointer_cast<const T>(it->second.obj);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    decoded_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
    Result<T> obj = api::Decode<T>(blob.str());
    if (!obj.ok()) return obj.status();
    obj->meta.resource_version = stamp_rv;
    auto p = std::make_shared<const T>(std::move(*obj));
    std::lock_guard<std::mutex> l(mu_);
    auto [it, inserted] = map_.emplace(key, Slot{T::kKind, p});
    if (inserted) {
      order_.push_back(key);
      while (order_.size() > capacity_) {
        map_.erase(order_.front());
        order_.pop_front();
      }
    }
    return p;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Blob bytes actually parsed (each unique blob counted once, not per reader).
  uint64_t decoded_bytes() const { return decoded_bytes_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    const char* kind;
    std::shared_ptr<const void> obj;
  };

  const size_t capacity_;
  std::mutex mu_;
  std::map<int64_t, Slot> map_;
  std::deque<int64_t> order_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> decoded_bytes_{0};
};

class WatchCache {
 public:
  WatchCache(kv::KvStore* store, std::shared_ptr<DecodeCache> decode,
             std::shared_ptr<Executor> exec, size_t watch_buffer = 1 << 16);
  ~WatchCache() { Stop(); }

  WatchCache(const WatchCache&) = delete;
  WatchCache& operator=(const WatchCache&) = delete;

  // The routing rule: a key's kind prefix is everything up to the slash that
  // ends /registry/<Kind>/ (empty for keys outside that layout).
  static std::string_view KindPrefixOf(std::string_view key);

  bool healthy() const;
  int64_t revision() const;
  size_t kinds() const;
  uint64_t rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }
  // Apply tasks submitted to the executor: at most one per burst of commits,
  // however many kinds are cached.
  uint64_t apply_tasks() const { return apply_tasks_.load(std::memory_order_relaxed); }

  // Breaks the cache's store watch with Gone; the strand rebuilds from a
  // fresh snapshot (front-end Restart over a shared store).
  void BreakWatch();

  // Fresh read of one key of the kind under kind_prefix (registering the kind
  // on first use). Unavailable = cache cannot serve (fall back to the store);
  // NotFound = authoritative "does not exist as of a fresh revision".
  // `target` must be a PUBLISHED revision — the store's RevisionFence(), not
  // its minted counter: with the sharded store a commit exists between minting
  // and publication, and waiting on an unpublished revision would stall reads
  // behind a write that has not reached the watch stream yet. RevisionFence()
  // also guarantees read-your-write, because a mutation only returns after its
  // own revision publishes.
  template <typename T>
  Result<std::shared_ptr<const T>> GetFresh(const std::string& kind_prefix,
                                            const std::string& key, int64_t target,
                                            Duration timeout) {
    std::unique_lock<std::mutex> l(mu_);
    Kind& k = KindLocked<T>(kind_prefix);
    if (!WaitFreshLocked(l, kind_prefix, k, target, timeout)) {
      return UnavailableError("watch cache not fresh");
    }
    auto it = k.items.find(key);
    if (it == k.items.end()) return NotFoundError("not in watch cache");
    return std::static_pointer_cast<const T>(it->second.obj);
  }

  // Fresh snapshot of every item under key_prefix, in key order, taken under
  // one lock hold (consistent at *revision_out). The snapshot holds shared
  // pointers only; fn runs after the lock is released, so copying a large
  // list out never stalls the strand or other kinds' reads. Returns false
  // when the cache cannot serve. fn: void(const T& obj, const kv::Blob& blob).
  template <typename T, typename Fn>
  bool SnapshotScan(const std::string& kind_prefix, const std::string& key_prefix,
                    int64_t target, Duration timeout, int64_t* revision_out, Fn&& fn) {
    std::vector<Slot> snap;
    {
      std::unique_lock<std::mutex> l(mu_);
      Kind& k = KindLocked<T>(kind_prefix);
      if (!WaitFreshLocked(l, kind_prefix, k, target, timeout)) return false;
      *revision_out = std::max(revision_, k.floor);
      for (auto it = k.items.lower_bound(key_prefix); it != k.items.end(); ++it) {
        if (!StartsWith(it->first, key_prefix)) break;
        snap.push_back(it->second);
      }
    }
    for (const Slot& s : snap) fn(*static_cast<const T*>(s.obj.get()), s.blob);
    return true;
  }

  // Test hook: runs on the rebuild path after the new store watch exists and
  // before it is published — the window in which a concurrent Stop() once
  // left a dangling signal on the channel.
  void TestOnRebuildWatchCreated(std::function<void()> fn);
  // True once teardown has begun (test hooks poll it).
  bool stopping() const;

 private:
  using DecodeFn = Result<std::shared_ptr<const void>> (*)(DecodeCache&, int64_t key,
                                                           const kv::Blob&, int64_t rev);
  struct Slot {
    std::shared_ptr<const void> obj;  // const T, resource_version = mod_revision
    kv::Blob blob;                    // raw encoding, for field-selector scans
    int64_t mod_revision = 0;
  };
  struct Kind {
    DecodeFn decode = nullptr;  // set at registration, never changed
    std::map<std::string, Slot> items;
    // Registration floor: the snapshot revision the map was primed at; the
    // strand ignores this kind's events at or below it.
    int64_t floor = 0;
  };

  template <typename T>
  static Result<std::shared_ptr<const void>> DecodeAs(DecodeCache& dc, int64_t key,
                                                      const kv::Blob& blob, int64_t rev) {
    Result<std::shared_ptr<const T>> obj = dc.GetOrDecode<T>(key, blob, rev);
    if (!obj.ok()) return obj.status();
    return std::shared_ptr<const void>(std::move(*obj));
  }

  // Returns the kind's entry, registering and priming it on first use. mu_ held.
  template <typename T>
  Kind& KindLocked(const std::string& kind_prefix) {
    auto it = kinds_.find(kind_prefix);
    if (it != kinds_.end()) return it->second;
    Kind& k = kinds_[kind_prefix];
    k.decode = &DecodeAs<T>;
    PrimeLocked(kind_prefix, k);
    return k;
  }

  // (Re-)loads one kind's map from a store snapshot and sets its floor. mu_
  // held: the strand cannot apply past the snapshot while it is taken.
  void PrimeLocked(const std::string& kind_prefix, Kind& k);
  // Blocks (real time, bounded) until the kind is served at >= target and
  // emits the kCacheServe record the history checker certifies. mu_ held.
  bool WaitFreshLocked(std::unique_lock<std::mutex>& l, const std::string& kind_prefix,
                       const Kind& k, int64_t target, Duration timeout);
  Kind* FindKindLocked(std::string_view key);

  // Arms a fresh store watch and re-primes every registered kind. Runs in the
  // constructor and on the strand after the watch breaks (compaction overrun,
  // BreakWatches, Restart) — the one rebuild path.
  bool Rebuild();
  void ScheduleApply();
  void RunApply();
  // Drains and applies a bounded batch. Returns true when more immediate work
  // remains.
  bool ApplyBatch();
  void Apply(std::vector<kv::Event>& batch);
  void Stop();

  kv::KvStore* store_;
  std::shared_ptr<DecodeCache> decode_;
  std::shared_ptr<Executor> exec_;
  const size_t watch_buffer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Kind, std::less<>> kinds_;
  std::shared_ptr<kv::WatchChannel> watch_;
  int64_t revision_ = 0;
  bool healthy_ = false;
  // Written under mu_ AND strand_mu_, read under either: Rebuild checks it
  // under mu_ in the same critical section that publishes the watch and
  // installs its signal, so Stop() either sees that watch or stops the
  // rebuild from publishing it.
  bool stopping_ = false;
  std::function<void()> test_rebuild_hook_;  // guarded by mu_

  // Apply strand: at most one RunApply active; Stop() waits for it. The
  // watch signal only ever takes strand_mu_, never mu_.
  std::mutex strand_mu_;
  std::condition_variable strand_cv_;
  bool scheduled_ = false;
  bool running_ = false;
  bool rerun_ = false;

  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> apply_tasks_{0};
};

}  // namespace vc::apiserver

// Tests for the shared reconciler runtime (controllers/runtime.h): backoff
// policy, async completions, promote-or-drop dedup between the delayed and
// ready sets, drain-on-stop with in-flight retries, and the uniform metrics
// block — plus teardown of the scheduler and kubelet loops it hosts. Runs
// under tsan and asan via the `concurrency` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "controllers/runtime.h"
#include "kubelet/kubelet.h"
#include "scheduler/scheduler.h"

namespace vc::controllers {
namespace {

Reconciler::Options Opts(const std::string& name, int workers = 1) {
  Reconciler::Options o;
  o.name = name;
  o.workers = workers;
  return o;
}

// Spins until pred() holds or the deadline passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout = Seconds(5)) {
  Stopwatch sw(RealClock::Get());
  while (!pred()) {
    if (sw.Elapsed() > timeout) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ItemBackoffTest, ExponentialGrowthAndCap) {
  ItemBackoff b(Millis(10), Millis(80));
  EXPECT_EQ(b.Next("k"), Millis(10));
  EXPECT_EQ(b.Next("k"), Millis(20));
  EXPECT_EQ(b.Next("k"), Millis(40));
  EXPECT_EQ(b.Next("k"), Millis(80));
  EXPECT_EQ(b.Next("k"), Millis(80));  // capped
  EXPECT_EQ(b.Failures("k"), 5);
  b.Forget("k");
  EXPECT_EQ(b.Failures("k"), 0);
  EXPECT_EQ(b.Next("k"), Millis(10));
}

TEST(ItemBackoffTest, IndependentPerKey) {
  ItemBackoff b(Millis(10), Seconds(1));
  b.Next("a");
  b.Next("a");
  EXPECT_EQ(b.Next("b"), Millis(10));
}

TEST(ReconcilerTest, ReconcilesEnqueuedKeys) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("basic", 2), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return true;
               }));
  r.Start();
  for (int i = 0; i < 10; ++i) r.Enqueue("t", "k" + std::to_string(i));
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 10; }));
  r.Stop();
  EXPECT_EQ(runs.load(), 10);
  EXPECT_GE(r.reconciles(), 10u);
}

TEST(ReconcilerTest, RetryBacksOffUntilSuccess) {
  std::atomic<int> attempts{0};
  Reconciler r(Opts("retry"), Reconciler::SyncFn([&](const std::string&) {
                 return attempts.fetch_add(1) + 1 >= 3;
               }));
  r.Start();
  r.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return attempts.load() >= 3; }));
  r.Stop();
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(r.retries(), 2u);
  EXPECT_GE(r.reconciles(), 3u);
}

TEST(ReconcilerTest, RequeueAfterRunsAgainWithoutRetryCount) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("requeue"),
               [&](const Reconciler::Item&, Reconciler::Completion done) {
                 done(runs.fetch_add(1) == 0
                          ? ReconcileResult::RequeueAfter(Millis(5))
                          : ReconcileResult::Done());
               });
  r.Start();
  r.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 2; }));
  r.Stop();
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(r.retries(), 0u);  // explicit requeue is not a retry
}

// The delaying-queue contract of EnqueueAfter: a delayed add runs no earlier
// than its delay, and an immediate Enqueue is not held up behind it.
TEST(DelayingQueueTest, AddAfterDelaysDelivery) {
  std::mutex mu;
  std::vector<std::pair<std::string, TimePoint>> runs;
  Reconciler r(Opts("delay"), Reconciler::SyncFn([&](const std::string& key) {
                 std::lock_guard<std::mutex> l(mu);
                 runs.emplace_back(key, RealClock::Get()->Now());
                 return true;
               }));
  r.Start();
  const TimePoint start = RealClock::Get()->Now();
  r.EnqueueAfter("t", "later", Millis(50));
  r.Enqueue("t", "now");
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 2; }));
  r.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first, "now");
  EXPECT_EQ(runs[1].first, "later");
  EXPECT_GE(runs[1].second - start, Millis(50));
}

// A zero delay runs at once, ahead of a long-delayed add, which Stop() then
// drops without running.
TEST(DelayingQueueTest, ZeroDelayIsImmediate) {
  std::mutex mu;
  std::vector<std::string> runs;
  Reconciler r(Opts("zero-delay"), Reconciler::SyncFn([&](const std::string& key) {
                 std::lock_guard<std::mutex> l(mu);
                 runs.push_back(key);
                 return true;
               }));
  r.Start();
  r.EnqueueAfter("t", "later", Seconds(30));
  r.EnqueueAfter("t", "x", Duration::zero());
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 1; }));
  r.Stop();
  std::lock_guard<std::mutex> l(mu);
  EXPECT_EQ(runs, std::vector<std::string>{"x"});
}

// The rate-limited retry path: a failed reconcile comes back no earlier than
// the backoff base, and success ends the retries.
TEST(RateLimitingQueueTest, RetriesComeBackWithBackoff) {
  std::mutex mu;
  std::vector<TimePoint> attempts;
  Reconciler::Options o = Opts("rate-limited");
  o.backoff_base = Millis(5);
  o.backoff_max = Millis(100);
  Reconciler r(o, Reconciler::SyncFn([&](const std::string&) {
                 std::lock_guard<std::mutex> l(mu);
                 attempts.push_back(RealClock::Get()->Now());
                 return attempts.size() >= 2;  // fail once, then succeed
               }));
  r.Start();
  r.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // no 3rd run
  r.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_GE(attempts[1] - attempts[0], Millis(5));
  EXPECT_EQ(r.retries(), 1u);
}

// An asynchronous completion (invoked from another thread after the reconcile
// function returned) holds the worker slot until it fires.
TEST(ReconcilerTest, AsyncCompletionHoldsSlot) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Reconciler::Completion> pending;
  Reconciler r(Opts("async", 1),
               [&](const Reconciler::Item&, Reconciler::Completion done) {
                 std::lock_guard<std::mutex> l(mu);
                 pending.push_back(std::move(done));
                 cv.notify_all();
               });
  r.Start();
  r.Enqueue("t", "a");
  r.Enqueue("t", "b");
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return pending.size() == 1; });
  }
  // One worker, completion not yet invoked: "b" must still be queued.
  EXPECT_EQ(r.Len(), 1u);
  EXPECT_EQ(r.InFlight(), 1);
  {
    std::lock_guard<std::mutex> l(mu);
    pending.front()(ReconcileResult::Done());
    pending.clear();
  }
  EXPECT_EQ(r.reconciles(), 1u);
  // Releasing "a"'s slot lets "b" dispatch; complete it too.
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return pending.size() == 1; });
    pending.front()(ReconcileResult::Done());
    pending.clear();
  }
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 2; }));
  r.Stop();
}

// Regression (promote): EnqueueAfter followed by an immediate Enqueue of the
// same key runs the key ONCE — the delayed entry is promoted, and its timer
// must not produce a second run when it fires.
TEST(ReconcilerTest, EnqueuepromotesPendingDelayedAdd) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("promote"), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return true;
               }));
  r.Start();
  r.EnqueueAfter("t", "k", Millis(50));
  r.Enqueue("t", "k");  // supersedes the delayed add
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // past deadline
  EXPECT_EQ(runs.load(), 1) << "stale delayed timer re-ran a promoted key";
  r.Stop();
}

// Regression (teardown): a delayed add superseded by an immediate Enqueue or
// by an earlier EnqueueAfter leaves no timer behind. Stop() only sweeps the
// delayed adds still pending, so a superseded timer that merely no-op'd when
// it fired would touch a destroyed Reconciler (asan: heap-use-after-free).
TEST(ReconcilerTest, SupersededDelayedAddsDieWithTheReconciler) {
  std::atomic<int> runs{0};
  auto r = std::make_unique<Reconciler>(
      Opts("superseded"), Reconciler::SyncFn([&](const std::string&) {
        runs.fetch_add(1);
        return true;
      }));
  r->Start();
  r->EnqueueAfter("t", "promoted", Millis(60));
  r->Enqueue("t", "promoted");
  r->EnqueueAfter("t", "rearmed", Millis(60));
  r->EnqueueAfter("t", "rearmed", Millis(1));
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 2; }));
  r->Stop();
  r.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // past 60 ms
  EXPECT_EQ(runs.load(), 2);
}

// Regression (drop): EnqueueAfter of a key already sitting in the ready set is
// dropped — the queued run covers it.
TEST(ReconcilerTest, EnqueueAfterDroppedWhenAlreadyQueued) {
  std::atomic<int> k_runs{0};
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  Reconciler r(Opts("drop", 1), Reconciler::SyncFn([&](const std::string& key) {
                 if (key == "blocker") {
                   blocker_started.store(true);
                   while (!release.load()) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   }
                 } else {
                   k_runs.fetch_add(1);
                 }
                 return true;
               }));
  r.Start();
  r.Enqueue("t", "blocker");
  ASSERT_TRUE(WaitFor([&] { return blocker_started.load(); }));
  r.Enqueue("t", "k");                // queued behind the blocker
  r.EnqueueAfter("t", "k", Millis(5));  // dropped: already queued
  release.store(true);
  EXPECT_TRUE(WaitFor([&] { return k_runs.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(k_runs.load(), 1) << "delayed duplicate ran a queued key twice";
  r.Stop();
}

// Stop while reconciles are failing (and therefore arming backoff timers)
// must drain cleanly: no hang, no use-after-stop reconcile, timers swept.
TEST(ReconcilerTest, StopWithInflightRetriesDrainsCleanly) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("stop-drain", 4), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return false;  // always retry
               }));
  r.Start();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 25; ++i) {
      r.Enqueue("t" + std::to_string(t), "k" + std::to_string(i));
    }
  }
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 20; }));
  r.Stop();
  const int after = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runs.load(), after) << "reconcile ran after Stop() returned";
  EXPECT_EQ(r.InFlight(), 0);
}

TEST(ReconcilerTest, StopIsIdempotentAndStopsFreshRuntime) {
  Reconciler r(Opts("idle"),
               Reconciler::SyncFn([](const std::string&) { return true; }));
  r.Stop();  // never started
  r.Start();
  r.Stop();
  r.Stop();
}

TEST(ReconcilerTest, KeyTenantMapsSingleArgEnqueue) {
  std::mutex mu;
  std::vector<std::string> tenants;
  Reconciler::Options o = Opts("keyed", 1);
  o.key_tenant = NamespacedKeyTenant(
      [](const std::string& ns) { return "tenant-of-" + ns; });
  Reconciler r(std::move(o),
               [&](const Reconciler::Item& item, Reconciler::Completion done) {
                 {
                   std::lock_guard<std::mutex> l(mu);
                   tenants.push_back(item.tenant);
                 }
                 done(ReconcileResult::Done());
               });
  r.Start();
  r.Enqueue("ns1/pod-a");
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 1; }));
  r.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0], "tenant-of-ns1");
}

// The uniform metrics block: every runtime-hosted loop is visible in one
// Collect() of the shared registry.
TEST(ReconcilerTest, MetricsBlocksVisibleInOneDump) {
  MetricsRegistry reg;
  Reconciler::Options oa = Opts("loop-a");
  oa.registry = &reg;
  Reconciler::Options ob = Opts("loop-b");
  ob.registry = &reg;
  Reconciler a(std::move(oa),
               Reconciler::SyncFn([](const std::string&) { return true; }));
  Reconciler b(std::move(ob), Reconciler::SyncFn([&](const std::string&) {
                 return false;  // retried
               }));
  a.Start();
  b.Start();
  a.Enqueue("t", "k");
  b.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return a.reconciles() >= 1 && b.retries() >= 1; }));
  std::map<std::string, double> m = reg.Collect();
  for (const char* loop : {"loop-a", "loop-b"}) {
    for (const char* metric : {"queue_depth", "in_flight", "reconciles",
                               "retries", "queue_latency_count",
                               "reconcile_latency_count"}) {
      EXPECT_EQ(m.count(std::string(loop) + "." + metric), 1u)
          << loop << "." << metric << " missing from dump";
    }
  }
  EXPECT_GE(m["loop-a.reconciles"], 1.0);
  EXPECT_GE(m["loop-b.retries"], 1.0);
  EXPECT_GE(m["loop-a.queue_latency_count"], 1.0);
  b.Stop();
  a.Stop();
}

// Same-name loops get uniquified blocks instead of clobbering each other.
TEST(ReconcilerTest, DuplicateNamesAreUniquified) {
  MetricsRegistry reg;
  Reconciler::Options o1 = Opts("dup");
  o1.registry = &reg;
  Reconciler::Options o2 = Opts("dup");
  o2.registry = &reg;
  Reconciler r1(std::move(o1),
                Reconciler::SyncFn([](const std::string&) { return true; }));
  Reconciler r2(std::move(o2),
                Reconciler::SyncFn([](const std::string&) { return true; }));
  std::map<std::string, double> m = reg.Collect();
  EXPECT_EQ(m.count("dup.queue_depth"), 1u);
  EXPECT_EQ(m.count("dup#2.queue_depth"), 1u);
}

// ------------------------------------------- loops hosted on the runtime

api::Node SmallNode(const std::string& name) {
  api::Node n;
  n.meta.name = name;
  n.meta.labels["kubernetes.io/hostname"] = name;
  n.status.capacity = {1000, 1ll << 30};
  n.status.allocatable = n.status.capacity;
  n.status.conditions = {{api::kNodeReady, true, 1, "KubeletReady"}};
  return n;
}

api::Pod PodRequesting(const std::string& name, int64_t cpu) {
  api::Pod p;
  p.meta.ns = "default";
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "img";
  c.requests = {cpu, 1 << 20};
  p.spec.containers.push_back(c);
  return p;
}

std::unique_ptr<kubelet::KubeletFleet> OneKubelet(apiserver::APIServer* server,
                                                  net::NetworkFabric* fabric,
                                                  const std::string& node) {
  auto fleet = std::make_unique<kubelet::KubeletFleet>(server, RealClock::Get());
  kubelet::Kubelet::Options ko;
  ko.node_name = node;
  ko.fabric = fabric;
  ko.runtimes[""] = std::make_shared<kubelet::MockRuntime>(RealClock::Get(), fabric);
  fleet->Add(std::move(ko));
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

// A scheduler whose only pod fits no node sits in backoff with a retry timer
// armed. Stopping and destroying it at once must leave no timer or task that
// touches the freed object (asan/tsan report it if one fires later).
TEST(LoopTeardownTest, SchedulerStoppedMidBackoff) {
  apiserver::APIServer server({});
  ASSERT_TRUE(server.Create(SmallNode("tiny-0")).ok());
  scheduler::Scheduler::Options so;
  so.server = &server;
  so.cost = scheduler::CostModel{Duration::zero(), Duration::zero(), Duration::zero()};
  auto sched = std::make_unique<scheduler::Scheduler>(std::move(so));
  sched->Start();
  ASSERT_TRUE(sched->WaitForSync(Seconds(5)));
  ASSERT_TRUE(server.Create(PodRequesting("too-big", 4000)).ok());
  ASSERT_TRUE(WaitFor([&] { return sched->failed_attempts() >= 3; }));
  sched->Stop();
  sched.reset();
  // Past the 200 ms backoff cap: any retry timer that outlived the scheduler
  // has fired by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(server.Get<api::Pod>("default", "too-big")->spec.node_name.empty());
}

// Same for a kubelet whose pod retries on a missing Secret.
TEST(LoopTeardownTest, KubeletStoppedMidRetry) {
  apiserver::APIServer server({});
  net::NetworkFabric fabric;
  auto fleet = OneKubelet(&server, &fabric, "retry-node");
  api::Pod p = PodRequesting("needs-secret", 100);
  p.spec.node_name = "retry-node";
  p.spec.volumes.push_back({"v", "absent", "", ""});
  ASSERT_TRUE(server.Create(p).ok());
  ASSERT_TRUE(WaitFor([] {
    return MetricsRegistry::Global().Collect()["kubelet-retry-node.retries"] >= 3;
  }));
  fleet->Stop();
  fleet.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(server.Get<api::Pod>("default", "needs-secret")->status.Ready());
}

// Both loops report through the runtime's metrics block in the global
// registry, like every other control loop.
TEST(LoopTeardownTest, SchedulerAndKubeletBlocksInGlobalDump) {
  apiserver::APIServer server({});
  net::NetworkFabric fabric;
  auto fleet = OneKubelet(&server, &fabric, "dump-node");
  scheduler::Scheduler::Options so;
  so.server = &server;
  so.name = "dump-scheduler";
  so.cost = scheduler::CostModel{Duration::zero(), Duration::zero(), Duration::zero()};
  scheduler::Scheduler sched(std::move(so));
  sched.Start();
  ASSERT_TRUE(sched.WaitForSync(Seconds(5)));
  ASSERT_TRUE(server.Create(PodRequesting("web", 100)).ok());
  ASSERT_TRUE(WaitFor([&] {
    Result<api::Pod> pod = server.Get<api::Pod>("default", "web");
    return pod.ok() && pod->status.Ready();
  }));
  const std::string dump = "\n" + MetricsRegistry::Global().DumpText();
  for (const char* block : {"dump-scheduler", "kubelet-dump-node"}) {
    for (const char* metric : {"queue_depth", "in_flight", "reconciles", "retries",
                               "queue_latency_count", "reconcile_latency_count"}) {
      EXPECT_NE(dump.find(std::string("\n") + block + "." + metric + " "),
                std::string::npos)
          << block << "." << metric << " missing from dump";
    }
  }
  // The pod turns Ready inside the kubelet's reconcile, just before the
  // runtime counts it.
  EXPECT_TRUE(WaitFor([] {
    std::map<std::string, double> m = MetricsRegistry::Global().Collect();
    return m["dump-scheduler.reconciles"] >= 1 && m["kubelet-dump-node.reconciles"] >= 1;
  }));
  sched.Stop();
  fleet->Stop();
}

}  // namespace
}  // namespace vc::controllers

// Traced-run collector: enables the program's vc::trace rings, drains them
// on a background thread often enough that no ring wraps, and at Stop()
// certifies the whole drained history with trace::CheckHistory and folds the
// records into per-layer counts and span times. Nothing is added inside the
// program; the spans paired here are the records its layers already emit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace vcbench {

namespace trace = vc::trace;

struct TraceSummary {
  uint64_t records = 0;
  uint64_t dropped = 0;
  std::vector<std::string> violations;  // from CheckHistory, first few
  std::map<std::string, uint64_t> records_by_component;
  uint64_t commits = 0;     // kv put/delete records, all stores
  uint64_t deliveries = 0;  // watch fan-out deliver records
  uint64_t skips = 0;       // watch fan-out skip records
  // Dispatcher Execute→Account spans (a request holding its slot).
  std::vector<double> dispatch_span_us;
  // Reconciler Dequeue→Reconcile spans, and the same minus the dispatcher
  // spans of the requests the reconcile made (its self time), keyed by the
  // reconciler's name hash as recorded.
  std::map<uint64_t, std::vector<double>> reconcile_span_us;
  std::map<uint64_t, std::vector<double>> reconcile_self_us;
};

// Takes the highest CPU of the calling thread's set away from it, and so
// from every thread it starts later, and returns it; -1 when the set holds
// one CPU. run.py gives traced rounds one CPU more than untraced ones, and a
// round calls this before its deployment starts: the program's threads then
// see the same CPUs as untraced, and the drainer, alone on the reserved CPU,
// is never kept off it long enough for a ring to wrap (sharing two CPUs with
// the burst's threads, it was, and 556 records were lost).
int ReserveDrainCpu();

class TraceCollector {
 public:
  // drain_cpu: the CPU the drain thread runs on; < 0 leaves it unpinned.
  explicit TraceCollector(int drain_cpu);
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Final drain, tracing off, drain thread joined, history certified and
  // folded. Idempotent.
  void Stop();
  // Valid after Stop().
  const TraceSummary& summary() const { return summary_; }

 private:
  void DrainLoop();
  void DrainOnce();
  void Fold();

  const int drain_cpu_;
  std::vector<trace::TraceRecord> history_;  // written by the drain thread
  uint64_t dropped_ = 0;
  TraceSummary summary_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread drainer_;
};

}  // namespace vcbench

#include "trace_collector.h"

#include <sched.h>

#include <algorithm>

#include "common/trace_check.h"

namespace vcbench {

namespace {

// A busy thread (a store's watch fan-out strand under the burst) emits on the
// order of 10^5 records/s into an 8192-record ring; a 10 ms period still lost
// records under the burst.
constexpr auto kDrainPeriod = std::chrono::milliseconds(2);
constexpr size_t kMaxViolations = 16;

bool PinCallingThread(const cpu_set_t& set) {
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

int ReserveDrainCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 2) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  CPU_CLR(last, &set);
  return PinCallingThread(set) ? last : -1;
}

TraceCollector::TraceCollector(int drain_cpu) : drain_cpu_(drain_cpu) {
  trace::SetEnabled(true);
  trace::Reset();
  drainer_ = std::thread([this] { DrainLoop(); });
}

TraceCollector::~TraceCollector() { Stop(); }

void TraceCollector::Stop() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  drainer_.join();
  trace::SetEnabled(false);
  DrainOnce();
  trace::Reset();
  Fold();
}

void TraceCollector::DrainLoop() {
  if (drain_cpu_ >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(drain_cpu_, &set);
    (void)PinCallingThread(set);
  }
  std::unique_lock<std::mutex> l(mu_);
  while (!stop_) {
    cv_.wait_for(l, kDrainPeriod, [this] { return stop_; });
    if (stop_) break;
    l.unlock();
    DrainOnce();
    l.lock();
  }
}

void TraceCollector::DrainOnce() {
  trace::DrainResult d = trace::Drain();
  dropped_ += d.dropped;
  history_.insert(history_.end(), std::make_move_iterator(d.records.begin()),
                  std::make_move_iterator(d.records.end()));
}

// Drain() reads the threads one after another, so one drain is not a cut in
// time; the whole history, sorted by timestamp, is.
void TraceCollector::Fold() {
  std::stable_sort(history_.begin(), history_.end(),
                   [](const trace::TraceRecord& a, const trace::TraceRecord& b) {
                     return a.t_mono_ns < b.t_mono_ns;
                   });
  trace::DrainResult all;
  all.records = std::move(history_);
  all.dropped = dropped_;
  summary_.records = all.records.size();
  summary_.dropped = dropped_;
  trace::CheckReport report = trace::CheckHistory(all);
  for (const std::string& v : report.violations) {
    if (summary_.violations.size() < kMaxViolations) summary_.violations.push_back(v);
  }

  std::map<uint64_t, std::vector<uint64_t>> open_exec;  // trace id -> Execute times
  struct OpenReconcile {
    uint64_t start_ns = 0;
    uint64_t reconciler = 0;
    double child_us = 0;
  };
  std::map<uint64_t, OpenReconcile> open_reconcile;
  for (const trace::TraceRecord& r : all.records) {
    summary_.records_by_component[trace::ComponentName(r.component)]++;
    switch (r.verb) {
      case trace::Verb::kPut:
      case trace::Verb::kDelete:
        if (r.component == trace::Component::kKv) summary_.commits++;
        break;
      case trace::Verb::kDeliver:
        if (r.component == trace::Component::kWatch) summary_.deliveries++;
        break;
      case trace::Verb::kSkip:
        if (r.component == trace::Component::kWatch) summary_.skips++;
        break;
      case trace::Verb::kExecute:
        if (r.trace_id != 0) open_exec[r.trace_id].push_back(r.t_mono_ns);
        break;
      case trace::Verb::kAccount: {
        auto it = open_exec.find(r.trace_id);
        if (it == open_exec.end()) break;
        const double us = static_cast<double>(r.t_mono_ns - it->second.front()) / 1e3;
        summary_.dispatch_span_us.push_back(us);
        auto rec = open_reconcile.find(r.trace_id);
        if (rec != open_reconcile.end()) rec->second.child_us += us;
        it->second.erase(it->second.begin());
        if (it->second.empty()) open_exec.erase(it);
        break;
      }
      case trace::Verb::kDequeue:
        if (r.trace_id != 0) open_reconcile[r.trace_id] = {r.t_mono_ns, r.arg, 0};
        break;
      case trace::Verb::kReconcile: {
        auto it = open_reconcile.find(r.trace_id);
        if (it == open_reconcile.end()) break;
        const double span = static_cast<double>(r.t_mono_ns - it->second.start_ns) / 1e3;
        summary_.reconcile_span_us[it->second.reconciler].push_back(span);
        summary_.reconcile_self_us[it->second.reconciler].push_back(
            std::max(0.0, span - it->second.child_us));
        open_reconcile.erase(it);
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace vcbench

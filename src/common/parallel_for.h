// ParallelFor: fan a load-generation or fan-out/fan-in burst over `n` fresh
// threads where per-thread identity matters. Long-lived component work
// (controllers, syncer, kubelet, timers) runs on the shared Executor in
// common/executor.h instead.
#pragma once

#include <functional>

namespace vc {

// Launch `n` copies of fn(i) on fresh threads and join them all.
void ParallelFor(int n, const std::function<void(int)>& fn);

}  // namespace vc

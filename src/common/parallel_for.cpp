#include "common/parallel_for.h"

#include <thread>
#include <vector>

#include "common/executor.h"

namespace vc {

void ParallelFor(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back([&fn, i] { fn(i); });
  // Joining can take arbitrarily long; if the caller is a shared-pool worker
  // the pool must not lose the slot while we wait.
  BlockingRegion br;
  for (auto& t : ts) t.join();
}

}  // namespace vc

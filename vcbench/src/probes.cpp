#include "probes.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "api/codec.h"
#include "kv/kvstore.h"
#include "stats.h"

namespace vcbench {

namespace {

constexpr int kCodecBatches = 15;
constexpr int kCodecPerBatch = 200;
constexpr size_t kPutsPerWriter = 20000;

// The rounds run pinned to one or two CPUs (see run.py); the multi-writer
// probe is about contention between cores, so its writers may use every CPU.
void UseEveryCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n && i < CPU_SETSIZE; ++i) CPU_SET(i, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// Keeps the timed codec calls observable so they cannot be elided.
std::atomic<size_t> g_sink{0};

}  // namespace

CodecProbe ProbeCodec(const vc::api::Pod& pod) {
  const std::string encoded = vc::api::Encode(pod);
  std::vector<double> enc, dec;
  size_t sink = 0;
  for (int b = 0; b < kCodecBatches; ++b) {
    double t0 = NowUs();
    for (int i = 0; i < kCodecPerBatch; ++i) sink += vc::api::Encode(pod).size();
    double t1 = NowUs();
    for (int i = 0; i < kCodecPerBatch; ++i) {
      vc::Result<vc::api::Pod> p = vc::api::Decode<vc::api::Pod>(encoded);
      sink += p.ok() ? p->meta.name.size() : 0;
    }
    double t2 = NowUs();
    enc.push_back((t1 - t0) / kCodecPerBatch);
    dec.push_back((t2 - t1) / kCodecPerBatch);
  }
  CodecProbe out;
  out.encode_us = Median(enc);
  out.decode_us = Median(dec);
  out.bytes = static_cast<double>(encoded.size());
  g_sink += sink;
  return out;
}

double ProbeKvPut(const std::vector<std::pair<std::string, std::string>>& objects,
                  int writers) {
  if (objects.empty() || writers < 1) return 0;
  vc::kv::KvStore store;
  std::vector<std::thread> threads;
  const double t0 = NowUs();
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      UseEveryCpu();
      // Writer w owns objects w, w+writers, ...; passes after the first
      // overwrite them, as status updates do.
      size_t done = 0;
      while (done < kPutsPerWriter) {
        for (size_t i = static_cast<size_t>(w); i < objects.size() && done < kPutsPerWriter;
             i += static_cast<size_t>(writers)) {
          (void)store.Put(objects[i].first, objects[i].second);
          ++done;
        }
        if (static_cast<size_t>(w) >= objects.size()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return (NowUs() - t0) / static_cast<double>(kPutsPerWriter);
}

}  // namespace vcbench

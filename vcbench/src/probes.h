// Layer probes: timed calls into one layer's public functions, run on the
// objects a round generated, after its measured window so they do not
// perturb it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "api/types.h"

namespace vcbench {

struct CodecProbe {
  double encode_us = 0;  // median per api::Encode<Pod>
  double decode_us = 0;  // median per api::Decode<Pod>
  double bytes = 0;      // encoded size
};

// Times api::Encode/Decode of `pod` over enough repetitions to beat the
// clock's resolution.
CodecProbe ProbeCodec(const vc::api::Pod& pod);

// Puts `objects` (key, encoded value) into a standalone kv::KvStore from
// `writers` threads (free to use every CPU of the machine), each writing its
// own slice of keys over several passes. Returns the wall time per put as one
// writer sees it (µs).
double ProbeKvPut(const std::vector<std::pair<std::string, std::string>>& objects,
                  int writers);

}  // namespace vcbench

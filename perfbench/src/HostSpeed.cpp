//===- HostSpeed.cpp - The host-speed calibration workload -----------------===//
//
// A fixed integer workload that shares no code with tawa: hashing, sorting
// a small array and scattered updates of a 4 MiB table, so it feels the
// same core, cache and memory contention as the interpreter. CMakeLists.txt
// compiles this file with fixed flags, so a change to the tree's build
// flags does not change the yardstick.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdint>

namespace pb {

namespace {

std::vector<uint32_t> Small(1 << 14), Table(1 << 20);

uint64_t work() {
  uint64_t H = 1469598103934665603ull;
  for (int Round = 0; Round < 2; ++Round) {
    for (size_t I = 0; I < Small.size(); ++I) {
      H = (H ^ I) * 1099511628211ull;
      Small[I] = static_cast<uint32_t>(H >> 17);
    }
    std::sort(Small.begin(), Small.end());
    for (size_t I = 0; I < 60000; ++I) {
      H = (H ^ Table[H & (Table.size() - 1)]) * 1099511628211ull;
      Table[(H >> 20) & (Table.size() - 1)] += 1;
    }
  }
  return H + Small[7];
}

} // namespace

double calibrationMs() {
  // The first run brings the arrays back into the caches, so the timed one
  // does not depend on what the measured program left there.
  volatile uint64_t Sink = work();
  double T0 = nowUs();
  Sink = Sink + work();
  return (nowUs() - T0) / 1000.0;
}

} // namespace pb

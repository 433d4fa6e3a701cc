//===- Workloads.h - The benchmark's workloads and metric names -*- C++ -*-===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <string>

namespace pb {

/// sweep-timing, verify-functional, compile-grid and known-failures.
void runBatch(const RunConfig &Cfg, Result &R);
/// Child-process set-up of a batch workload; returns the exit code.
int batchSetupOnly(const std::string &Workload);

/// serve-mixed.
void runServe(const RunConfig &Cfg, Result &R);
/// The traced serve-mixed run inside another traced run: adds its ir.* and
/// serve.* per-layer metrics to \p R, and its notes, counts and work
/// counters (as serve.*). Its spans go to <run dir>/serve/spans.jsonl.
void traceServeLayers(const RunConfig &Cfg, Result &R);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H

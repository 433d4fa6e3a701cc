//===- Layers.h - Workload inputs and per-layer decomposition ---*- C++ -*-===//
//
// The batch workloads' inputs (the six figure grids, the functional
// verification points, the compile grid), and the traced run's
// decomposition: where the Runner hides a layer call, the same call is
// re-issued from outside on the same program and inputs, under a span, and
// must reproduce the Runner's simulated cycles and validation error bit for
// bit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"

#include "driver/Sweep.h"
#include "sim/Bytecode.h"

#include <string>
#include <vector>

namespace pb {

/// One op of a batch workload: a sweep point plus its label and, for
/// functional points, the relative-error bound the tests apply to it.
struct Point {
  tawa::SweepPoint P;
  std::string Label;
  double Bound = 0;
};

/// The fig8-fig13 grids exactly as bench/fig*.cpp declare them (timing
/// mode), in declaration order.
std::vector<Point> figureGrid();

/// Functional points across every kernel family, validated against the
/// double-precision references.
std::vector<Point> functionalPoints();

/// The functional points that fail on the current tree (README.md, Known
/// failing op), validated like functionalPoints().
std::vector<Point> knownFailures();

/// Distinct compile keys across tile shape x aref depth x MMA depth x
/// consumer groups x persistent x coarse pipeline x precision x family;
/// each point carries a small probe shape for its simulated TFLOP/s.
std::vector<Point> compileGrid();

/// The Runner call a point stands for.
tawa::RunResult runPoint(tawa::Runner &R, const Point &Pt);
/// Runner::prewarm for the point.
bool prewarmPoint(tawa::Runner &R, const Point &Pt, std::string &Err);
/// Runner::compileKey for the point ("" when it never compiles).
std::string compileKeyOf(const tawa::Runner &R, const Point &Pt);
/// True for an outcome the point is expected to have by design
/// (unsupported framework, infeasible configuration).
bool isExpectedRefusal(const tawa::RunResult &Res);

/// What re-issuing a point's layer calls produced.
struct Decomposed {
  bool Ran = false;   ///< False when the point never reaches the simulator.
  std::string Error;  ///< A layer call failed.
  double Micros = 0;
  double MaxRelError = -1;
  uint64_t OutputHash = 0;
};

/// Re-issues the program-cache lookup, interpreter, reference and replay
/// calls that Runner::run*Custom makes for \p Pt (whose program must be
/// cached), as children of span \p Parent, adding work counters to \p C.
Decomposed decomposeRun(const tawa::Runner &R, const Point &Pt, SpanLog &L,
                        int Parent, Counters &C);

/// Re-issues the frontend, pass pipeline, flatten, peephole and
/// (de)serialization calls Runner::prewarm makes for \p Pt, as children of
/// span \p Parent. Returns the programShape of the result (errors set
/// \p Err).
uint64_t decomposeCompile(const tawa::Runner &R, const Point &Pt, SpanLog &L,
                          int Parent, Counters &C, std::string &Err);

/// Fingerprint of a compiled program's structure: slot, operand and loop
/// counts, fusion counters, and every region's opcode sequence. Unlike its
/// serialized bytes it does not depend on the order in which the passes
/// number loop-carried values, which follows heap addresses (README.md).
uint64_t programShape(const tawa::sim::bc::CompiledProgram &P);

/// programShape of the program the process-wide cache holds for \p Pt (0
/// when not cached).
uint64_t cachedProgramShape(const tawa::Runner &R, const Point &Pt);

/// Sets the per-layer metrics that follow from the traced run's spans and
/// work counters alone: per-call medians of every layer span, the counts,
/// and the per-action and per-MAC costs. \p C holds the counters of
/// \p Passes passes' worth of the spans in \p L.
void reportLayers(Result &R, const SpanLog &L, const Counters &C,
                  double Passes);

} // namespace pb

#endif // PERFBENCH_LAYERS_H

//===- Launch.h - Launch specs carried as module attributes -----*- C++ -*-===//
//
// The one codec for a kernel launch written into a textual module: grid,
// arguments and an optional fault-injection spec, stamped as the module
// attributes
//
//   fuzz.grid   = [gridX, gridY]
//   fuzz.args   = "<entry>;<entry>;..."   s<int>            scalar
//                                         t<seed>:<d0>x<d1> seeded tensor
//                                                           (seed 0 = output)
//                                         d<d0>x<d1>:<v>,<v> explicit payload
//   fuzz.faults = "<faults::configure spec>"                (optional)
//
// so a printed module is self-contained and replayable. Fuzz corpus files,
// tawa-serve `ir` requests and flight-recorder crash dumps all share this
// format; decodeLaunchSpec is the only parser of it. The decoder bounds
// every launch it accepts (ranks, dimensions, elements per tensor, CTAs per
// launch), so an untrusted module cannot make binding allocate without
// limit or abort the process.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_LAUNCH_H
#define TAWA_SIM_LAUNCH_H

#include "sim/Interpreter.h"
#include "sim/TensorData.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tawa {

class Module;

namespace sim {

/// Launch configuration for a module, in a form that survives a
/// print/parse round trip as module attributes.
struct LaunchSpec {
  /// Decoder limits. MaxCtas bounds GridX * GridY; MaxTensorElems bounds
  /// each tensor argument (an 8192 x 8192 fp32 tensor, 256 MiB). Ranks are
  /// bounded by ShapeVec::MaxRank.
  static constexpr int64_t MaxCtas = int64_t(1) << 16;
  static constexpr int64_t MaxTensorElems = int64_t(1) << 26;

  int64_t GridX = 1, GridY = 1;
  struct Arg {
    bool IsScalar = false;
    int64_t Scalar = 0;              ///< Scalar value.
    std::vector<int64_t> Shape;      ///< Tensor shape.
    uint64_t FillSeed = 0;           ///< 0 = zero-filled (outputs).
    /// Explicit integer-valued payload (row-major, cast to float), used for
    /// the grouped family's group-offset table. Non-empty marks the tensor
    /// as an input even when FillSeed == 0.
    std::vector<int64_t> Data;

    static Arg scalar(int64_t V) {
      Arg A;
      A.IsScalar = true;
      A.Scalar = V;
      return A;
    }
    static Arg tensor(std::vector<int64_t> Shape, uint64_t FillSeed) {
      Arg A;
      A.Shape = std::move(Shape);
      A.FillSeed = FillSeed;
      return A;
    }
  };
  std::vector<Arg> Args;
  /// faults::configure() spec, "" = none.
  std::string FaultSpec;
};

/// Stamps \p L onto \p M as `fuzz.grid` / `fuzz.args` / `fuzz.faults`.
void encodeLaunchSpec(Module &M, const LaunchSpec &L);

/// Recovers a LaunchSpec from a module's `fuzz.*` attributes. Returns "" or
/// an error: a missing or malformed attribute, a tensor rank outside
/// 1..MaxRank, a negative grid or tensor dimension, or a launch past the
/// LaunchSpec caps.
std::string decodeLaunchSpec(const Module &M, LaunchSpec &L);

/// Materializes one non-scalar launch arg as a fresh tensor: explicit Data
/// (the grouped family's offset table), seeded random fill, or zeros
/// (outputs).
TensorRef materializeArg(const LaunchSpec::Arg &A);

/// Binds \p L to \p Opts: sets the grid and replaces Opts.Args with the
/// scalars and freshly materialized tensors, in launch order. Returns the
/// output tensors (zero-filled args without a payload), in launch order.
std::vector<TensorRef> bindLaunchArgs(const LaunchSpec &L, RunOptions &Opts);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_LAUNCH_H

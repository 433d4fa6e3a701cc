//===- Trace.h - Timed action traces ----------------------------*- C++ -*-===//
//
// The functional interpreter emits one linear trace of primitive timed
// actions per warp-group agent; the replay engine (Replay.h) then
// co-simulates the traces against shared resources (tensor core, DRAM,
// mbarriers) to produce the kernel's cycle count. Splitting value semantics
// from timing keeps the functional execution deterministic while the timing
// remains faithfully concurrent.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_TRACE_H
#define TAWA_SIM_TRACE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tawa {
namespace sim {

enum class ActionKind : uint8_t {
  CudaWork,     ///< Cycles on the CUDA cores (address math, softmax, ...).
  TensorIssue,  ///< Enqueue an async MMA of Cycles duration.
  TensorWait,   ///< Block until at most `Pendings` MMAs remain in flight.
  TmaIssue,     ///< Enqueue an async TMA copy arriving on (Bar, Idx).
  BarExpectTx,  ///< Set the expected transaction bytes of (Bar, Idx).
  BarArrive,    ///< Arrive on (Bar, Idx).
  BarWait,      ///< Block until (Bar, Idx)'s phase differs from Parity.
  GStoreAsync,  ///< Global store traffic (epilogue), charged to DRAM.
  GLoadSync,    ///< Synchronous global load (non-WS tile execution).
  CopyPipelined,///< cp.async software-pipelined copy with `Lookahead` ring
                ///< slots (Triton baseline); waits for the copy issued
                ///< `Lookahead-1` iterations ago.
  IterMark,     ///< Marks a main-loop iteration boundary (for lookahead).
  CtaSync,      ///< Block-wide named barrier (software pipelining).
};

/// One timed action. Packed to 32 bytes (traces hold millions of these):
/// the two wide fields first, then the 32-, 16- and 8-bit ones. Fields fed
/// from parsed IR attributes (Pendings, Lookahead) are narrowed through the
/// saturating helpers below, never by a plain cast.
struct Action {
  double Cycles = 0;      ///< Work duration / issue cost.
  int64_t Bytes = 0;      ///< Transfer size (before reuse scaling).
  int32_t Bar = -1;       ///< Barrier array id.
  int32_t Idx = 0;        ///< Barrier index within the array.
  int32_t Pendings = 0;   ///< TensorWait bound.
  int16_t Lookahead = 0;  ///< CopyPipelined ring depth.
  int8_t Parity = 0;      ///< Wait parity.
  ActionKind Kind = ActionKind::CudaWork;
};
static_assert(sizeof(Action) == 32, "Action must stay packed to 32 bytes");

/// TensorWait bound from an IR `pendings` value. Saturates, so a bound
/// beyond int32 still means "wait for nothing" instead of wrapping to a
/// small (or zero) count.
inline int32_t narrowPendings(int64_t Pendings) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(Pendings, std::numeric_limits<int32_t>::min(),
                          std::numeric_limits<int32_t>::max()));
}

/// CopyPipelined ring depth from a `sw_pipeline_depth` value. Saturates;
/// every depth past the replay's 64-iteration history behaves alike.
inline int16_t narrowLookahead(int64_t Lookahead) {
  return static_cast<int16_t>(
      std::clamp<int64_t>(Lookahead, std::numeric_limits<int16_t>::min(),
                          std::numeric_limits<int16_t>::max()));
}

/// One agent's (warp group's) linear action sequence.
struct AgentTrace {
  std::string Name;          ///< e.g. "cta0/wg0(producer)".
  int64_t Replicas = 1;      ///< Cooperative consumer replica count.
  std::vector<Action> Actions;

  void emit(Action A) { Actions.push_back(A); }
};

/// One tt.atomic_add executed during a CTA: the target runtime-argument
/// tensor plus the (already bounds-checked) linear indices and f32 addends.
/// Engines only RECORD these — the Interpreter facade applies every CTA's
/// contributions in CTA-index order after execution, which makes cross-CTA
/// reduction (split-K) bit-identical across engines and worker counts.
struct AtomicContrib {
  int32_t Arg = -1;           ///< RunOptions::Args index of the target.
  std::vector<int64_t> Index; ///< Linear element indices (in-bounds only).
  std::vector<float> Value;   ///< f32 addends, parallel to Index.
};

/// Everything the replay engine needs for one CTA.
struct CtaTrace {
  std::vector<AgentTrace> Agents;
  /// Number of barrier arrays allocated (ids are dense).
  int32_t NumBarrierArrays = 0;
  /// Expected arrivals per phase, per barrier array.
  std::vector<int64_t> BarrierArrivals;
  /// Barrier array sizes.
  std::vector<int64_t> BarrierSizes;
  /// Total shared memory allocated (for the capacity check).
  int64_t SmemBytes = 0;
  /// Peak registers per thread across consumer groups (occupancy model).
  int64_t RegsPerThread = 0;
  /// Total happens-before events recorded while executing this CTA (used by
  /// the differential tests to check engine equivalence).
  uint64_t HbEvents = 0;
  /// Recorded (not yet applied) tt.atomic_add contributions, preamble first
  /// then agents in id order. Empty for non-functional runs and kernels
  /// without atomics. Consumed by Interpreter::runCta / runParallelCtas.
  std::vector<AtomicContrib> Atomics;
};

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_TRACE_H

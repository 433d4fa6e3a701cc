//===- Common.h - Shared plumbing of the perfbench harness ------*- C++ -*-===//
//
// Statistics, the in-memory span log of the traced run, deterministic work
// counters, and the result document every workload fills. See
// perfbench/README.md for the metric definitions.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Microseconds since the harness started (monotonic).
double nowUs();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (0 when empty).
double quantile(std::vector<double> V, double Q);

/// The highest of the percentiles 99.9, 99, 95, 90, 75, 50 that has at
/// least ten samples beyond it; Pct is 0 when there are fewer than 20.
struct Tail {
  double Pct = 0;
  double Value = 0;
};
Tail tailOf(const std::vector<double> &V);

/// Geometric mean of the positive entries of \p V (0 when none).
double geomean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

/// One timed call into a layer. Parent is the index of the causing span, or
/// -1. A layer call that the Runner or the Service makes internally is
/// re-issued from outside on the same program and inputs; such a span names
/// the hidden call's span as its parent although it does not lie inside it.
struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1;
  double durUs() const { return EndUs - StartUs; }
};

class SpanLog {
public:
  int begin(const std::string &Name, int Parent = -1);
  void end(int Id);
  /// Records an already-measured interval.
  int add(const std::string &Name, double StartUs, double EndUs,
          int Parent = -1);
  const std::vector<Span> &spans() const { return Spans; }
  /// Duration of span \p Id minus the summed durations of its children.
  double selfUs(int Id) const;
  /// Median duration (us) of the spans named \p Name; 0 when none.
  double medianUs(const std::string &Name) const;
  /// Median self time (us) of the spans named \p Name; 0 when none.
  double medianSelfUs(const std::string &Name) const;
  /// Writes one JSON line per span.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// RAII span: begins on construction, ends on destruction.
class Scoped {
public:
  Scoped(SpanLog &L, const std::string &Name, int Parent = -1)
      : L(L), Id(L.begin(Name, Parent)) {}
  ~Scoped() { L.end(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  SpanLog &L;
  int Id;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Deterministic work counters of one pass over a workload's inputs.
using Counters = std::map<std::string, int64_t>;

/// What a workload run produces. Metrics not set read 0 (a layer the
/// workload does not reach); units come from metricTable.
struct Result {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// Free-form report lines printed before the final JSON line.
  std::vector<std::string> Notes;
  /// The work counters of one pass (or of the traced request stream).
  Counters Work;

  void set(const std::string &Name, double Value) { Metrics[Name] = Value; }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Marks the run incorrect and says why.
  void fail(const std::string &Why);
};

/// Options every workload receives.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RunDir; ///< Fresh per-run scratch directory.
};

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// Runs the fixed calibration workload (HostSpeed.cpp) once and returns its
/// wall time in ms.
double calibrationMs();

/// The host's speed during a run, from calibration samples taken between
/// the measured passes or windows. A shared host's speed moves by tens of
/// percent over seconds to minutes, and raw timings move with it (README.md,
/// Noise). Host-time end-to-end metrics are therefore reported in
/// reference-host units: a raw time times factor(), a raw rate divided by
/// it. The raw values go to the notes.
class HostSpeed {
public:
  /// Median calibration time (ms) on the 4-vCPU host the bounds in
  /// BENCHMARK.json were tuned on.
  static constexpr double ReferenceMs = 4.0;

  void sample() { Ms.push_back(calibrationMs()); }
  /// Reference-host time per host time: below 1 on a slower host.
  double factor() const;
  /// Notes the samples' median and spread and the factor.
  void report(Result &R) const;

private:
  std::vector<double> Ms;
};

/// Spawns this executable with \p Args, waits for it, and returns its wall
/// time in seconds from spawn to exit (negative when it failed).
double timeSelfSpawn(const std::vector<std::string> &Args);

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Reports setup_s as the median of \p Samples (seconds, raw) in
/// reference-host units and lists them.
void reportSetup(Result &R, const std::vector<double> &Samples,
                 const HostSpeed &Host);

/// One measurement window of a run: per-op latencies (ms, in execution
/// order) and the window's wall time.
struct Window {
  std::vector<double> Ms;
  double Seconds = 0;
  double LateP99Ms = 0; ///< Open loop: p99 of how late sends left.
};

/// ops_per_s, op_p50_ms and op_p99_ms as medians over \p Windows of each
/// window's rate, median and tail, so interference that slows part of a run
/// moves a minority of windows rather than the reported value; in
/// reference-host units, except a rate the workload fixes itself
/// (\p ScaleRate false: an open loop's offered rate). Sample counts, the
/// tail percentile and the raw values go to the notes.
void reportWindows(Result &R, const std::vector<Window> &Windows,
                   const HostSpeed &Host, bool ScaleRate);

/// Names PassManager gives the Tawa pipeline's passes (passes.<name>_us).
inline const char *const PassNames[] = {
    "persistent-kernel",       "semantic-tagging",
    "warp-specialize",         "cooperative-warp-groups",
    "coarse-grained-pipeline", "fine-grained-pipeline",
    "aref-lowering",           "canonicalize"};

/// (name, unit) of every metric a run prints: the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one. perfbench/run.py
/// checks that they match BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>> &
metricTable(bool PerLayer);

} // namespace pb

#endif // PERFBENCH_COMMON_H

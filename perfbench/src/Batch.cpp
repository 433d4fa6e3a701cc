//===- Batch.cpp - The in-process workloads -------------------------------===//
//
// sweep-timing, verify-functional, compile-grid and known-failures. Each
// run: an in-process set-up, then whole passes over the inputs in a seeded
// order until the time budget is spent, with set-up samples (fresh child
// processes) and host-speed samples taken between them.
// The traced run spends half its budget untraced (the overhead baseline)
// and half re-issuing every layer call under spans.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"

#include "sim/Interpreter.h"
#include "support/ProgramCache.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>

using namespace tawa;

namespace pb {

namespace {

/// A batch workload's inputs and the Sweep that owns its Runner.
struct Batch {
  std::string Name;
  std::vector<Point> Points;
  std::unique_ptr<Sweep> S;
  bool Compile = false; ///< compile-grid: ops are Runner::prewarm calls.

  explicit Batch(const std::string &W) : Name(W), S(new Sweep(W)) {
    Compile = W == "compile-grid";
    Points = W == "sweep-timing"        ? figureGrid()
             : W == "verify-functional" ? functionalPoints()
             : W == "known-failures"    ? knownFailures()
                                        : compileGrid();
    if (Compile) {
      // One op per distinct key; options the compiler rejects up front
      // (no key) are not compile work.
      std::set<std::string> Keys;
      std::vector<Point> Distinct;
      for (Point &Pt : Points) {
        std::string K = compileKeyOf(runner(), Pt);
        if (!K.empty() && Keys.insert(K).second)
          Distinct.push_back(std::move(Pt));
      }
      Points = std::move(Distinct);
    }
    for (const Point &Pt : Points) {
      const SweepPoint &P = Pt.P;
      if (P.PointKind == SweepPoint::Kind::Gemm)
        S->addGemm(P.Gemm, P.Envelope, P.FrameworkName, P.Axes, P.Functional);
      else
        S->addAttention(P.Attn, P.Envelope, P.FrameworkName, P.Axes,
                        P.Functional);
    }
  }
  Runner &runner() { return S->runner(); }

  /// The set-up every run pays: an empty memory cache, then every distinct
  /// key compiled once. Returns the first compile error.
  std::string setUp() {
    ProgramCache::shared().setPersistDir("");
    runner().clearProgramCache();
    if (!Compile)
      return S->prewarm();
    std::string First;
    for (const Point &Pt : Points) {
      std::string Err;
      if (!prewarmPoint(runner(), Pt, Err) && First.empty())
        First = Pt.Label + ": " + Err;
    }
    return First;
  }
};

/// Set-up samples per run. They are spread over the measured phase, so
/// they see the same host conditions as the passes.
constexpr int SetupSamples = 15;

/// Measured time between host-speed samples, so that short passes do not
/// spend a tenth of the run calibrating.
constexpr double HostSampleS = 0.5;

/// Integer fingerprint of a simulated time, for order-independent sums.
int64_t picos(double Micros) { return std::llround(Micros * 1e6); }

/// One measured pass over the inputs.
struct PassOutcome {
  Counters C;
  std::vector<double> OpMs; ///< Per-op host latency, in execution order.
  std::vector<size_t> Order; ///< Input index of each op.
  double WallSec = 0;
  /// Ops whose outcome was wrong. Not a work counter: a scheduling race in
  /// the program can make it vary between passes.
  int64_t Failed = 0;
};

class BatchRun {
public:
  BatchRun(const RunConfig &Cfg, Result &R)
      : Cfg(Cfg), R(R), B(Cfg.Workload), Rng(Cfg.Seed) {}

  void run();

private:
  std::vector<size_t> nextOrder();
  void reportFamilies(const std::vector<PassOutcome> &Passes);
  PassOutcome pass(SpanLog *Trace);
  void checkOp(const Point &Pt, size_t Idx, const RunResult &Res,
               Counters &C);
  void tracedOp(const Point &Pt, size_t Idx, const RunResult &Res,
                int RunnerSpan, SpanLog &L, Counters &C);
  double simTflopsGeomean();
  void perLayer(const SpanLog &L, const std::vector<PassOutcome> &Traced,
                double UntracedOpsPerS);

  const RunConfig &Cfg;
  Result &R;
  Batch B;
  std::mt19937_64 Rng;
  /// First-seen simulated time per point (determinism check).
  std::vector<double> FirstMicros;
  std::vector<bool> Seen;
  /// First output hash per functional point in the traced run.
  std::vector<uint64_t> FirstHash;
  int64_t PassFailed = 0;
};

void BatchRun::reportFamilies(const std::vector<PassOutcome> &Passes) {
  // Host time per input family (the label up to its first '/').
  std::map<std::string, double> Ms;
  double Total = 0;
  for (const PassOutcome &P : Passes)
    for (size_t I = 0; I < P.Order.size(); ++I) {
      const std::string &L = B.Points[P.Order[I]].Label;
      Ms[L.substr(0, L.find('/'))] += P.OpMs[I];
      Total += P.OpMs[I];
    }
  for (const auto &[Family, T] : Ms)
    R.note(formatString("host time share %-24s %5.1f%%", Family.c_str(),
                        100.0 * T / Total));
}

std::vector<size_t> BatchRun::nextOrder() {
  std::vector<size_t> Order(B.Points.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

void BatchRun::checkOp(const Point &Pt, size_t Idx, const RunResult &Res,
                       Counters &C) {
  C["ops"] += 1;
  bool Failed = false;
  if (!Res.ok() && !isExpectedRefusal(Res)) {
    Failed = true;
  } else if (Pt.P.Functional && Res.ok() &&
             !(Res.MaxRelError >= 0 && Res.MaxRelError <= Pt.Bound)) {
    Failed = true;
  }
  if (!Res.ok())
    C["refused"] += isExpectedRefusal(Res) ? 1 : 0;
  if (Failed) {
    ++PassFailed;
    if (!Seen[Idx])
      R.note(formatString("failed op: %s: %s (max_rel_error %.6g, bound %g)",
                          Pt.Label.c_str(),
                          Res.Error.empty() ? "validation" : Res.Error.c_str(),
                          Res.MaxRelError, Pt.Bound));
  }
  C["sim_picos"] += picos(Res.Micros);
  if (Pt.P.Functional && Res.ok())
    C["macs"] += static_cast<int64_t>(
        Pt.P.PointKind == SweepPoint::Kind::Gemm ? Pt.P.Gemm.flops() / 2
                                                 : Pt.P.Attn.flops() / 2);
  if (!Seen[Idx]) {
    Seen[Idx] = true;
    FirstMicros[Idx] = Res.Micros;
  } else if (Res.Micros != FirstMicros[Idx]) {
    R.fail(formatString("%s: simulated time %.17g differs from %.17g earlier "
                        "in the run",
                        Pt.Label.c_str(), Res.Micros, FirstMicros[Idx]));
  }
}

PassOutcome BatchRun::pass(SpanLog *Trace) {
  PassOutcome Out;
  Runner &Rn = B.runner();
  Runner::CacheStats Before = Rn.cacheStats();
  ProgramCache::Stats PBefore = ProgramCache::shared().getStats();
  if (B.Compile)
    Rn.clearProgramCache(); // Every key compiles in every pass.
  Clock::time_point T0 = Clock::now();
  Out.Order = nextOrder();
  for (size_t Idx : Out.Order) {
    const Point &Pt = B.Points[Idx];
    if (B.Compile) {
      std::string Err;
      double Start = nowUs();
      bool Ok = prewarmPoint(Rn, Pt, Err);
      double End = nowUs();
      Out.OpMs.push_back((End - Start) / 1000.0);
      Out.C["ops"] += 1;
      if (!Ok) {
        ++PassFailed;
        R.note("failed op: " + Pt.Label + ": " + Err);
      }
      if (Trace) {
        int Id = Trace->add("driver.runner", Start, End);
        std::string DErr;
        uint64_t Mine = decomposeCompile(Rn, Pt, *Trace, Id, Out.C, DErr);
        uint64_t Theirs = cachedProgramShape(Rn, Pt);
        if (!DErr.empty() || Mine != Theirs)
          R.fail(formatString("%s: re-issued compile (%s) does not reproduce "
                              "the Runner's program (%016llx vs %016llx)",
                              Pt.Label.c_str(), DErr.c_str(),
                              static_cast<unsigned long long>(Mine),
                              static_cast<unsigned long long>(Theirs)));
      }
      continue;
    }
    double Start = nowUs();
    RunResult Res = runPoint(Rn, Pt);
    double End = nowUs();
    Out.OpMs.push_back((End - Start) / 1000.0);
    checkOp(Pt, Idx, Res, Out.C);
    if (Trace)
      tracedOp(Pt, Idx, Res, Trace->add("driver.runner", Start, End), *Trace,
               Out.C);
  }
  Out.WallSec = std::chrono::duration<double>(Clock::now() - T0).count();
  Out.Failed = PassFailed;
  PassFailed = 0;
  Runner::CacheStats After = Rn.cacheStats();
  ProgramCache::Stats PAfter = ProgramCache::shared().getStats();
  Out.C["compiles"] += static_cast<int64_t>(After.Misses - Before.Misses);
  Out.C["cache_hits"] += static_cast<int64_t>(After.Hits - Before.Hits);
  Out.C["cache_evictions"] +=
      static_cast<int64_t>(PAfter.Evictions - PBefore.Evictions);
  return Out;
}

void BatchRun::tracedOp(const Point &Pt, size_t Idx, const RunResult &Res,
                        int RunnerSpan, SpanLog &L, Counters &C) {
  Decomposed D = decomposeRun(B.runner(), Pt, L, RunnerSpan, C);
  if (!D.Error.empty()) {
    if (Res.ok())
      R.fail(Pt.Label + ": re-issued layer call failed: " + D.Error);
    return;
  }
  if (!D.Ran || !Res.ok())
    return;
  if (D.Micros != Res.Micros) {
    R.fail(formatString("%s: layer calls give %.17g us, the Runner %.17g us",
                        Pt.Label.c_str(), D.Micros, Res.Micros));
    return;
  }
  if (!Pt.P.Functional)
    return;
  // An output that does not reproduce (the same inputs giving another
  // error or other bytes) is a wrong outcome of this op.
  uint64_t &First = FirstHash[Idx];
  if (D.MaxRelError != Res.MaxRelError || (First && First != D.OutputHash)) {
    ++PassFailed;
    R.note(formatString("failed op: %s: output does not reproduce (error "
                        "%.9g vs %.9g, hash %016llx vs %016llx)",
                        Pt.Label.c_str(), D.MaxRelError, Res.MaxRelError,
                        static_cast<unsigned long long>(D.OutputHash),
                        static_cast<unsigned long long>(First)));
  }
  if (!First)
    First = D.OutputHash;
}

double BatchRun::simTflopsGeomean() {
  std::vector<double> T;
  for (const Point &Pt : B.Points) {
    if (Pt.P.FrameworkName != "Tawa")
      continue;
    Point Probe = Pt;
    Probe.P.Functional = false;
    RunResult Res = runPoint(B.runner(), Probe);
    if (Res.ok())
      T.push_back(Res.TFlops);
  }
  R.note(formatString("sim_tflops_geomean over %zu Tawa points (timing "
                      "mode)",
                      T.size()));
  return geomean(T);
}

/// Ops per wall second over \p Passes.
double opsPerS(const std::vector<PassOutcome> &Passes) {
  double Ops = 0, Sec = 0;
  for (const PassOutcome &P : Passes) {
    Ops += static_cast<double>(P.OpMs.size());
    Sec += P.WallSec;
  }
  return Sec > 0 ? Ops / Sec : 0;
}

/// Keeps the first pass's work counters; every pass must repeat them.
void checkPasses(const std::vector<PassOutcome> &Passes, Result &R) {
  R.Work = Passes[0].C;
  for (size_t I = 1; I < Passes.size(); ++I)
    if (Passes[I].C != Passes[0].C)
      R.fail(formatString("work counters of pass %zu differ from pass 0", I));
}

void BatchRun::run() {
  R.note(formatString("workload %s: %zu inputs, %zu distinct compile keys",
                      Cfg.Workload.c_str(), B.Points.size(),
                      B.S->compileKeys().size()));
  std::vector<double> SetupS;
  int SetupTries = 0;
  auto SampleSetUp = [&] {
    ++SetupTries;
    double S = timeSelfSpawn({"--setup-only", "--workload", Cfg.Workload});
    if (S < 0)
      R.fail("set-up child failed");
    else
      SetupS.push_back(S);
  };
  FirstMicros.assign(B.Points.size(), 0);
  Seen.assign(B.Points.size(), false);
  FirstHash.assign(B.Points.size(), 0);
  if (std::string Err = B.setUp(); !Err.empty())
    R.note("set-up compile error: " + Err);

  double Budget = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  std::vector<PassOutcome> Passes;
  HostSpeed Host;
  double Elapsed = 0, LastSample = -1;
  while (Passes.size() < 2 || Elapsed < Budget) {
    if (SetupTries < SetupSamples * Elapsed / Budget)
      SampleSetUp();
    Passes.push_back(pass(nullptr));
    Elapsed += Passes.back().WallSec;
    if (LastSample < 0 || Elapsed - LastSample >= HostSampleS) {
      Host.sample();
      LastSample = Elapsed;
    }
  }
  while (SetupTries < SetupSamples)
    SampleSetUp();
  checkPasses(Passes, R);
  int64_t Ops = 0, Failed = 0;
  for (const PassOutcome &P : Passes) {
    Ops += P.C.at("ops");
    Failed += P.Failed;
  }
  R.Attempted = Ops;
  R.Failed = Failed;
  R.note(formatString("%zu passes, %lld ops in %.3f s", Passes.size(),
                      static_cast<long long>(Ops), Elapsed));
  reportFamilies(Passes);

  if (!Cfg.Trace) {
    Host.report(R);
    reportSetup(R, SetupS, Host);
    // Windows of whole passes with at least 1000 ops, so each window's
    // tail is a p99.
    std::vector<Window> Windows(1);
    for (const PassOutcome &P : Passes) {
      if (Windows.back().Ms.size() >= 1000)
        Windows.emplace_back();
      Window &W = Windows.back();
      W.Ms.insert(W.Ms.end(), P.OpMs.begin(), P.OpMs.end());
      W.Seconds += P.WallSec;
    }
    if (Windows.size() > 1 && Windows.back().Ms.size() < 1000) {
      Window Last = Windows.back(); // A short tail joins its predecessor.
      Windows.pop_back();
      Windows.back().Ms.insert(Windows.back().Ms.end(), Last.Ms.begin(),
                               Last.Ms.end());
      Windows.back().Seconds += Last.Seconds;
    }
    reportWindows(R, Windows, Host, /*ScaleRate=*/true);
    R.set("sim_tflops_geomean", simTflopsGeomean());
    R.set("peak_rss_mb", selfPeakRssMb());
    return;
  }

  SpanLog L;
  Counters CompileWork;
  if (B.Name == "sweep-timing") {
    // The Sweep driver's own entry points, once per traced run, and the
    // compile layers below Sweep::prewarm re-issued once per distinct key.
    B.runner().clearProgramCache();
    int Id = L.begin("driver.sweep.prewarm");
    B.S->prewarm();
    L.end(Id);
    std::set<std::string> Keys;
    for (const Point &Pt : B.Points) {
      std::string Key = compileKeyOf(B.runner(), Pt);
      if (Key.empty() || !Keys.insert(Key).second)
        continue;
      std::string Err;
      uint64_t Mine = decomposeCompile(B.runner(), Pt, L, Id, CompileWork, Err);
      uint64_t Theirs = cachedProgramShape(B.runner(), Pt);
      if (!Err.empty() || Mine != Theirs)
        R.fail(formatString("%s: re-issued compile (%s) does not reproduce "
                            "the prewarmed program (%016llx vs %016llx)",
                            Pt.Label.c_str(), Err.c_str(),
                            static_cast<unsigned long long>(Mine),
                            static_cast<unsigned long long>(Theirs)));
    }
    Id = L.begin("driver.sweep.run");
    B.S->run();
    L.end(Id);
  }
  std::vector<PassOutcome> Traced;
  Elapsed = 0;
  while (Traced.empty() || Elapsed < Budget) {
    Traced.push_back(pass(&L));
    Elapsed += Traced.back().WallSec;
  }
  checkPasses(Traced, R); // With the layer counters added.
  for (const auto &[K, V] : CompileWork)
    R.Work[K] += V;
  for (const PassOutcome &P : Traced) {
    R.Attempted += P.C.at("ops");
    R.Failed += P.Failed;
  }
  R.note(formatString("%zu traced passes in %.3f s, %zu spans", Traced.size(),
                      Elapsed, L.spans().size()));
  L.write(Cfg.RunDir + "/spans.jsonl");
  perLayer(L, Traced, opsPerS(Passes));
  // The serve layers are measured on the gated sweep-timing run, since
  // serve-mixed itself is run by hand only (README.md, Noise).
  if (B.Name == "sweep-timing")
    traceServeLayers(Cfg, R);
}

void BatchRun::perLayer(const SpanLog &L,
                        const std::vector<PassOutcome> &Traced,
                        double UntracedOpsPerS) {
  const Counters &C = R.Work; // One traced pass, plus the compile layers.
  reportLayers(R, L, C, static_cast<double>(Traced.size()));
  auto Get = [&](const char *K) -> double {
    auto It = C.find(K);
    return It == C.end() ? 0 : static_cast<double>(It->second);
  };
  double Hits = Get("cache_hits"), Misses = Get("compiles");
  R.set("support.program_cache.hits", Hits);
  R.set("support.program_cache.misses", Misses);
  R.set("support.program_cache.hit_ratio",
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  R.set("support.program_cache.evictions", Get("cache_evictions"));
  R.set("support.program_cache.resident_bytes",
        static_cast<double>(ProgramCache::shared().getStats().Bytes));
  R.set("driver.sweep.run_compiles",
        B.Name == "sweep-timing"
            ? static_cast<double>(B.S->stats().RunCompiles)
            : 0);
  if (B.Name == "sweep-timing" && B.S->stats().RunCompiles != 0)
    R.fail("Sweep::run compiled after Sweep::prewarm");
  // Traced passes' wall time includes the re-issued layer calls.
  double TracedOpsPerS = opsPerS(Traced);
  R.note(formatString("tracing: %.2f ops/s untraced, %.2f ops/s traced",
                      UntracedOpsPerS, TracedOpsPerS));
  R.set("trace.overhead_ratio", UntracedOpsPerS / TracedOpsPerS);
}

} // namespace

int batchSetupOnly(const std::string &Workload) {
  Batch B(Workload);
  std::string Err = B.setUp();
  return Err.empty() ? 0 : 1;
}

void runBatch(const RunConfig &Cfg, Result &R) {
  BatchRun Run(Cfg, R);
  Run.run();
}

} // namespace pb

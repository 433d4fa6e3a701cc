//===- Common.cpp - Shared plumbing of the perfbench harness ---------------===//

#include "Common.h"

#include "support/Subprocess.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <memory>

#include <sys/resource.h>

namespace pb {

namespace {
const Clock::time_point Epoch = Clock::now();
} // namespace

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (std::isinf(V[Lo]) || std::isinf(V[Hi]))
    return Frac > 0 ? V[Hi] : V[Lo];
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail tailOf(const std::vector<double> &V) {
  double N = static_cast<double>(V.size());
  for (double Pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (N * (1.0 - Pct / 100.0) >= 10.0)
      return {Pct, quantile(V, Pct / 100.0)};
  return {0, 0};
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

int SpanLog::begin(const std::string &Name, int Parent) {
  double T = nowUs();
  return add(Name, T, T, Parent);
}

void SpanLog::end(int Id) { Spans[static_cast<size_t>(Id)].EndUs = nowUs(); }

int SpanLog::add(const std::string &Name, double StartUs, double EndUs,
                 int Parent) {
  Spans.push_back({Name, StartUs, EndUs, Parent});
  return static_cast<int>(Spans.size() - 1);
}

double SpanLog::selfUs(int Id) const {
  double Self = Spans[static_cast<size_t>(Id)].durUs();
  // Children are recorded after their parent.
  for (size_t I = static_cast<size_t>(Id) + 1; I < Spans.size(); ++I)
    if (Spans[I].Parent == Id)
      Self -= Spans[I].durUs();
  return Self;
}

double SpanLog::medianUs(const std::string &Name) const {
  std::vector<double> D;
  for (const Span &S : Spans)
    if (S.Name == Name)
      D.push_back(S.durUs());
  return median(std::move(D));
}

double SpanLog::medianSelfUs(const std::string &Name) const {
  std::vector<double> D;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == Name)
      D.push_back(selfUs(static_cast<int>(I)));
  return median(std::move(D));
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (size_t I = 0; I < Spans.size(); ++I)
    Out << tawa::formatString(
        "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
        "\"parent\":%d}\n",
        I, Spans[I].Name.c_str(), Spans[I].StartUs, Spans[I].EndUs,
        Spans[I].Parent);
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Result::fail(const std::string &Why) {
  Correct = false;
  note("INCORRECT: " + Why);
}

double timeSelfSpawn(const std::vector<std::string> &Args) {
  tawa::Subprocess::Options Opts;
  Opts.Argv = {"/proc/self/exe"};
  Opts.Argv.insert(Opts.Argv.end(), Args.begin(), Args.end());
  Clock::time_point T0 = Clock::now();
  std::string Err;
  std::unique_ptr<tawa::Subprocess> Child =
      tawa::Subprocess::spawn(Opts, Err);
  if (!Child)
    return -1;
  tawa::Subprocess::ExitStatus St = Child->wait();
  double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
  return !St.Signaled && St.Code == 0 ? Sec : -1;
}

double selfPeakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double HostSpeed::factor() const {
  double M = median(Ms);
  return M > 0 ? ReferenceMs / M : 1.0;
}

void HostSpeed::report(Result &R) const {
  R.note(tawa::formatString(
      "host speed: %zu calibration samples, median %.4f ms (p25 %.4f, p75 "
      "%.4f; reference %.4f ms): host-time metrics x %.4f",
      Ms.size(), median(Ms), quantile(Ms, 0.25), quantile(Ms, 0.75),
      ReferenceMs, factor()));
}

void reportSetup(Result &R, const std::vector<double> &Samples,
                 const HostSpeed &Host) {
  std::string List;
  for (double S : Samples)
    List += tawa::formatString(" %.4f", S);
  R.note(tawa::formatString("setup: %zu samples (s, raw):%s; median %.6f",
                            Samples.size(), List.c_str(), median(Samples)));
  R.set("setup_s", median(Samples) * Host.factor());
}

void reportWindows(Result &R, const std::vector<Window> &Windows,
                   const HostSpeed &Host, bool ScaleRate) {
  std::vector<double> Rate, P50, Tails;
  size_t N = 0;
  double Pct = 100;
  for (const Window &W : Windows) {
    Tail T = tailOf(W.Ms);
    // Completions: a failed op's latency is +inf.
    Rate.push_back(static_cast<double>(std::count_if(
                       W.Ms.begin(), W.Ms.end(),
                       [](double X) { return !std::isinf(X); })) /
                   W.Seconds);
    P50.push_back(median(W.Ms));
    Tails.push_back(T.Value);
    Pct = std::min(Pct, T.Pct);
    N += W.Ms.size();
  }
  std::string Each;
  for (size_t I = 0; I < Windows.size(); ++I)
    Each += tawa::formatString(" [%.4g ops/s p50 %.4g tail %.4g]", Rate[I],
                               P50[I], Tails[I]);
  R.note("windows:" + Each);
  R.note(tawa::formatString(
      "latency: %zu ops in %zu windows; medians over windows (raw): %.2f "
      "ops/s, p50 %.4f ms, p%.1f %.4f ms (reported as op_p99_ms)",
      N, Windows.size(), median(Rate), median(P50), Pct, median(Tails)));
  double F = Host.factor();
  R.set("ops_per_s", ScaleRate ? median(Rate) / F : median(Rate));
  R.set("op_p50_ms", median(P50) * F);
  R.set("op_p99_ms", median(Tails) * F);
}

const std::vector<std::pair<std::string, std::string>> &
metricTable(bool PerLayer) {
  static const std::vector<std::pair<std::string, std::string>> EndToEnd = {
      {"setup_s", "s"},           {"ops_per_s", "ops/s"},
      {"op_p50_ms", "ms"},        {"op_p99_ms", "ms"},
      {"sim_tflops_geomean", "TFLOP/s"},
      {"peak_rss_mb", "MB"}};
  static const std::vector<std::pair<std::string, std::string>> Layers = [] {
    std::vector<std::pair<std::string, std::string>> T = {
        {"frontend.build_us", "us"},
        {"frontend.ir_ops", "count"},
        {"passes.run_us", "us"}};
    for (const char *P : PassNames)
      T.push_back({std::string("passes.") + P + "_us", "us"});
    for (auto [N, U] : std::initializer_list<std::pair<const char *,
                                                       const char *>>{
             {"passes.ir_ops_out", "count"},
             {"ir.parse_us", "us"},
             {"ir.parse_mb_per_s", "MB/s"},
             {"sim.bytecode.flatten_us", "us"},
             {"sim.bytecode.insts", "count"},
             {"sim.bytecode.serialize_us", "us"},
             {"sim.bytecode.deserialize_us", "us"},
             {"sim.bytecode.program_bytes", "bytes"},
             {"sim.peephole.fuse_us", "us"},
             {"sim.peephole.fused_insts_ratio", "ratio"},
             {"support.program_cache.lookup_us", "us"},
             {"support.program_cache.hits", "count"},
             {"support.program_cache.misses", "count"},
             {"support.program_cache.hit_ratio", "ratio"},
             {"support.program_cache.evictions", "count"},
             {"support.program_cache.resident_bytes", "bytes"},
             {"sim.interpreter.timing_us", "us"},
             {"sim.interpreter.ctas", "count"},
             {"sim.interpreter.actions", "count"},
             {"sim.interpreter.ns_per_action", "ns"},
             {"sim.interpreter.hb_events", "count"},
             {"sim.interpreter.functional_us", "us"},
             {"sim.interpreter.macs", "count"},
             {"sim.interpreter.ns_per_mac", "ns"},
             {"sim.replay.us", "us"},
             {"sim.replay.actions_replayed", "count"},
             {"sim.replay.ns_per_action", "ns"},
             {"sim.replay.sim_cycles", "cycles"},
             {"support.worker_pool.workers_effective", "count"},
             {"support.worker_pool.batch_1w_us", "us"},
             {"support.worker_pool.batch_default_us", "us"},
             {"driver.runner.self_us", "us"},
             {"driver.runner.reference_us", "us"},
             {"driver.sweep.prewarm_us", "us"},
             {"driver.sweep.run_compiles", "count"},
             {"serve.protocol.parse_us", "us"},
             {"serve.protocol.render_us", "us"},
             {"serve.protocol.request_bytes", "bytes"},
             {"serve.execute.us", "us"},
             {"serve.service.call_us", "us"},
             {"serve.service.self_us", "us"},
             {"serve.service.queue_depth_p99", "count"},
             {"serve.service.retries", "count"},
             {"serve.service.degrade_steps", "count"},
             {"serve.service.rejected_overload", "count"},
             {"serve.service.slo_rps", "req/s"},
             {"serve.socket.rtt_self_us", "us"},
             {"trace.overhead_ratio", "ratio"}})
      T.push_back({N, U});
    return T;
  }();
  return PerLayer ? Layers : EndToEnd;
}

} // namespace pb

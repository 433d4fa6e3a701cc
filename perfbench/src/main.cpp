//===- main.cpp - perfbench harness entry point ----------------------------===//
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --run-dir DIR
//   perfbench --setup-only --workload W
//
// Prints report lines ("# ..."), one "COUNTERS {...}" line with the work
// counters of a pass, and, last, the result document:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// perfbench/run.py builds this binary and is the command users run.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sim/Interpreter.h"
#include "support/Support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

extern char **environ;

using namespace pb;

namespace {

/// Removes every inherited TAWA_* variable (cache dir, fusion kill switch,
/// fault specs, step budgets, serve and sandbox knobs) so each run measures
/// the defaults.
void scrubEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "TAWA_", 5) == 0)
      Names.emplace_back(*E, std::strchr(*E, '=') - *E);
  for (const std::string &N : Names)
    ::unsetenv(N.c_str());
}

bool instrumentedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return std::strstr(PERFBENCH_BUILD_TYPE, "Debug") != nullptr;
}

std::string counterJson(const Counters &C) {
  std::string S = "{";
  for (const auto &[K, V] : C)
    S += tawa::formatString("%s\"%s\":%lld", S.size() > 1 ? "," : "",
                            K.c_str(), static_cast<long long>(V));
  return S + "}";
}

void print(Result &R, bool PerLayer) {
  const auto &Table = metricTable(PerLayer);
  for (const auto &[Name, Value] : R.Metrics)
    if (std::none_of(Table.begin(), Table.end(),
                     [&](const auto &E) { return E.first == Name; }))
      R.fail("metric outside the table: " + Name);
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  std::printf("COUNTERS %s\n", counterJson(R.Work).c_str());
  // Every metric of the table, in table order; a layer the workload does
  // not reach reads 0.
  std::string M;
  for (const auto &[Name, Unit] : Table) {
    auto It = R.Metrics.find(Name);
    M += tawa::formatString(
        "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", M.empty() ? "" : ",",
        Name.c_str(), It == R.Metrics.end() ? 0.0 : It->second,
        Unit.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              R.Correct ? "true" : "false",
              static_cast<long long>(R.Attempted),
              static_cast<long long>(R.Failed), M.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                       "--trace 0|1 --run-dir DIR\n"
                       "       perfbench --setup-only --workload W\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  scrubEnvironment();
  RunConfig Cfg;
  bool SetupOnly = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasVal = I + 1 < argc;
    if (A == "--setup-only")
      SetupOnly = true;
    else if (A == "--workload" && HasVal)
      Cfg.Workload = argv[++I];
    else if (A == "--seed" && HasVal)
      Cfg.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasVal)
      Cfg.Seconds = std::atof(argv[++I]);
    else if (A == "--trace" && HasVal)
      Cfg.Trace = std::atoi(argv[++I]) != 0;
    else if (A == "--run-dir" && HasVal)
      Cfg.RunDir = argv[++I];
    else
      return usage();
  }
  bool Batch = Cfg.Workload == "sweep-timing" ||
               Cfg.Workload == "verify-functional" ||
               Cfg.Workload == "compile-grid" ||
               Cfg.Workload == "known-failures";
  if (!Batch && Cfg.Workload != "serve-mixed")
    return usage();
  if (SetupOnly)
    return Batch ? batchSetupOnly(Cfg.Workload) : usage();
  if (Cfg.RunDir.empty() || Cfg.Seconds <= 0)
    return usage();
  if (instrumentedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a sanitizer, "
                         "coverage or debug build\n");
    return 3;
  }

  Result R;
  R.note(tawa::formatString("env: nproc=%ld workers=%lld compiler=%s "
                            "build_type=%s seed=%llu seconds=%g trace=%d",
                            ::sysconf(_SC_NPROCESSORS_ONLN),
                            static_cast<long long>(
                                tawa::sim::resolveNumWorkers(0)),
                            PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                            static_cast<unsigned long long>(Cfg.Seed),
                            Cfg.Seconds, Cfg.Trace ? 1 : 0));
  if (Batch)
    runBatch(Cfg, R);
  else
    runServe(Cfg, R);
  print(R, Cfg.Trace);
  return 0;
}

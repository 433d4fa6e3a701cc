//===- Replay.cpp - Timed co-simulation of agent traces -----------------------//
//
// Scheduling rule: the runnable agent furthest behind (smallest ReadyAt,
// lowest index on ties) takes the next step. Rather than rescanning every
// agent before each action, the engine picks that agent once, bounds the
// other runnable agents' ReadyAt (separately for lower and higher indices)
// and keeps stepping it until a rescan could pick someone else: it blocks
// or finishes, its ReadyAt reaches the lower-index bound or passes the
// higher-index bound, or a phase flip wakes a waiter. The sequence of
// steps — and so every result — is exactly the rescan's.
//
// All per-CTA state is flat and reused across the CTAs of one schedule:
// one barrier vector with per-array offsets, and per-agent MMA FIFOs and
// iteration histories that keep their storage between CTAs.
//
//===----------------------------------------------------------------------===//

#include "sim/Replay.h"

#include "support/Support.h"

#include <algorithm>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// One transaction mbarrier (a single index of a barrier array).
struct TimedBarrier {
  int64_t ExpectedArrivals = 1;
  int64_t Arrivals = 0;
  int64_t ExpectedTxBytes = 0;
  int64_t ArrivedTxBytes = 0;
  double PhaseMaxTime = 0;
  int64_t Completions = 0;
  /// Time of the newest phase flip. Waiters only ever need that one: a
  /// blocked agent is woken by the flip right after the one it saw, and a
  /// non-blocking wait reads the flip that already happened.
  double LastCompletion = 0;

  bool phaseComplete() const {
    return Arrivals >= ExpectedArrivals && ArrivedTxBytes >= ExpectedTxBytes;
  }
};

/// Iteration starts kept for pipelined-copy lookahead; a deeper lookahead
/// falls back to the CTA's start.
constexpr int64_t IterHistory = 64;

struct AgentState {
  const AgentTrace *Trace = nullptr;
  size_t Pc = 0;
  double ReadyAt = 0;
  bool Done = false;
  bool Blocked = false;
  size_t BlockBarrier = 0; ///< Flat index of the barrier waited on.
  int64_t BlockTargetCompletion = 0;
  /// In-flight MMA completion times, FIFO from TensorHead. Rewound when it
  /// drains, so it grows at most to the agent's MMAs between two drains.
  std::vector<double> TensorInflight;
  size_t TensorHead = 0;
  /// Ring of the last IterHistory IterMark times; slot I % IterHistory
  /// holds mark I.
  double IterStarts[IterHistory] = {};
  int64_t IterMarks = 0;
};

class ReplayEngine {
public:
  ReplayEngine(const GpuConfig &Config, const ReplayParams &Params)
      : Config(Config), Params(Params) {}

  ReplayResult run(const std::vector<const CtaTrace *> &Ctas);

private:
  void startCta(const CtaTrace &Cta);
  /// Co-simulates the current CTA to completion; false on deadlock.
  bool runCta();
  void step(AgentState &Agent);
  void arrive(size_t Bar, double Time, int64_t TxBytes);
  size_t barrierIndex(int32_t Bar, int32_t Idx) const {
    return BarrierOffsets[Bar] + Idx;
  }
  /// Schedules a DRAM transfer issued at \p IssueTime; returns completion.
  /// \p Reuse scales the bytes that actually consume DRAM bandwidth (loads
  /// benefit from L2 reuse across CTAs; stores do not).
  double scheduleTransfer(double IssueTime, int64_t Bytes, double Latency,
                          double BwEfficiency, double Reuse);
  void wakeWaiters(size_t Bar);

  const GpuConfig &Config;
  const ReplayParams &Params;
  std::vector<AgentState> Agents;
  std::vector<TimedBarrier> Barriers;  ///< Every barrier of the CTA.
  std::vector<size_t> BarrierOffsets;  ///< First flat index per array.
  bool Woke = false;   ///< A phase flip unblocked an agent this step.
  double TcFree = 0;   ///< Tensor-core server.
  double DramFree = 0; ///< DRAM bandwidth server (per-SM share).
  ReplayResult Result;
  double BaseTime = 0; ///< Start offset of the current CTA.
};

} // namespace

double ReplayEngine::scheduleTransfer(double IssueTime, int64_t Bytes,
                                      double Latency, double BwEfficiency,
                                      double Reuse) {
  double EffBytes = static_cast<double>(Bytes) * Reuse;
  double BwPerSm = Config.HbmTBps * 1e12 /
                   (Params.BwShareSms * Config.ClockGhz * 1e9) * BwEfficiency;
  double ServiceStart = std::max(IssueTime, DramFree);
  DramFree = ServiceStart + EffBytes / BwPerSm;
  Result.DramBusyCycles += EffBytes / BwPerSm;
  Result.DramBytes += static_cast<int64_t>(EffBytes);
  return DramFree + Latency;
}

void ReplayEngine::wakeWaiters(size_t Bar) {
  const TimedBarrier &B = Barriers[Bar];
  for (AgentState &A : Agents) {
    if (!A.Blocked || A.BlockBarrier != Bar ||
        B.Completions < A.BlockTargetCompletion)
      continue;
    A.Blocked = false;
    A.ReadyAt = std::max(A.ReadyAt, B.LastCompletion);
    Woke = true;
  }
}

void ReplayEngine::arrive(size_t Bar, double Time, int64_t TxBytes) {
  TimedBarrier &B = Barriers[Bar];
  ++B.Arrivals;
  B.ArrivedTxBytes += TxBytes;
  B.PhaseMaxTime = std::max(B.PhaseMaxTime, Time);
  if (!B.phaseComplete())
    return;
  // Phase flip: record completion, reset for the next phase.
  ++B.Completions;
  B.LastCompletion = B.PhaseMaxTime;
  B.Arrivals = 0;
  B.ArrivedTxBytes = 0;
  B.ExpectedTxBytes = 0;
  B.PhaseMaxTime = 0;
  wakeWaiters(Bar);
}

/// Executes one action of \p Agent, or marks it Done past its last action.
/// A wait that cannot complete yet consumes its action and blocks.
void ReplayEngine::step(AgentState &Agent) {
  if (Agent.Pc >= Agent.Trace->Actions.size()) {
    Agent.Done = true;
    return;
  }
  const Action &A = Agent.Trace->Actions[Agent.Pc++];
  switch (A.Kind) {
  case ActionKind::CudaWork:
  case ActionKind::CtaSync:
    Agent.ReadyAt += A.Cycles * Params.CudaPenalty;
    break;
  case ActionKind::TensorIssue: {
    Agent.ReadyAt += Config.WgmmaIssueCycles;
    double Start = std::max(Agent.ReadyAt, TcFree);
    double Done = Start + A.Cycles * Params.TensorPenalty;
    TcFree = Done;
    Result.TensorBusyCycles += A.Cycles * Params.TensorPenalty;
    Agent.TensorInflight.push_back(Done);
    break;
  }
  case ActionKind::TensorWait: {
    const std::vector<double> &Fifo = Agent.TensorInflight;
    size_t Head = Agent.TensorHead;
    // A negative bound drains everything, as 0 does.
    size_t Keep = static_cast<size_t>(std::max<int32_t>(A.Pendings, 0));
    while (Fifo.size() - Head > Keep)
      Agent.ReadyAt = std::max(Agent.ReadyAt, Fifo[Head++]);
    // Retire anything that has already finished.
    while (Head < Fifo.size() && Fifo[Head] <= Agent.ReadyAt)
      ++Head;
    if (Head == Fifo.size()) {
      Agent.TensorInflight.clear();
      Head = 0;
    }
    Agent.TensorHead = Head;
    break;
  }
  case ActionKind::TmaIssue: {
    Agent.ReadyAt += A.Cycles;
    double Done =
        scheduleTransfer(Agent.ReadyAt, A.Bytes, Config.TmaLatencyCycles,
                         Config.TmaBwEfficiency, Params.DramReuseFactor);
    arrive(barrierIndex(A.Bar, A.Idx), Done, A.Bytes);
    break;
  }
  case ActionKind::BarExpectTx: {
    Agent.ReadyAt += A.Cycles;
    Barriers[barrierIndex(A.Bar, A.Idx)].ExpectedTxBytes += A.Bytes;
    break;
  }
  case ActionKind::BarArrive: {
    Agent.ReadyAt += A.Cycles;
    arrive(barrierIndex(A.Bar, A.Idx), Agent.ReadyAt, 0);
    break;
  }
  case ActionKind::BarWait: {
    Agent.ReadyAt += A.Cycles;
    size_t Bar = barrierIndex(A.Bar, A.Idx);
    const TimedBarrier &B = Barriers[Bar];
    if (B.Completions % 2 != A.Parity) {
      // Already flipped; data became available at the last completion.
      if (B.Completions > 0)
        Agent.ReadyAt = std::max(Agent.ReadyAt, B.LastCompletion);
      break;
    }
    // Must wait for the next phase flip; the wait completes when woken.
    Agent.Blocked = true;
    Agent.BlockBarrier = Bar;
    Agent.BlockTargetCompletion = B.Completions + 1;
    break;
  }
  case ActionKind::GStoreAsync: {
    Agent.ReadyAt += A.Cycles;
    scheduleTransfer(Agent.ReadyAt, A.Bytes, 0, Config.TmaBwEfficiency,
                     /*Reuse=*/1.0);
    break;
  }
  case ActionKind::GLoadSync: {
    Agent.ReadyAt += A.Cycles;
    double Done = scheduleTransfer(Agent.ReadyAt, A.Bytes,
                                   Config.SyncLoadLatencyCycles,
                                   Config.TmaBwEfficiency,
                                   Params.DramReuseFactor);
    Agent.ReadyAt = Done;
    break;
  }
  case ActionKind::CopyPipelined: {
    // Software pipelining: the copy consumed now was issued Lookahead-1
    // iterations ago (or at the start of the CTA for the prologue).
    Agent.ReadyAt += A.Cycles; // cp.async CUDA-core issue cost.
    double IssueTime = BaseTime;
    if (A.Lookahead >= 1 &&
        A.Lookahead <= std::min(Agent.IterMarks, IterHistory))
      IssueTime =
          Agent.IterStarts[(Agent.IterMarks - A.Lookahead) % IterHistory];
    double Done = scheduleTransfer(std::max(IssueTime, BaseTime), A.Bytes,
                                   Config.CpAsyncLatencyCycles,
                                   Config.CpAsyncBwEfficiency,
                                   Params.DramReuseFactor);
    Agent.ReadyAt = std::max(Agent.ReadyAt, Done);
    break;
  }
  case ActionKind::IterMark:
    Agent.IterStarts[Agent.IterMarks++ % IterHistory] = Agent.ReadyAt;
    break;
  }
}

void ReplayEngine::startCta(const CtaTrace &Cta) {
  BarrierOffsets.resize(Cta.NumBarrierArrays);
  size_t NumBarriers = 0;
  for (int32_t B = 0; B < Cta.NumBarrierArrays; ++B) {
    BarrierOffsets[B] = NumBarriers;
    NumBarriers += Cta.BarrierSizes[B];
  }
  Barriers.assign(NumBarriers, TimedBarrier());
  for (int32_t B = 0; B < Cta.NumBarrierArrays; ++B)
    for (int64_t I = 0; I < Cta.BarrierSizes[B]; ++I)
      Barriers[BarrierOffsets[B] + I].ExpectedArrivals =
          Cta.BarrierArrivals[B];

  Agents.resize(Cta.Agents.size());
  for (size_t I = 0; I < Agents.size(); ++I) {
    AgentState &S = Agents[I];
    S.Trace = &Cta.Agents[I];
    S.Pc = 0;
    S.ReadyAt = BaseTime;
    S.Done = false;
    S.Blocked = false;
    S.TensorInflight.clear();
    S.TensorHead = 0;
    S.IterMarks = 0;
  }
}

bool ReplayEngine::runCta() {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  const size_t NumAgents = Agents.size();
  while (true) {
    // Pick the runnable agent furthest behind (the first on ties), so
    // shared-server (DRAM / tensor core) contention is processed in
    // approximately global time order. Alongside, the smallest ReadyAt of
    // the other runnable agents before it (Before) and after it (After).
    size_t Best = NumAgents;
    double SeenMin = Inf, Before = Inf, After = Inf;
    for (size_t I = 0; I < NumAgents; ++I) {
      const AgentState &A = Agents[I];
      if (A.Done || A.Blocked)
        continue;
      if (Best == NumAgents || A.ReadyAt < Agents[Best].ReadyAt) {
        Best = I;
        Before = SeenMin;
        After = Inf;
      } else {
        After = std::min(After, A.ReadyAt);
      }
      SeenMin = std::min(SeenMin, A.ReadyAt);
    }
    if (Best == NumAgents) {
      for (const AgentState &A : Agents)
        if (A.Blocked)
          return false;
      return true; // All done.
    }
    // Run it until a rescan could choose differently.
    AgentState &A = Agents[Best];
    Woke = false;
    do
      step(A);
    while (!A.Done && !A.Blocked && !Woke && A.ReadyAt < Before &&
           A.ReadyAt <= After);
  }
}

ReplayResult ReplayEngine::run(const std::vector<const CtaTrace *> &Ctas) {
  double SmTime = Config.launchCycles();
  for (const CtaTrace *Cta : Ctas) {
    BaseTime = SmTime + Config.CtaStartCycles;
    startCta(*Cta);
    if (!runCta()) {
      Result.Deadlock = true;
      Result.Error = "replay deadlock: all agents blocked on mbarriers";
      return Result;
    }

    double CtaEnd = BaseTime;
    for (const AgentState &A : Agents)
      CtaEnd = std::max(CtaEnd, A.ReadyAt);
    // A CTA retires only after its asynchronous global stores drain; the
    // next wave's CTA cannot occupy the SM before that. Persistent kernels
    // have a single CTA per SM and thus fully hide their epilogues.
    if (Ctas.size() > 1)
      CtaEnd = std::max(CtaEnd, DramFree);
    SmTime = CtaEnd + Params.CtaGapCycles;
  }

  // Let the DRAM drain (epilogue stores in flight).
  Result.Cycles = std::max(SmTime, DramFree);
  return Result;
}

ReplayResult tawa::sim::replaySmSchedule(
    const std::vector<const CtaTrace *> &Ctas, const GpuConfig &Config,
    const ReplayParams &Params) {
  return ReplayEngine(Config, Params).run(Ctas);
}

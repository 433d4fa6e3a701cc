//===- replay_test.cpp - Timed co-simulation engine tests ---------------------//
//
// Hand-built action traces exercising the replay engine: mbarrier parity
// waits and transaction counts, tensor-core FIFO waits, async-TMA overlap,
// deadlock detection, DRAM serialization, the software-pipelined copy
// lookahead, and the scheduler's tie-break and wake hand-off rules. The
// ReplayPin cases pin end-to-end timing-mode results bit for bit, one point
// per schedule shape, so a replay rewrite cannot drift a single ulp.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"
#include "ir/Parser.h"
#include "sim/Interpreter.h"
#include "sim/Replay.h"

#include <gtest/gtest.h>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

namespace {

Action cuda(double Cycles) {
  Action A;
  A.Kind = ActionKind::CudaWork;
  A.Cycles = Cycles;
  return A;
}
Action tensorIssue(double Cycles) {
  Action A;
  A.Kind = ActionKind::TensorIssue;
  A.Cycles = Cycles;
  return A;
}
Action tensorWait(int64_t Pendings) {
  Action A;
  A.Kind = ActionKind::TensorWait;
  A.Pendings = Pendings;
  return A;
}
Action tmaIssue(int32_t Bar, int32_t Idx, int64_t Bytes) {
  Action A;
  A.Kind = ActionKind::TmaIssue;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Bytes = Bytes;
  A.Cycles = 10;
  return A;
}
Action expectTx(int32_t Bar, int32_t Idx, int64_t Bytes) {
  Action A;
  A.Kind = ActionKind::BarExpectTx;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Bytes = Bytes;
  return A;
}
Action arrive(int32_t Bar, int32_t Idx) {
  Action A;
  A.Kind = ActionKind::BarArrive;
  A.Bar = Bar;
  A.Idx = Idx;
  return A;
}
Action wait(int32_t Bar, int32_t Idx, int32_t Parity) {
  Action A;
  A.Kind = ActionKind::BarWait;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Parity = Parity;
  return A;
}

CtaTrace makeCta(std::vector<AgentTrace> Agents, int32_t NumBars,
                 std::vector<int64_t> Arrivals) {
  CtaTrace T;
  T.Agents = std::move(Agents);
  T.NumBarrierArrays = NumBars;
  for (int I = 0; I < NumBars; ++I) {
    T.BarrierArrivals.push_back(Arrivals[I]);
    T.BarrierSizes.push_back(4);
  }
  return T;
}

TEST(Replay, PureComputeAccumulates) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(cuda(1000));
  A.emit(cuda(500));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  EXPECT_GE(R.Cycles, 1500.0);
}

TEST(Replay, BarrierWaitBlocksUntilArrival) {
  // Agent 0 arrives at t~5000; agent 1 waits from t~0.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(cuda(5000));
  P.emit(arrive(0, 0));
  C.Name = "consumer";
  C.emit(wait(0, 0, /*Parity=*/0)); // Blocks until the first completion.
  C.emit(cuda(100));
  CtaTrace T = makeCta({P, C}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 5000 + 100);
}

TEST(Replay, ParityOneSailsThroughFreshBarrier) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(wait(0, 0, /*Parity=*/1)); // Phase bit 0 != 1: no blocking.
  A.emit(cuda(10));
  CtaTrace T = makeCta({A}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
}

TEST(Replay, DeadlockDetected) {
  AgentTrace A, B;
  A.Name = "a";
  A.emit(wait(0, 0, 0));
  B.Name = "b";
  B.emit(wait(1, 0, 0));
  CtaTrace T = makeCta({A, B}, 2, {1, 1});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  EXPECT_TRUE(R.Deadlock);
}

TEST(Replay, TransactionCountGatesCompletion) {
  // The barrier expects 2 arrivals AND the full byte count; a single TMA
  // must not complete the phase.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 2048));
  P.emit(tmaIssue(0, 0, 1024));
  P.emit(cuda(200));
  P.emit(tmaIssue(0, 0, 1024));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {2});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  // Completion requires the second copy (issued after 200 cycles of work).
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 200 + Cfg.TmaLatencyCycles);
}

TEST(Replay, TensorWaitHonorsFifoOrder) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(tensorIssue(1000));
  A.emit(tensorIssue(1000));
  A.emit(tensorWait(1)); // Retire the first only.
  A.emit(cuda(1));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  // Finishes after the *second* MMA only because makespan covers agents'
  // issued work... the agent itself resumed after the first: its own time
  // is Base + issue costs + 1000 + 1. Total cycles include DRAM drain (none)
  // and the agent end, not the TC tail.
  EXPECT_GE(R.Cycles, Base + 1000);
  EXPECT_LT(R.Cycles, Base + 2 * 1000 + 500);
  EXPECT_NEAR(R.TensorBusyCycles, 2000, 1);
}

TEST(Replay, AsyncTmaOverlapsCompute) {
  // Producer issues a copy, consumer computes 10k cycles, then waits: the
  // transfer (latency ~750 + service) hides entirely under the compute.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 1024));
  P.emit(tmaIssue(0, 0, 1024));
  C.Name = "consumer";
  C.emit(cuda(10000));
  C.emit(wait(0, 0, 0));
  C.emit(cuda(100));
  CtaTrace T = makeCta({P, C}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_LT(R.Cycles, Base + 10000 + 100 + 200); // No added stall.
}

TEST(Replay, DramSerializesTransfers) {
  // Two large copies back-to-back: the second's completion reflects queueing
  // behind the first on the shared bandwidth server.
  GpuConfig Cfg;
  ReplayParams Params;
  Params.DramReuseFactor = 1.0;
  AgentTrace P, C;
  P.Name = "producer";
  int64_t Big = 1 << 20; // 1 MiB each.
  P.emit(expectTx(0, 0, 2 * Big));
  P.emit(tmaIssue(0, 0, Big));
  P.emit(tmaIssue(0, 0, Big));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {2});
  ReplayResult R = replaySmSchedule({&T}, Cfg, Params);
  double BwPerSm = Cfg.HbmTBps * 1e12 /
                   (Params.BwShareSms * Cfg.ClockGhz * 1e9) *
                   Cfg.TmaBwEfficiency;
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 2 * Big / BwPerSm);
  EXPECT_EQ(R.DramBytes, 2 * Big);
}

TEST(Replay, ReuseFactorScalesDramTraffic) {
  GpuConfig Cfg;
  ReplayParams Params;
  Params.DramReuseFactor = 0.25;
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 1 << 20));
  P.emit(tmaIssue(0, 0, 1 << 20));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {1});
  ReplayResult R = replaySmSchedule({&T}, Cfg, Params);
  EXPECT_EQ(R.DramBytes, (1 << 20) / 4);
}

TEST(Replay, TensorPenaltySlowsMmas) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(tensorIssue(1000));
  A.emit(tensorWait(0));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayParams Fast, Slow;
  Slow.TensorPenalty = 1.5;
  double FastCycles = replaySmSchedule({&T}, Cfg, Fast).Cycles;
  double SlowCycles = replaySmSchedule({&T}, Cfg, Slow).Cycles;
  EXPECT_NEAR(SlowCycles - FastCycles, 500, 1);
}

TEST(Replay, MultiCtaSchedulesSequentially) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(cuda(1000));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  double OneCta = replaySmSchedule({&T}, Cfg, ReplayParams()).Cycles;
  double ThreeCtas = replaySmSchedule({&T, &T, &T}, Cfg, ReplayParams()).Cycles;
  EXPECT_NEAR(ThreeCtas - OneCta, 2 * (1000 + Cfg.CtaStartCycles), 1);
}

TEST(Replay, PipelinedCopyUsesLookahead) {
  // Five iterations of (IterMark, CopyPipelined(lookahead=3), compute):
  // with the lookahead the copy for iteration k was issued at iteration
  // k-2's start, so the steady-state stall is far below the full
  // latency+service time.
  GpuConfig Cfg;
  auto MakeTrace = [&](int32_t Lookahead) {
    AgentTrace A;
    A.Name = "wg";
    for (int K = 0; K < 5; ++K) {
      Action Mark;
      Mark.Kind = ActionKind::IterMark;
      A.emit(Mark);
      Action Copy;
      Copy.Kind = ActionKind::CopyPipelined;
      Copy.Bytes = 64 << 10;
      Copy.Lookahead = Lookahead;
      Copy.Cycles = 10;
      A.emit(Copy);
      A.emit(cuda(2000));
    }
    return A;
  };
  CtaTrace Deep = makeCta({MakeTrace(3)}, 0, {});
  CtaTrace Shallow = makeCta({MakeTrace(1)}, 0, {});
  double DeepCycles = replaySmSchedule({&Deep}, Cfg, ReplayParams()).Cycles;
  double ShallowCycles =
      replaySmSchedule({&Shallow}, Cfg, ReplayParams()).Cycles;
  EXPECT_LT(DeepCycles, ShallowCycles);
}

/// The replay's per-SM DRAM bandwidth for a transfer class, in the exact
/// operation order Replay.cpp uses (so expectations can be bit-exact).
double bwPerSm(const GpuConfig &Cfg, const ReplayParams &Params,
               double Efficiency) {
  return Cfg.HbmTBps * 1e12 / (Params.BwShareSms * Cfg.ClockGhz * 1e9) *
         Efficiency;
}

TEST(Replay, EqualReadyAtGoesToLowestAgentIndex) {
  // Both agents are ready at the CTA base time and race for the tensor
  // core; the tie goes to agent 0, so agent 1's short MMA queues behind
  // agent 0's long one and its tail starts late.
  AgentTrace A0, A1;
  A0.Name = "wg0";
  A0.emit(tensorIssue(1000));
  A0.emit(tensorWait(0));
  A1.Name = "wg1";
  A1.emit(tensorIssue(10));
  A1.emit(tensorWait(0));
  A1.emit(cuda(5000));
  CtaTrace T = makeCta({A0, A1}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_EQ(R.Cycles, Base + Cfg.WgmmaIssueCycles + 1000 + 10 + 5000);
}

TEST(Replay, WakeOfEarlierAgentHandsControlBack) {
  // Agent 1 runs alone while agent 0 is blocked; its arrive wakes agent 0
  // at the same time. The woken, lower-index agent must take the next
  // step (and the tensor core) rather than agent 1 running on.
  AgentTrace A0, A1;
  A0.Name = "wg0";
  A0.emit(wait(0, 0, 0));
  A0.emit(tensorIssue(1000));
  A0.emit(tensorWait(0));
  A1.Name = "wg1";
  A1.emit(cuda(100));
  A1.emit(arrive(0, 0));
  A1.emit(cuda(1));
  A1.emit(tensorIssue(10));
  A1.emit(tensorWait(0));
  A1.emit(cuda(5000));
  CtaTrace T = makeCta({A0, A1}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  ASSERT_FALSE(R.Deadlock);
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_EQ(R.Cycles, Base + 100 + Cfg.WgmmaIssueCycles + 1000 + 10 + 5000);
}

TEST(Replay, LookaheadBeyondIterHistoryFallsBackToBaseTime) {
  // 70 iteration marks, then a pipelined copy. The history keeps the last
  // 64 marks: lookahead 64 reaches mark 6, lookahead 65 reaches nothing
  // and the copy counts as issued at the CTA's start.
  GpuConfig Cfg;
  ReplayParams Params;
  const int64_t Bytes = 1 << 20;
  auto Run = [&](int32_t Lookahead) {
    AgentTrace A;
    A.Name = "wg";
    for (int K = 0; K < 70; ++K) {
      Action Mark;
      Mark.Kind = ActionKind::IterMark;
      A.emit(Mark);
      A.emit(cuda(100));
    }
    Action Copy;
    Copy.Kind = ActionKind::CopyPipelined;
    Copy.Bytes = Bytes;
    Copy.Lookahead = static_cast<int16_t>(Lookahead);
    A.emit(Copy);
    CtaTrace T = makeCta({A}, 0, {});
    return replaySmSchedule({&T}, Cfg, Params).Cycles;
  };
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  double Service = static_cast<double>(Bytes) /
                   bwPerSm(Cfg, Params, Cfg.CpAsyncBwEfficiency);
  EXPECT_EQ(Run(65), Base + Service + Cfg.CpAsyncLatencyCycles);
  EXPECT_EQ(Run(1000), Run(65));
  EXPECT_NEAR(Run(64), Run(65) + 600, 1e-6);
}

TEST(Replay, TensorWaitDrainsLongFifo) {
  // 100 MMAs queue on the tensor core; wait(5) must resume exactly when
  // the 95th completes, wait(0) retires the rest, and the FIFO is reusable
  // afterwards.
  AgentTrace A;
  A.Name = "wg";
  for (int K = 0; K < 100; ++K)
    A.emit(tensorIssue(1000));
  A.emit(tensorWait(5));
  A.emit(cuda(10000));
  A.emit(tensorWait(0));
  A.emit(tensorIssue(1000));
  A.emit(tensorWait(0));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replaySmSchedule({&T}, Cfg, ReplayParams());
  double Done95 =
      Cfg.launchCycles() + Cfg.CtaStartCycles + Cfg.WgmmaIssueCycles;
  for (int K = 0; K < 95; ++K)
    Done95 += 1000;
  EXPECT_EQ(R.Cycles, Done95 + 10000 + Cfg.WgmmaIssueCycles + 1000);
  EXPECT_EQ(R.TensorBusyCycles, 101 * 1000.0);
}

TEST(Replay, NegativePendingsDrainsEverything) {
  // A negative bound (reachable from a parsed `pendings` attribute) acts
  // like 0, on an empty FIFO too.
  auto Run = [](int32_t Pendings) {
    AgentTrace A;
    A.Name = "wg";
    A.emit(tensorWait(Pendings));
    A.emit(tensorIssue(1000));
    A.emit(tensorIssue(1000));
    A.emit(tensorWait(Pendings));
    CtaTrace T = makeCta({A}, 0, {});
    return replaySmSchedule({&T}, GpuConfig(), ReplayParams()).Cycles;
  };
  EXPECT_EQ(Run(-1), Run(0));
  EXPECT_EQ(Run(std::numeric_limits<int32_t>::min()), Run(0));
}

TEST(Replay, ActionNarrowingSaturates) {
  EXPECT_EQ(narrowPendings(int64_t(1) << 32),
            std::numeric_limits<int32_t>::max());
  EXPECT_EQ(narrowPendings(-(int64_t(1) << 40)),
            std::numeric_limits<int32_t>::min());
  EXPECT_EQ(narrowPendings(3), 3);
  EXPECT_EQ(narrowLookahead(int64_t(1) << 32),
            std::numeric_limits<int16_t>::max());
  EXPECT_EQ(narrowLookahead(3), 3);
}

TEST(Replay, OversizedPendingsFromParsedIrWaitsForNothing) {
  // `pendings = 2^32` would truncate to 0 (drain everything) through a
  // plain int32 cast. Both engines must emit a saturated bound instead.
  const char *Text = R"(module {
  tt.func @k() {sym_name = "k"} {
    ttng.warp_group_dot_wait {pendings = 4294967296}
    tt.return
  }
}
)";
  for (bool Legacy : {false, true}) {
    IrContext Ctx;
    std::string Err;
    std::unique_ptr<Module> M = parseModule(Ctx, Text, Err);
    ASSERT_TRUE(M) << Err;
    GpuConfig Cfg;
    Interpreter Interp(*M, Cfg);
    RunOptions Opts;
    Opts.UseLegacyInterp = Legacy;
    CtaTrace T;
    ASSERT_EQ(Interp.runCta(Opts, 0, 0, T), "");
    int Waits = 0;
    for (const AgentTrace &Agent : T.Agents)
      for (const Action &Act : Agent.Actions)
        if (Act.Kind == ActionKind::TensorWait) {
          ++Waits;
          EXPECT_EQ(Act.Pendings, std::numeric_limits<int32_t>::max())
              << (Legacy ? "legacy" : "bytecode");
        }
    EXPECT_EQ(Waits, 1) << (Legacy ? "legacy" : "bytecode");
  }
}

//===----------------------------------------------------------------------===//
// Bit-identity pins: timing-mode Runner results, one point per schedule
// shape. The literals are exact (hexfloat); any change to replay order or
// arithmetic shows up here as a failure, not as a tolerance.
//===----------------------------------------------------------------------===//

GemmWorkload pinGemm(int64_t M, int64_t N, int64_t K) {
  GemmWorkload W;
  W.M = M;
  W.N = N;
  W.K = K;
  return W;
}

FrameworkEnvelope tawaGemmEnvelope(int64_t ConsumerGroups, bool Persistent) {
  FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, pinGemm(1, 1, 1));
  E.Options.NumConsumerGroups = ConsumerGroups;
  E.Options.Persistent = Persistent;
  // One consumer group cannot hold a 128x256 accumulator in registers.
  E.TileN = 128 * ConsumerGroups;
  return E;
}

void expectPinned(const RunResult &R, double Micros, double Utilization) {
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Micros, Micros);
  EXPECT_EQ(R.TensorUtilization, Utilization);
}

TEST(ReplayPin, PlainGemmRepeatsOneTrace) {
  // Non-WS, synchronous loads; 2048 tiles put 16 copies of one trace on SM0.
  Runner R;
  expectPinned(R.runGemm(Framework::TritonNoPipe, pinGemm(8192, 8192, 1024)),
               0x1.1b5444555b932p+10, 0x1.298d0a0058803p-3);
}

TEST(ReplayPin, WarpSpecializedGemm) {
  Runner R;
  expectPinned(R.runGemmCustom(pinGemm(8192, 8192, 1024),
                               tawaGemmEnvelope(1, false), false),
               0x1.fd29e9178984ep+7, 0x1.4b267a2287253p-1);
}

TEST(ReplayPin, CooperativeGemm) {
  Runner R;
  expectPinned(R.runGemmCustom(pinGemm(8192, 8192, 1024),
                               tawaGemmEnvelope(2, false), false),
               0x1.cb24528181cf8p+7, 0x1.6f3a58a84b54fp-1);
}

TEST(ReplayPin, PersistentGemm) {
  Runner R;
  expectPinned(R.runGemm(Framework::Tawa, pinGemm(4096, 4096, 1024)),
               0x1.c1533cca59c0dp+5, 0x1.774042776c6cdp-1);
}

TEST(ReplayPin, TritonCopyPipelinedGemm) {
  Runner R;
  expectPinned(R.runGemm(Framework::Triton, pinGemm(8192, 8192, 1024)),
               0x1.d4985a502dcdbp+7, 0x1.76365f927d53ep-1);
}

TEST(ReplayPin, CausalAttentionSampleList) {
  // 1024 CTAs: SM0 replays eight sampled CTAs of differing trip counts.
  AttentionWorkload W;
  W.SeqLen = 4096;
  W.Batch = 2;
  W.Heads = 16;
  W.Causal = true;
  Runner R;
  expectPinned(R.runAttention(Framework::Tawa, W),
               0x1.963b8c4a5ac5ep+7, 0x1.bf7bc06266c37p-1);
}

TEST(ReplayPin, SplitKGemm) {
  GemmWorkload W = pinGemm(512, 512, 16384);
  W.SplitK = 4;
  Runner R;
  expectPinned(R.runGemm(Framework::Tawa, W),
               0x1.9b8daf5b47201p+5, 0x1.99b0e085ef0bdp-1);
}

TEST(ReplayPin, GroupedGemm) {
  GemmWorkload W = pinGemm(0, 4096, 4096);
  W.MoE = true;
  W.GroupMs = {384, 768, 0, 1536};
  Runner R;
  expectPinned(R.runGemm(Framework::Tawa, W),
               0x1.2c035a212aac7p+7, 0x1.a5818252a3761p-1);
}

} // namespace

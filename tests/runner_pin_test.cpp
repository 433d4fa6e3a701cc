//===- runner_pin_test.cpp - Bit-exact RunResult of every Runner exit -----===//
//
// Pins the complete RunResult — error text, Kind, Supported, Feasible,
// RegsPerThread, SmemBytes and Micros / TFlops / TensorUtilization /
// MaxRelError as hexfloats — for every early and failure exit of the
// Runner's execute paths, plus one successful point per kernel family and
// mode. The values were captured before the execute paths were folded into
// one skeleton; any behaviour drift of that skeleton (a message, a check
// order, a penalty, a replay parameter) fails here.
//
// Not reachable from the public API, so not pinned: the "compile: " exit
// (the Runner's kernel builders always pass the pipeline) and the replay
// deadlock exit (the Runner never builds a DeadlockEpilogue kernel).
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace tawa;

namespace {

struct Pin {
  const char *Error;
  ErrorKind Kind;
  bool Supported;
  bool Feasible;
  int64_t RegsPerThread;
  int64_t SmemBytes;
  double Micros;
  double TFlops;
  double TensorUtilization;
  double MaxRelError;
};

const char *kindLiteral(ErrorKind K) {
  switch (K) {
  case ErrorKind::None: return "ErrorKind::None";
  case ErrorKind::Deadlock: return "ErrorKind::Deadlock";
  case ErrorKind::StepBudget: return "ErrorKind::StepBudget";
  case ErrorKind::WallClock: return "ErrorKind::WallClock";
  case ErrorKind::ProtocolViolation: return "ErrorKind::ProtocolViolation";
  case ErrorKind::WorkerCrash: return "ErrorKind::WorkerCrash";
  case ErrorKind::CacheIo: return "ErrorKind::CacheIo";
  case ErrorKind::CorruptProgram: return "ErrorKind::CorruptProgram";
  case ErrorKind::CompileError: return "ErrorKind::CompileError";
  case ErrorKind::Unsupported: return "ErrorKind::Unsupported";
  case ErrorKind::Infeasible: return "ErrorKind::Infeasible";
  case ErrorKind::SandboxCrash: return "ErrorKind::SandboxCrash";
  case ErrorKind::SandboxTimeout: return "ErrorKind::SandboxTimeout";
  case ErrorKind::Internal: return "ErrorKind::Internal";
  }
  return "?";
}

/// Renders \p R as a Pin initializer, so a mismatch message shows the whole
/// result in the form the expectations are written in.
std::string literal(const RunResult &R) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "{\"%s\", %s, %s, %s, %lld, %lld, %a, %a, %a, %a}",
                R.Error.c_str(), kindLiteral(R.Kind),
                R.Supported ? "true" : "false", R.Feasible ? "true" : "false",
                static_cast<long long>(R.RegsPerThread),
                static_cast<long long>(R.SmemBytes), R.Micros, R.TFlops,
                R.TensorUtilization, R.MaxRelError);
  return Buf;
}

/// Runs \p Run on a fresh Runner at NumWorkers 1 and 4 and checks every
/// RunResult field against \p Want.
template <typename RunFn>
void expectPinned(RunFn Run, const Pin &Want, int64_t MaxSteps = 0) {
  for (int64_t Workers : {1, 4}) {
    Runner R;
    R.NumWorkers = Workers;
    R.MaxSteps = MaxSteps;
    RunResult Got = Run(R);
    SCOPED_TRACE(testing::Message() << "workers " << Workers << ": got "
                                    << literal(Got));
    EXPECT_EQ(Got.Error, Want.Error);
    EXPECT_EQ(Got.Kind, Want.Kind);
    EXPECT_EQ(Got.Supported, Want.Supported);
    EXPECT_EQ(Got.Feasible, Want.Feasible);
    EXPECT_EQ(Got.RegsPerThread, Want.RegsPerThread);
    EXPECT_EQ(Got.SmemBytes, Want.SmemBytes);
    EXPECT_EQ(Got.Micros, Want.Micros);
    EXPECT_EQ(Got.TFlops, Want.TFlops);
    EXPECT_EQ(Got.TensorUtilization, Want.TensorUtilization);
    EXPECT_EQ(Got.MaxRelError, Want.MaxRelError);
  }
}

/// A small warp-specialized envelope (64-wide tiles, D=2, P=1).
FrameworkEnvelope smallWs() {
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = true;
  E.Options.ArefDepth = 2;
  E.Options.MmaPipelineDepth = 1;
  E.TileM = E.TileN = E.TileK = 64;
  E.TileQ = E.TileKv = 64;
  return E;
}

GemmWorkload smallGemm() {
  GemmWorkload W;
  W.M = W.N = W.K = 128;
  return W;
}

GemmWorkload grouped(std::vector<int64_t> GroupMs) {
  GemmWorkload W;
  W.N = 64;
  W.K = 96;
  W.MoE = true;
  W.GroupMs = std::move(GroupMs);
  return W;
}

AttentionWorkload smallAttention(bool Causal) {
  AttentionWorkload W;
  W.SeqLen = 128;
  W.Batch = 1;
  W.Heads = 2;
  W.HeadDim = 64;
  W.Causal = Causal;
  return W;
}

/// 256x256 output tiles on one consumer group: 512 accumulator floats per
/// thread, far past the 255-register hard limit.
FrameworkEnvelope hugeTiles() {
  FrameworkEnvelope E = smallWs();
  E.TileM = E.TileN = 256;
  return E;
}

//===----------------------------------------------------------------------===//
// Envelope and option rejections.
//===----------------------------------------------------------------------===//

TEST(RunnerPin, GemmUnsupported) {
  FrameworkEnvelope E = smallWs();
  E.Supported = false;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), E, true); },
      {"", ErrorKind::Unsupported, false, true, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, AttentionUnsupported) {
  expectPinned(
      [&](Runner &R) {
        return R.runAttention(Framework::CuBlas, smallAttention(false));
      },
      {"", ErrorKind::Unsupported, false, true, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, GemmAnalytic) {
  expectPinned(
      [&](Runner &R) { return R.runGemm(Framework::CuBlas, GemmWorkload()); },
      {"", ErrorKind::None, true, true, 0, 0, 0x1.5bb735befebd7p+10,
       0x1.8b43317b9e89ep+9, 0x0p+0, -0x1p+0});
}

TEST(RunnerPin, AttentionAnalytic) {
  expectPinned(
      [&](Runner &R) {
        return R.runAttention(Framework::Peak, AttentionWorkload());
      },
      {"", ErrorKind::None, true, true, 0, 0, 0x1.15d2a4eab368bp+10,
       0x1.eeb3333333333p+9, 0x0p+0, -0x1p+0});
}

TEST(RunnerPin, GemmValidateFailure) {
  FrameworkEnvelope E = smallWs();
  E.Options.ArefDepth = 1;
  E.Options.MmaPipelineDepth = 2;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), E, true); },
      {"infeasible configuration: MMA pipeline depth P=2 exceeds aref "
       "depth D=1 (the consumer would need more borrowed slots than the "
       "ring holds)",
       ErrorKind::Infeasible, true, false, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, GroupedValidateFailure) {
  FrameworkEnvelope E = smallWs();
  E.Options.NumConsumerGroups = 3;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(grouped({64, 32}), E, false); },
      {"cooperative consumer groups must be 1 or 2 on Hopper",
       ErrorKind::Infeasible, true, false, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, AttentionValidateFailure) {
  FrameworkEnvelope E = smallWs();
  E.Options.ArefDepth = 1;
  E.Options.MmaPipelineDepth = 0;
  E.Options.CoarsePipeline = true;
  expectPinned(
      [&](Runner &R) {
        return R.runAttentionCustom(smallAttention(false), E, false);
      },
      {"infeasible configuration: the coarse-grained T/C/U pipeline "
       "borrows the downstream-stage slot across two iterations, so it "
       "requires aref depth D >= 2",
       ErrorKind::Infeasible, true, false, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, SplitKBatched) {
  GemmWorkload W = smallGemm();
  W.SplitK = 2;
  W.Batch = 2;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallWs(), true); },
      {"split-K requires Batch == 1 and a non-MoE workload",
       ErrorKind::Unsupported, false, true, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, SplitKMoe) {
  GemmWorkload W = grouped({64, 32});
  W.SplitK = 2;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallWs(), false); },
      {"split-K requires Batch == 1 and a non-MoE workload",
       ErrorKind::Unsupported, false, true, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

//===----------------------------------------------------------------------===//
// Resource feasibility.
//===----------------------------------------------------------------------===//

TEST(RunnerPin, GemmRegisterHardLimit) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemmCustom(smallGemm(), hugeTiles(), false);
      },
      {"register budget exceeded (hard limit)", ErrorKind::Infeasible, true,
       false, 560, 0, 0x0p+0, 0x0p+0, 0x0p+0, -0x1p+0});
}

TEST(RunnerPin, GroupedRegisterHardLimit) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemmCustom(grouped({64, 32}), hugeTiles(), true);
      },
      {"register budget exceeded (hard limit)", ErrorKind::Infeasible, true,
       false, 560, 0, 0x0p+0, 0x0p+0, 0x0p+0, -0x1p+0});
}

TEST(RunnerPin, AttentionOverRegisterBudget) {
  // One consumer group holding a 128 x (128 + 64) fragment under the
  // coarse pipeline: ~293 registers per thread, past the 255 budget.
  // Attention has no hard limit, so it runs with the spill penalty.
  FrameworkEnvelope E = smallWs();
  E.Options.MmaPipelineDepth = 0;
  E.Options.CoarsePipeline = true;
  E.TileQ = E.TileKv = 128;
  AttentionWorkload W = smallAttention(false);
  W.SeqLen = 256;
  W.HeadDim = 128;
  expectPinned(
      [&](Runner &R) { return R.runAttentionCustom(W, E, false); },
      {"", ErrorKind::None, true, true, 293, 163840, 0x1.6a7c7fb53e3ecp+3,
       0x1.7b27ffb1ef292p+2, 0x1.513b6ea039e28p-2, -0x1p+0});
}

TEST(RunnerPin, GemmSmemExceeded) {
  FrameworkEnvelope E = smallWs();
  E.TileM = E.TileN = 128;
  E.TileK = 128;
  E.Options.ArefDepth = 6;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), E, false); },
      {"shared memory exceeded: 393216 > 233472", ErrorKind::Infeasible, true,
       false, 176, 393216, 0x0p+0, 0x0p+0, 0x0p+0, -0x1p+0});
}

TEST(RunnerPin, GroupedSmemExceeded) {
  FrameworkEnvelope E = smallWs();
  E.TileM = E.TileN = 128;
  E.TileK = 128;
  E.Options.ArefDepth = 6;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(grouped({0, 96}), E, true); },
      {"shared memory exceeded: 393216 > 233472", ErrorKind::Infeasible, true,
       false, 176, 393216, 0x0p+0, 0x0p+0, 0x0p+0, 0x1p-16});
}

TEST(RunnerPin, AttentionSmemExceeded) {
  FrameworkEnvelope E = smallWs();
  E.TileQ = E.TileKv = 128;
  E.Options.ArefDepth = 8;
  AttentionWorkload W = smallAttention(false);
  W.HeadDim = 128;
  expectPinned(
      [&](Runner &R) { return R.runAttentionCustom(W, E, false); },
      {"shared memory exceeded", ErrorKind::Infeasible, true, false, 240,
       557056, 0x0p+0, 0x0p+0, 0x0p+0, -0x1p+0});
}

//===----------------------------------------------------------------------===//
// Empty launches.
//===----------------------------------------------------------------------===//

TEST(RunnerPin, GroupedAllEmptyFunctional) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemm(Framework::Tawa, grouped({0, 0, 0}), true);
      },
      {"", ErrorKind::None, true, true, 211, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       0x0p+0});
}

TEST(RunnerPin, GroupedAllEmptyTiming) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemm(Framework::Tawa, grouped({0, 0, 0}), false);
      },
      {"", ErrorKind::None, true, true, 211, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0});
}

TEST(RunnerPin, AttentionNoCtas) {
  AttentionWorkload W = smallAttention(false);
  W.SeqLen = 0;
  expectPinned(
      [&](Runner &R) { return R.runAttentionCustom(W, smallWs(), false); },
      {"no CTAs to simulate", ErrorKind::Internal, true, true, 96, 0, 0x0p+0,
       0x0p+0, 0x0p+0, -0x1p+0});
}

//===----------------------------------------------------------------------===//
// Execution failures (watchdog trips), functional and timing.
//===----------------------------------------------------------------------===//

TEST(RunnerPin, GemmStepBudgetFunctional) {
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), smallWs(), true); },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 80, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

TEST(RunnerPin, GemmStepBudgetTiming) {
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), smallWs(), false); },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 80, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

TEST(RunnerPin, GroupedStepBudgetFunctional) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemmCustom(grouped({64, 32}), smallWs(), true);
      },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 80, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

TEST(RunnerPin, GroupedStepBudgetTiming) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemmCustom(grouped({64, 32}), smallWs(), false);
      },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 80, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

TEST(RunnerPin, AttentionStepBudgetFunctional) {
  expectPinned(
      [&](Runner &R) {
        return R.runAttentionCustom(smallAttention(true), smallWs(), true);
      },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 96, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

TEST(RunnerPin, AttentionStepBudgetTiming) {
  expectPinned(
      [&](Runner &R) {
        return R.runAttentionCustom(smallAttention(true), smallWs(), false);
      },
      {"cta (0,0): step budget exceeded: agent 0 used 2 steps (budget 1)",
       ErrorKind::StepBudget, true, true, 96, 0, 0x0p+0, 0x0p+0, 0x0p+0,
       -0x1p+0},
      1);
}

//===----------------------------------------------------------------------===//
// Successful points: every field of one result per family and mode.
//===----------------------------------------------------------------------===//

TEST(RunnerPin, GemmTiming) {
  expectPinned(
      [&](Runner &R) { return R.runGemm(Framework::Tawa, GemmWorkload()); },
      {"", ErrorKind::None, true, true, 211, 147456, 0x1.54c33a69fbd13p+10,
       0x1.9353db3e50e2p+9, 0x1.eecd1561f122fp-1, -0x1p+0});
}

TEST(RunnerPin, TritonGemmTiming) {
  expectPinned(
      [&](Runner &R) { return R.runGemm(Framework::Triton, GemmWorkload()); },
      {"", ErrorKind::None, true, true, 176, 0, 0x1.6640771c26acdp+10,
       0x1.7fa3497d56cc2p+9, 0x1.e978bd90d256dp-1, -0x1p+0});
}

TEST(RunnerPin, GemmFunctional) {
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(smallGemm(), smallWs(), true); },
      {"", ErrorKind::None, true, true, 80, 32768, 0x1.3541a204383f8p+2,
       0x1.bc6ae2beb84ebp-1, 0x1.109ae63cc8035p-5, 0x1.15fd4906c96f1p-11});
}

TEST(RunnerPin, BatchedGemmFunctional) {
  GemmWorkload W = smallGemm();
  W.Batch = 2;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallWs(), true); },
      {"", ErrorKind::None, true, true, 80, 32768, 0x1.36441de06928cp+2,
       0x1.baf8a3cbc5c5ap+0, 0x1.0fb7ca82ebf2dp-5, 0x1.ee25284b47a92p-11});
}

TEST(RunnerPin, SplitKTiming) {
  GemmWorkload W;
  W.M = W.N = 1024;
  W.K = 16384;
  W.SplitK = 4;
  expectPinned(
      [&](Runner &R) { return R.runGemm(Framework::Tawa, W); },
      {"", ErrorKind::None, true, true, 211, 147456, 0x1.0f12214ca92acp+6,
       0x1.fb05b6115aef8p+8, 0x1.3701bb369e925p-1, -0x1p+0});
}

TEST(RunnerPin, GroupedFunctional) {
  expectPinned(
      [&](Runner &R) {
        return R.runGemm(Framework::Tawa, grouped({0, 70, 0}), true);
      },
      {"", ErrorKind::None, true, true, 211, 147456, 0x1.3c370421609e7p+3,
       0x1.6489f07a9c7cap-4, 0x1.0a9b30b399078p-3, 0x1p-16});
}

TEST(RunnerPin, GroupedTiming) {
  GemmWorkload W;
  W.N = W.K = 4096;
  W.MoE = true;
  W.GroupMs = {1024, 0, 3000, 512, 4096, 128};
  expectPinned(
      [&](Runner &R) { return R.runGemm(Framework::Tawa, W); },
      {"", ErrorKind::None, true, true, 211, 147456, 0x1.bb050731c010bp+8,
       0x1.4bbe0fe0fdd4fp+9, 0x1.ac2a7c9683a8cp-1, -0x1p+0});
}

TEST(RunnerPin, AttentionFunctional) {
  FrameworkEnvelope E = smallWs();
  E.Options.MmaPipelineDepth = 0;
  E.Options.CoarsePipeline = true;
  expectPinned(
      [&](Runner &R) {
        return R.runAttentionCustom(smallAttention(true), E, true);
      },
      {"", ErrorKind::None, true, true, 109, 40960, 0x1.5105a62d8b132p+2,
       0x1.97cdd434db081p-1, 0x1.f44af5976024ep-6, 0x1p-11});
}

TEST(RunnerPin, CausalAttentionTiming) {
  AttentionWorkload W;
  W.Causal = true;
  expectPinned(
      [&](Runner &R) { return R.runAttention(Framework::Tawa, W); },
      {"", ErrorKind::None, true, true, 170, 163840, 0x1.90fb8c4a5ac3p+9,
       0x1.56c161b2551e5p+9, 0x1.c5579c7e1858ep-1, -0x1p+0});
}

} // namespace

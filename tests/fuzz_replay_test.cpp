//===- fuzz_replay_test.cpp - Replay engine over fuzzed traces ----------------//
//
// sim/Replay coverage with generator-produced kernels (tests/fuzz/Gen.h):
// the replayed cycle totals are a function of the traces alone, so they
// must be identical whichever engine or worker count produced the traces,
// identical on re-replay, and identical after the module takes a textual
// print -> parse round trip.
//
// Also the launch-spec codec those round trips ride on (sim/Launch.h): a
// print -> parse -> decode round trip of every entry kind, every decoder
// rejection message pinned, and every generated launch inside the caps.
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Gen.h"

#include "ir/Parser.h"
#include "sim/Interpreter.h"
#include "sim/Replay.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

using namespace tawa;
using namespace tawa::fuzz;
using namespace tawa::sim;

namespace {

/// Runs every CTA of \p P on one engine/worker combo and returns the grid's
/// traces ("" error expected from the caller).
std::string runForTraces(const PreparedCase &P, bool Legacy, bool Fuse,
                         int64_t Workers, std::vector<CtaTrace> &Out) {
  GpuConfig Cfg;
  RunOptions Opts;
  Opts.UseLegacyInterp = Legacy;
  Opts.FuseBytecode = Fuse;
  Opts.NumWorkers = Workers;
  Opts.MaxSteps = 1000000;
  bindLaunchArgs(P.Launch, Opts);
  Interpreter Interp(*P.Mod, Cfg);
  return Interp.runGrid(Opts, nullptr, &Out);
}

ReplayResult replayAll(const std::vector<CtaTrace> &Traces) {
  std::vector<const CtaTrace *> Ptrs;
  for (const CtaTrace &T : Traces)
    Ptrs.push_back(&T);
  GpuConfig Cfg;
  return replaySmSchedule(Ptrs, Cfg, ReplayParams());
}

void expectReplayEq(const ReplayResult &A, const ReplayResult &B) {
  EXPECT_EQ(A.Deadlock, B.Deadlock);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.TensorBusyCycles, B.TensorBusyCycles);
  EXPECT_EQ(A.DramBusyCycles, B.DramBusyCycles);
  EXPECT_EQ(A.DramBytes, B.DramBytes);
}

/// Clean (no faults, no deadlock bug) fuzzed case for \p Seed, or nullopt
/// behavior via the bool return.
bool prepareClean(uint64_t Seed, PreparedCase &P) {
  FuzzCase C = generateCase(Seed);
  C.Faults = false;
  C.RingSkipRelease = false;
  return prepareCase(C, P).empty();
}

TEST(FuzzReplay, TotalsMatchAcrossEnginesAndWorkers) {
  struct ComboSpec {
    bool Legacy;
    bool Fuse;
    int64_t Workers;
  };
  const ComboSpec Combos[] = {
      {true, false, 1}, {false, false, 2}, {false, true, 4}};

  int Checked = 0;
  for (uint64_t Seed = 100; Checked < 4 && Seed < 140; ++Seed) {
    PreparedCase P;
    if (!prepareClean(Seed, P))
      continue;

    std::vector<CtaTrace> RefTraces;
    ASSERT_EQ(runForTraces(P, Combos[0].Legacy, Combos[0].Fuse,
                           Combos[0].Workers, RefTraces),
              "");
    ReplayResult Ref = replayAll(RefTraces);
    // Deterministic: replaying the same traces twice gives the same
    // totals.
    expectReplayEq(Ref, replayAll(RefTraces));

    for (size_t I = 1; I < 3; ++I) {
      std::vector<CtaTrace> Traces;
      ASSERT_EQ(runForTraces(P, Combos[I].Legacy, Combos[I].Fuse,
                             Combos[I].Workers, Traces),
                "");
      expectReplayEq(Ref, replayAll(Traces));
    }
    ++Checked;
  }
  EXPECT_GE(Checked, 3) << "generator produced too few clean cases";
}

TEST(FuzzReplay, TextualRoundTripPreservesReplayTotals) {
  int Checked = 0;
  for (uint64_t Seed = 200; Checked < 3 && Seed < 230; ++Seed) {
    PreparedCase P;
    if (!prepareClean(Seed, P))
      continue;

    std::vector<CtaTrace> Traces;
    ASSERT_EQ(runForTraces(P, false, true, 1, Traces), "");
    ReplayResult Ref = replayAll(Traces);

    // Print the compiled module, parse it back, run the reparsed module,
    // and replay: totals must survive the textual round trip.
    PreparedCase Loaded;
    ASSERT_EQ(loadCase(P.Mod->print(), Loaded), "");
    std::vector<CtaTrace> LoadedTraces;
    ASSERT_EQ(runForTraces(Loaded, false, true, 1, LoadedTraces), "");
    expectReplayEq(Ref, replayAll(LoadedTraces));
    ++Checked;
  }
  EXPECT_GE(Checked, 2) << "generator produced too few clean cases";
}

//===----------------------------------------------------------------------===//
// Launch-spec codec
//===----------------------------------------------------------------------===//

TEST(LaunchCodec, PrintParseDecodeRoundTripsEveryEntryKind) {
  LaunchSpec L;
  L.GridX = 3;
  L.GridY = 2;
  L.Args = {LaunchSpec::Arg::tensor({2, 3, 4}, 42),
            LaunchSpec::Arg::tensor({2, 3}, 0), LaunchSpec::Arg::scalar(-7)};
  LaunchSpec::Arg Table;
  Table.Shape = {2, 2};
  Table.Data = {0, 5, 5, 0};
  L.Args.push_back(Table);
  L.FaultSpec = "worker-task:0.50:7";

  IrContext Ctx;
  Module M(Ctx);
  encodeLaunchSpec(M, L);
  std::string Text = M.print();
  EXPECT_NE(Text.find("fuzz.args = \"t42:2x3x4;t0:2x3;s-7;d2x2:0,5,5,0\""),
            std::string::npos)
      << Text;

  IrContext Ctx2;
  std::string Err;
  std::unique_ptr<Module> Parsed = parseModule(Ctx2, Text, Err);
  ASSERT_TRUE(Parsed) << Err;
  LaunchSpec D;
  ASSERT_EQ(decodeLaunchSpec(*Parsed, D), "");
  EXPECT_EQ(D.GridX, 3);
  EXPECT_EQ(D.GridY, 2);
  EXPECT_EQ(D.FaultSpec, L.FaultSpec);
  ASSERT_EQ(D.Args.size(), L.Args.size());
  for (size_t I = 0; I < D.Args.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(D.Args[I].IsScalar, L.Args[I].IsScalar);
    EXPECT_EQ(D.Args[I].Scalar, L.Args[I].Scalar);
    EXPECT_EQ(D.Args[I].Shape, L.Args[I].Shape);
    EXPECT_EQ(D.Args[I].FillSeed, L.Args[I].FillSeed);
    EXPECT_EQ(D.Args[I].Data, L.Args[I].Data);
  }

  // Binding: grid copied, args in launch order, the zero-filled tensor
  // is the one output, the payload lands row-major.
  RunOptions Opts;
  std::vector<TensorRef> Outs = bindLaunchArgs(D, Opts);
  EXPECT_EQ(Opts.GridX, 3);
  EXPECT_EQ(Opts.GridY, 2);
  ASSERT_EQ(Opts.Args.size(), 4u);
  EXPECT_EQ(Opts.Args[2].K, RuntimeArg::Kind::Scalar);
  EXPECT_EQ(Opts.Args[2].Scalar, -7);
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_EQ(Outs[0], Opts.Args[1].Data);
  const TensorRef &T = Opts.Args[3].Data;
  ASSERT_EQ(T->getNumElements(), 4);
  EXPECT_EQ(T->at(1), 5.0f);
  EXPECT_EQ(T->at(3), 0.0f);

  // Re-encoding without a fault spec drops the attribute.
  D.FaultSpec.clear();
  encodeLaunchSpec(*Parsed, D);
  EXPECT_EQ(Parsed->getAttrs().count("fuzz.faults"), 0u);
}

TEST(LaunchCodec, DecoderRejectionsArePinned) {
  const int64_t Big = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> OneCta = {1, 1};
  struct Case {
    std::optional<Attribute> Grid, Args, Faults;
    const char *Want;
  };
  // Caps are probed at decode level only: nothing here allocates.
  const Case Cases[] = {
      {std::nullopt, std::string("s1"), std::nullopt,
       "missing fuzz.grid module attribute"},
      {int64_t(4), std::string("s1"), std::nullopt,
       "fuzz.grid must be [gridX, gridY]"},
      {std::vector<int64_t>{1, 2, 3}, std::string("s1"), std::nullopt,
       "fuzz.grid must be [gridX, gridY]"},
      {std::vector<int64_t>{-4, 1}, std::string("s1"), std::nullopt,
       "fuzz.grid dimensions must be non-negative"},
      {std::vector<int64_t>{1, -1}, std::string("s1"), std::nullopt,
       "fuzz.grid dimensions must be non-negative"},
      {std::vector<int64_t>{65537, 1}, std::string("s1"), std::nullopt,
       "fuzz.grid exceeds 65536 CTAs"},
      {std::vector<int64_t>{256, 257}, std::string("s1"), std::nullopt,
       "fuzz.grid exceeds 65536 CTAs"},
      {std::vector<int64_t>{Big, Big}, std::string("s1"), std::nullopt,
       "fuzz.grid exceeds 65536 CTAs"},
      {OneCta, std::nullopt, std::nullopt,
       "missing fuzz.args module attribute"},
      {OneCta, int64_t(3), std::nullopt, "fuzz.args must be a string"},
      {OneCta, std::string("s1;;s2"), std::nullopt, "empty fuzz.args entry"},
      {OneCta, std::string("x5"), std::nullopt,
       "unknown fuzz.args entry kind: x5"},
      {OneCta, std::string("t1"), std::nullopt,
       "malformed tensor entry in fuzz.args: t1"},
      {OneCta, std::string("t1:"), std::nullopt,
       "tensor entry with no shape in fuzz.args: t1:"},
      {OneCta, std::string("d2x2"), std::nullopt,
       "malformed data entry in fuzz.args: d2x2"},
      {OneCta, std::string("d:1,2"), std::nullopt,
       "data entry with no shape or values in fuzz.args: d:1,2"},
      {OneCta, std::string("d2:"), std::nullopt,
       "data entry with no shape or values in fuzz.args: d2:"},
      {OneCta, std::string("d2x2:1,2,3"), std::nullopt,
       "data entry shape/value count mismatch in fuzz.args: d2x2:1,2,3"},
      {OneCta, std::string("t0:-128x128"), std::nullopt,
       "negative tensor dimension in fuzz.args: t0:-128x128"},
      {OneCta, std::string("d-1x2:1,2"), std::nullopt,
       "negative tensor dimension in fuzz.args: d-1x2:1,2"},
      {OneCta, std::string("t0:1x1x1x128x128"), std::nullopt,
       "tensor rank exceeds 4 in fuzz.args: t0:1x1x1x128x128"},
      {OneCta, std::string("d1x1x1x1x1:5"), std::nullopt,
       "tensor rank exceeds 4 in fuzz.args: d1x1x1x1x1:5"},
      {OneCta, std::string("t0:8192x8193"), std::nullopt,
       "tensor exceeds 67108864 elements in fuzz.args: t0:8192x8193"},
      {OneCta, std::string("t0:67108865"), std::nullopt,
       "tensor exceeds 67108864 elements in fuzz.args: t0:67108865"},
      {OneCta,
       std::string("t0:9223372036854775807x9223372036854775807"),
       std::nullopt,
       "tensor exceeds 67108864 elements in fuzz.args: "
       "t0:9223372036854775807x9223372036854775807"},
      {OneCta, std::string("d65536x65536:1"), std::nullopt,
       "tensor exceeds 67108864 elements in fuzz.args: d65536x65536:1"},
      {OneCta, std::string("s1"), int64_t(1),
       "fuzz.faults must be a string"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Want);
    IrContext Ctx;
    Module M(Ctx);
    if (C.Grid)
      M.setAttr("fuzz.grid", *C.Grid);
    if (C.Args)
      M.setAttr("fuzz.args", *C.Args);
    if (C.Faults)
      M.setAttr("fuzz.faults", *C.Faults);
    LaunchSpec L;
    EXPECT_EQ(decodeLaunchSpec(M, L), C.Want);
  }

  // Exactly at the caps is accepted.
  IrContext Ctx;
  Module M(Ctx);
  M.setAttr("fuzz.grid", std::vector<int64_t>{256, 256});
  M.setAttr("fuzz.args", std::string("t0:8192x8192;t0:0x4;s1"));
  LaunchSpec L;
  EXPECT_EQ(decodeLaunchSpec(M, L), "");
}

TEST(LaunchCodec, GeneratedLaunchesDecodeWithinCaps) {
  int Checked = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    PreparedCase P;
    if (!prepareCase(generateCase(Seed), P).empty())
      continue; // A compile rejection stamps no launch.
    LaunchSpec L;
    EXPECT_EQ(decodeLaunchSpec(*P.Mod, L), "") << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 300);
}

} // namespace

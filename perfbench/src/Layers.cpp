//===- Layers.cpp - Workload inputs and per-layer decomposition ------------===//

#include "Layers.h"

#include "ir/Ir.h"
#include "passes/Passes.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Numerics.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/ProgramCache.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>

using namespace tawa;
using namespace tawa::sim;

namespace pb {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

namespace {

std::string labelOf(const std::string &Prefix, const SweepPoint &P) {
  std::string L = Prefix;
  for (const SweepAxis &A : P.Axes)
    L += "/" + A.Name + "=" + A.Value;
  return L;
}

void appendSweep(std::vector<Point> &Out, const std::string &Prefix,
                 const Sweep &S) {
  for (const SweepPoint &P : S.points())
    Out.push_back({P, labelOf(Prefix, P), 0});
}

const char *precName(Precision P) {
  return P == Precision::FP16 ? "FP16" : "FP8";
}

} // namespace

std::vector<Point> figureGrid() {
  std::vector<Point> Out;
  {
    Sweep S("fig8");
    for (Precision Prec : {Precision::FP16, Precision::FP8})
      for (int64_t K : {256, 512, 1024, 2048, 4096, 8192, 16384})
        for (Framework F :
             {Framework::Peak, Framework::CuBlas, Framework::Tawa,
              Framework::Triton, Framework::TileLang,
              Framework::ThunderKittens}) {
          GemmWorkload W;
          W.K = K;
          W.Prec = Prec;
          S.addGemm(W, F, {{"prec", precName(Prec)}, {"K", std::to_string(K)}});
        }
    appendSweep(Out, "fig8", S);
  }
  {
    Sweep S("fig9");
    const Framework Fws[] = {Framework::Tawa, Framework::Triton,
                             Framework::TileLang};
    for (int64_t Size : {1024, 2048, 4096, 8192, 16384})
      for (Framework F : Fws) {
        GemmWorkload W;
        W.M = W.N = W.K = Size;
        W.Batch = 8;
        S.addGemm(W, F, {{"panel", "batched"}, {"MNK", std::to_string(Size)}});
      }
    for (int64_t G = 2; G <= 6; ++G)
      for (Framework F : Fws) {
        GemmWorkload W;
        W.N = W.K = 4096;
        for (int64_t I = 1; I <= G; ++I)
          W.GroupMs.push_back(512 * I);
        S.addGemm(W, F, {{"panel", "grouped"}, {"G", std::to_string(G)}});
      }
    appendSweep(Out, "fig9", S);
  }
  {
    Sweep S("fig10");
    for (Precision Prec : {Precision::FP16, Precision::FP8})
      for (bool Causal : {false, true})
        for (int64_t L : {1024, 2048, 4096, 8192, 16384})
          for (Framework F :
               {Framework::FA3, Framework::Tawa, Framework::Triton,
                Framework::TileLang, Framework::ThunderKittens}) {
            AttentionWorkload W;
            W.SeqLen = L;
            W.Causal = Causal;
            W.Prec = Prec;
            S.addAttention(W, F,
                           {{"prec", precName(Prec)},
                            {"causal", Causal ? "true" : "false"},
                            {"L", std::to_string(L)}});
          }
    appendSweep(Out, "fig10", S);
  }
  {
    Sweep S("fig11");
    GemmWorkload W;
    W.K = 16384;
    for (bool Persistent : {false, true})
      for (int64_t D = 1; D <= 3; ++D)
        for (int64_t P = 1; P <= 3; ++P) {
          FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, W);
          E.Options.ArefDepth = D;
          E.Options.MmaPipelineDepth = P;
          E.Options.Persistent = Persistent;
          S.addGemm(W, E, "Tawa",
                    {{"persistent", Persistent ? "1" : "0"},
                     {"D", std::to_string(D)},
                     {"P", std::to_string(P)}});
        }
    appendSweep(Out, "fig11", S);
  }
  {
    Sweep S("fig12");
    GemmWorkload W;
    W.K = 16384;
    auto AddG = [&](const char *Step, const FrameworkEnvelope &E) {
      S.addGemm(W, E, Step, {{"workload", "gemm"}, {"step", Step}});
    };
    AddG("Triton w/o WS", getGemmEnvelope(Framework::TritonNoPipe, W));
    FrameworkEnvelope E;
    E.TileM = 128;
    E.TileN = 128;
    E.TileK = 64;
    E.Options.EnableWarpSpecialization = true;
    E.Options.ArefDepth = 2;
    E.Options.MmaPipelineDepth = 1;
    E.Options.NumConsumerGroups = 1;
    AddG("+Auto WS", E);
    E.Options.NumConsumerGroups = 2;
    AddG("+Cooperative WGs", E);
    E.TileN = 256;
    AddG("+Large Tile Size", E);
    E.Options.Persistent = true;
    AddG("+Persistent Kernel", E);
    E.Options.ArefDepth = 3;
    E.Options.MmaPipelineDepth = 2;
    AddG("+Better Aref Size", E);

    AttentionWorkload A;
    A.SeqLen = 16384;
    auto AddA = [&](const char *Step, const FrameworkEnvelope &Env) {
      S.addAttention(A, Env, Step, {{"workload", "mha"}, {"step", Step}});
    };
    AddA("Triton w/o WS", getAttentionEnvelope(Framework::TritonNoPipe, A));
    FrameworkEnvelope M;
    M.TileQ = 128;
    M.TileKv = 128;
    M.ComputeScale = getAttentionEnvelope(Framework::Tawa, A).ComputeScale;
    M.Options.EnableWarpSpecialization = true;
    M.Options.ArefDepth = 2;
    M.Options.MmaPipelineDepth = 0;
    M.Options.NumConsumerGroups = 1;
    AddA("+Auto WS", M);
    M.Options.NumConsumerGroups = 2;
    AddA("+Cooperative WGs", M);
    M.Options.CoarsePipeline = true;
    AddA("+Pipeline", M);
    M.Options.ArefDepth = 3;
    AddA("+Better Aref Size", M);
    appendSweep(Out, "fig12", S);
  }
  {
    Sweep S("fig13");
    for (int64_t Split : {1, 2, 3, 4, 6, 8})
      for (Framework F : {Framework::Tawa, Framework::Triton}) {
        GemmWorkload W;
        W.M = W.N = 512;
        W.K = 16384;
        W.SplitK = Split;
        S.addGemm(W, F, {{"panel", "splitk"}, {"split", std::to_string(Split)}});
      }
    for (int64_t E = 2; E <= 8; E += 2)
      for (Framework F : {Framework::Tawa, Framework::Triton}) {
        GemmWorkload W;
        W.N = W.K = 4096;
        W.MoE = true;
        for (int64_t I = 0; I < E; ++I)
          W.GroupMs.push_back(I == 2 ? 0 : 384 * (I + 1));
        S.addGemm(W, F, {{"panel", "moe"}, {"E", std::to_string(E)}});
      }
    appendSweep(Out, "fig13", S);
  }
  return Out;
}

namespace {

Point gemmPoint(const std::string &Label, const GemmWorkload &W,
                const FrameworkEnvelope &E, bool Functional, double Bound) {
  Point Pt;
  Pt.P.PointKind = SweepPoint::Kind::Gemm;
  Pt.P.Gemm = W;
  Pt.P.Envelope = E;
  Pt.P.FrameworkName = "Tawa";
  Pt.P.Functional = Functional;
  Pt.Label = Label;
  Pt.Bound = Bound;
  return Pt;
}

Point attnPoint(const std::string &Label, const AttentionWorkload &W,
                const FrameworkEnvelope &E, bool Functional, double Bound) {
  Point Pt;
  Pt.P.PointKind = SweepPoint::Kind::Attention;
  Pt.P.Attn = W;
  Pt.P.Envelope = E;
  Pt.P.FrameworkName = "Tawa";
  Pt.P.Functional = Functional;
  Pt.Label = Label;
  Pt.Bound = Bound;
  return Pt;
}

FrameworkEnvelope smallTiles(bool Ws, int64_t D, int64_t P, int64_t Cg,
                             bool Persistent) {
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = Ws;
  E.Options.ArefDepth = D;
  E.Options.MmaPipelineDepth = P;
  E.Options.NumConsumerGroups = Cg;
  E.Options.Persistent = Persistent;
  E.TileM = E.TileN = E.TileK = 64;
  E.TileQ = E.TileKv = 64;
  return E;
}

} // namespace

std::vector<Point> functionalPoints() {
  // Error bounds are the ones tests/ applies to each family: 5e-2 for FP16
  // GEMM and attention (integration tests), 0.5 / 0.2 for FP8 GEMM /
  // attention, 1e-4 for split-K and 5e-3 for grouped (numerics_test).
  std::vector<Point> Out;
  struct GemmFamily {
    const char *Name;
    FrameworkEnvelope E;
  };
  const GemmFamily Families[] = {
      {"plain", smallTiles(false, 2, 1, 1, false)},
      {"ws", smallTiles(true, 2, 1, 1, false)},
      {"cooperative", smallTiles(true, 3, 2, 2, false)},
      {"persistent", smallTiles(true, 2, 2, 1, true)},
  };
  for (const GemmFamily &F : Families)
    for (Precision Prec : {Precision::FP16, Precision::FP8}) {
      GemmWorkload W;
      W.M = W.N = W.K = 128;
      W.Prec = Prec;
      Out.push_back(gemmPoint(std::string("gemm-") + F.Name + "/" +
                                  precName(Prec),
                              W, F.E, true,
                              Prec == Precision::FP16 ? 5e-2 : 0.5));
    }
  {
    // M is not a multiple of the 64-row tile.
    GemmWorkload W;
    W.M = 100;
    W.N = W.K = 128;
    Out.push_back(gemmPoint("gemm-ws-ragged-m/FP16", W,
                            smallTiles(true, 2, 1, 1, false), true, 5e-2));
  }
  for (Framework F : {Framework::Tawa, Framework::Triton}) {
    // Two K tiles split three ways: one split has no iterations.
    GemmWorkload W;
    W.M = W.N = W.K = 128;
    W.SplitK = 3;
    Out.push_back(gemmPoint(std::string("splitk-uneven/") +
                                getFrameworkName(F),
                            W, getGemmEnvelope(F, W), true, 1e-4));
  }
  for (Framework F : {Framework::Tawa, Framework::Triton}) {
    // tests/numerics_test.cpp GroupedNumerics.AllButOneEmpty: empty
    // experts around one ragged expert (50 rows, a partial tile).
    GemmWorkload W;
    W.N = 64;
    W.K = 96;
    W.MoE = true;
    W.GroupMs = {0, 0, 50, 0};
    Out.push_back(gemmPoint(std::string("grouped-empty-expert/") +
                                getFrameworkName(F),
                            W, getGemmEnvelope(F, W), true, 5e-3));
  }
  for (bool Causal : {false, true})
    for (Precision Prec : {Precision::FP16, Precision::FP8}) {
      AttentionWorkload W;
      W.SeqLen = 128;
      W.Batch = 1;
      W.Heads = 2;
      W.HeadDim = 64;
      W.Causal = Causal;
      W.Prec = Prec;
      FrameworkEnvelope E = smallTiles(true, 2, 0, 1, false);
      E.Options.CoarsePipeline = true;
      Out.push_back(attnPoint(std::string("attention-") +
                                  (Causal ? "causal/" : "noncausal/") +
                                  precName(Prec),
                              W, E, true,
                              Prec == Precision::FP16 ? 5e-2 : 0.2));
    }
  return Out;
}

std::vector<Point> knownFailures() {
  // tests/numerics_test.cpp GroupedNumerics.EmptyExpertsMatchReference:
  // two ragged experts, whose partial tiles race in the grouped epilogue.
  std::vector<Point> Out;
  for (Framework F : {Framework::Tawa, Framework::Triton}) {
    GemmWorkload W;
    W.N = 128;
    W.K = 64;
    W.MoE = true;
    W.GroupMs = {0, 96, 0, 0, 200, 0};
    Out.push_back(gemmPoint(std::string("grouped-two-ragged-experts/") +
                                getFrameworkName(F),
                            W, getGemmEnvelope(F, W), true, 5e-3));
  }
  return Out;
}

std::vector<Point> compileGrid() {
  std::vector<Point> Out;
  struct Tile {
    int64_t M, N, K;
  };
  const Tile GemmTiles[] = {{128, 128, 64}, {128, 256, 64}, {64, 128, 64}};
  enum class Fam { Plain, SplitK, Grouped };
  for (Fam F : {Fam::Plain, Fam::SplitK, Fam::Grouped})
    for (const Tile &T : GemmTiles)
      for (Precision Prec : {Precision::FP16, Precision::FP8}) {
        GemmWorkload W;
        W.M = W.N = W.K = 1024;
        W.Prec = Prec;
        const char *FamName = "gemm";
        if (F == Fam::SplitK) {
          W.M = W.N = 512;
          W.K = 2048;
          W.SplitK = 2;
          FamName = "splitk";
        } else if (F == Fam::Grouped) {
          W.N = W.K = 512;
          W.MoE = true;
          W.GroupMs = {256, 0, 384};
          FamName = "grouped";
        }
        auto Add = [&](const FrameworkEnvelope &E, const std::string &Opt) {
          Out.push_back(gemmPoint(
              formatString("%s/t%lldx%lldx%lld/%s/%s", FamName,
                           static_cast<long long>(T.M),
                           static_cast<long long>(T.N),
                           static_cast<long long>(T.K), precName(Prec),
                           Opt.c_str()),
              W, E, false, 0));
        };
        FrameworkEnvelope Base;
        Base.TileM = T.M;
        Base.TileN = T.N;
        Base.TileK = T.K;
        for (int64_t Sw : {0, 3}) {
          FrameworkEnvelope E = Base;
          E.Options.EnableWarpSpecialization = false;
          E.SwPipelineDepth = Sw;
          Add(E, formatString("nows-sw%lld", static_cast<long long>(Sw)));
        }
        for (int64_t D = 1; D <= 3; ++D)
          for (int64_t P = 0; P <= D; ++P)
            for (int64_t Cg : {1, 2})
              for (bool Pers : {false, true}) {
                if (Pers && F != Fam::Plain)
                  continue; // Split-K and grouped are never persistent.
                FrameworkEnvelope E = Base;
                E.Options.ArefDepth = D;
                E.Options.MmaPipelineDepth = P;
                E.Options.NumConsumerGroups = Cg;
                E.Options.Persistent = Pers;
                Add(E, formatString("d%lld-p%lld-cg%lld-pers%d",
                                    static_cast<long long>(D),
                                    static_cast<long long>(P),
                                    static_cast<long long>(Cg), Pers ? 1 : 0));
              }
      }
  const Tile AttnTiles[] = {{128, 128, 0}, {64, 64, 0}};
  for (const Tile &T : AttnTiles)
    for (bool Causal : {false, true})
      for (Precision Prec : {Precision::FP16, Precision::FP8}) {
        AttentionWorkload W;
        W.SeqLen = 1024;
        W.Batch = 1;
        W.Heads = 4;
        W.HeadDim = 128;
        W.Causal = Causal;
        W.Prec = Prec;
        auto Add = [&](const FrameworkEnvelope &E, const std::string &Opt) {
          Out.push_back(attnPoint(
              formatString("attention/t%lldx%lld/%s/%s/%s",
                           static_cast<long long>(T.M),
                           static_cast<long long>(T.N),
                           Causal ? "causal" : "noncausal", precName(Prec),
                           Opt.c_str()),
              W, E, false, 0));
        };
        FrameworkEnvelope Base;
        Base.TileQ = T.M;
        Base.TileKv = T.N;
        for (int64_t Sw : {0, 2}) {
          FrameworkEnvelope E = Base;
          E.Options.EnableWarpSpecialization = false;
          E.SwPipelineDepth = Sw;
          Add(E, formatString("nows-sw%lld", static_cast<long long>(Sw)));
        }
        for (int64_t D = 1; D <= 3; ++D)
          for (int Mode = 0; Mode < 3; ++Mode) // sync, fine P=1, coarse
            for (int64_t Cg : {1, 2}) {
              FrameworkEnvelope E = Base;
              E.Options.ArefDepth = D;
              E.Options.MmaPipelineDepth = Mode == 1 ? 1 : 0;
              E.Options.CoarsePipeline = Mode == 2;
              E.Options.NumConsumerGroups = Cg;
              Add(E, formatString("d%lld-%s-cg%lld",
                                  static_cast<long long>(D),
                                  Mode == 0   ? "sync"
                                  : Mode == 1 ? "fine"
                                              : "coarse",
                                  static_cast<long long>(Cg)));
            }
      }
  return Out;
}

RunResult runPoint(Runner &R, const Point &Pt) {
  const SweepPoint &P = Pt.P;
  return P.PointKind == SweepPoint::Kind::Gemm
             ? R.runGemmCustom(P.Gemm, P.Envelope, P.Functional)
             : R.runAttentionCustom(P.Attn, P.Envelope, P.Functional);
}

bool prewarmPoint(Runner &R, const Point &Pt, std::string &Err) {
  const SweepPoint &P = Pt.P;
  return P.PointKind == SweepPoint::Kind::Gemm
             ? R.prewarm(P.Gemm, P.Envelope, Err)
             : R.prewarm(P.Attn, P.Envelope, Err);
}

std::string compileKeyOf(const Runner &R, const Point &Pt) {
  const SweepPoint &P = Pt.P;
  return P.PointKind == SweepPoint::Kind::Gemm
             ? R.compileKey(P.Gemm, P.Envelope)
             : R.compileKey(P.Attn, P.Envelope);
}

bool isExpectedRefusal(const RunResult &Res) {
  return Res.Kind == ErrorKind::Unsupported ||
         Res.Kind == ErrorKind::Infeasible;
}

//===----------------------------------------------------------------------===//
// Decomposition. The launch, validation and replay-parameter derivations
// below mirror src/driver/Runner.cpp line for line; a divergence shows up as
// a cycle or error mismatch against the Runner's own result, and the traced
// run reports correct=false. Runner.cpp keeps these helpers private, so a
// change to effectiveGemmOptions, gemmKernelConfig,
// attentionKernelConfig, gemmReuseFactor, estimateRegsPerThread,
// consumerRegBudget, slice2d, roundHostTensor, the attention KV-reuse
// factor, or the launch and validation set-up of run*Custom/runGemmMoe
// must update the copies here in the same change (README.md, "Coupling
// with the Runner").
//===----------------------------------------------------------------------===//

namespace {

TawaOptions effectiveOptions(const SweepPoint &P) {
  TawaOptions O = P.Envelope.Options;
  if (P.PointKind == SweepPoint::Kind::Gemm) {
    const GemmWorkload &W = P.Gemm;
    if (W.Batch > 1 || W.SplitK > 1 || (W.MoE && !W.GroupMs.empty()))
      O.Persistent = false;
  }
  return O;
}

GemmKernelConfig gemmKernel(const SweepPoint &P) {
  const GemmWorkload &W = P.Gemm;
  GemmKernelConfig K;
  K.TileM = P.Envelope.TileM;
  K.TileN = P.Envelope.TileN;
  K.TileK = P.Envelope.TileK;
  K.InPrecision = W.Prec;
  K.Grouped = W.MoE && !W.GroupMs.empty();
  K.SplitK = W.SplitK > 1 && !K.Grouped && W.Batch == 1;
  K.Batched = W.Batch > 1 && !K.Grouped;
  return K;
}

AttentionKernelConfig attnKernel(const SweepPoint &P) {
  AttentionKernelConfig K;
  K.TileQ = P.Envelope.TileQ;
  K.TileKv = P.Envelope.TileKv;
  K.HeadDim = P.Attn.HeadDim;
  K.Causal = P.Attn.Causal;
  K.InPrecision = P.Attn.Prec;
  return K;
}

double gemmReuseFactor(int64_t NumPidM, int64_t NumPidN, int64_t TileM,
                       int64_t TileN, int64_t Wave) {
  Wave = std::min(Wave, NumPidM * NumPidN);
  if (Wave <= 0)
    return 1.0;
  double BestUnique = 1e30;
  for (int64_t Rows = 1; Rows <= NumPidM; ++Rows) {
    int64_t Cols = ceilDiv(Wave, Rows);
    if (Cols > NumPidN)
      continue;
    BestUnique =
        std::min(BestUnique, static_cast<double>(Rows * TileM + Cols * TileN));
  }
  if (BestUnique >= 1e30)
    return 1.0;
  double Requested =
      static_cast<double>(Wave) * static_cast<double>(TileM + TileN);
  return std::min(1.0, BestUnique / Requested);
}

int64_t regsPerThread(const GpuConfig &C, int64_t AccElems, int64_t P,
                      int64_t Replicas, bool Ws) {
  double Threads = Ws ? 128.0 * static_cast<double>(Replicas) : 256.0;
  double Frag = static_cast<double>(AccElems) / Threads;
  double PipeScale =
      1.0 + C.PipelineRegFactor *
                static_cast<double>(std::max<int64_t>(P, 1) - 1);
  return C.BaseRegsPerThread + static_cast<int64_t>(Frag * PipeScale);
}

int64_t regBudget(const GpuConfig &C, bool Ws, int64_t Replicas) {
  if (!Ws)
    return C.RegsPerSm / 256;
  return std::min<int64_t>((C.RegsPerSm - 128 * 24) / (128 * Replicas),
                           C.MaxRegsPerThread);
}

TensorData slice2d(const TensorData &T, int64_t Bh, int64_t L, int64_t D) {
  TensorData W = T.extractWindow({Bh, 0, 0}, {1, L, D});
  TensorData Out({L, D});
  for (int64_t I = 0, E = L * D; I != E; ++I)
    Out.at(I) = W.at(I);
  return Out;
}

void roundHost(TensorData &T, Precision P) {
  for (int64_t I = 0, E = T.getNumElements(); I != E; ++I)
    T.at(I) = P == Precision::FP16 ? roundToFp16(T.at(I))
                                   : roundToFp8E4M3(T.at(I));
}

TensorRef makeInput(std::vector<int64_t> Shape, uint64_t Seed,
                    Precision P) {
  auto T = std::make_shared<TensorData>(std::move(Shape));
  T->fillRandom(Seed, 1.0f);
  roundHost(*T, P);
  return T;
}

uint64_t hashTensor(const TensorData &T) {
  return fnv1a64(T.data(),
                 static_cast<size_t>(T.getNumElements()) * sizeof(float));
}

/// Adds CTAs, trace actions and happens-before events to \p C under the
/// interpreter mode \p Mode ("timing" or "functional").
void countTraces(const std::vector<CtaTrace> &Traces, const std::string &Mode,
                 Counters &C) {
  C[Mode + "_ctas"] += static_cast<int64_t>(Traces.size());
  for (const CtaTrace &T : Traces) {
    C["hb_events"] += static_cast<int64_t>(T.HbEvents);
    for (const AgentTrace &A : T.Agents)
      C[Mode + "_actions"] += static_cast<int64_t>(A.Actions.size());
  }
}

/// The state one decomposition threads through its layer calls.
struct Decomp {
  const Runner &R;
  const Point &Pt;
  SpanLog &L;
  int Parent;
  Counters &C;
  Decomposed Out;
  ProgramCache::EntryRef Entry;

  /// Runs \p Fn under a span named \p Name.
  template <typename F> auto span(const char *Name, F &&Fn) {
    Scoped S(L, Name, Parent);
    return Fn();
  }
  bool fail(const std::string &E) {
    Out.Error = E;
    return false;
  }
  bool lookup(const std::string &Key);
  bool interpret(const char *Name, Interpreter &I, const RunOptions &Opts,
                 const std::vector<CtaCoord> &Coords,
                 std::vector<CtaTrace> &Traces);
  bool replay(const std::vector<CtaTrace> &Samples, int64_t Repeat,
              const ReplayParams &Params);
};

bool Decomp::lookup(const std::string &Key) {
  ProgramCache::Outcome O = ProgramCache::Outcome::Failed;
  std::string Err;
  Entry = span("support.program_cache.lookup", [&] {
    return ProgramCache::shared().getOrCompile(
        Key, R.getConfig(), /*NeedModule=*/false, /*NeedProgram=*/true,
        bc::fusionEnabled(R.FuseBytecode),
        [](std::string &E) -> ProgramCache::EntryRef {
          E = "program not cached";
          return nullptr;
        },
        Err, &O);
  });
  if (!Entry || O != ProgramCache::Outcome::MemoryHit)
    return fail("program-cache lookup missed: " + Err);
  return true;
}

bool Decomp::interpret(const char *Name, Interpreter &I, const RunOptions &Opts,
                    const std::vector<CtaCoord> &Coords,
                    std::vector<CtaTrace> &Traces) {
  std::string Err = span(Name, [&] {
    if (Coords.empty())
      return I.runGrid(Opts, nullptr, &Traces);
    return I.runCtaBatch(Opts, Coords, Traces);
  });
  if (!Err.empty())
    return fail(Err);
  countTraces(Traces, Opts.Functional ? "functional" : "timing", C);
  return true;
}

bool Decomp::replay(const std::vector<CtaTrace> &Samples, int64_t Repeat,
                 const ReplayParams &Params) {
  std::vector<const CtaTrace *> Schedule;
  for (int64_t I = 0; I < Repeat; ++I)
    for (const CtaTrace &T : Samples)
      Schedule.push_back(&T);
  ReplayResult Rep = span("sim.replay", [&] {
    return replaySmSchedule(Schedule, R.getConfig(), Params);
  });
  if (Rep.Deadlock)
    return fail(Rep.Error);
  for (const CtaTrace *T : Schedule)
    for (const AgentTrace &A : T->Agents)
      C["actions_replayed"] += static_cast<int64_t>(A.Actions.size());
  C["sim_cycles"] += static_cast<int64_t>(Rep.Cycles);
  Out.Micros = R.getConfig().cyclesToMicros(Rep.Cycles) +
               Pt.P.Envelope.ExtraLaunchMicros;
  return true;
}

/// Register-budget penalties; false when the Runner would refuse the point
/// as infeasible before executing.
bool penalties(const GpuConfig &Cfg, const TawaOptions &O, int64_t AccElems,
               int64_t P, const FrameworkEnvelope &E, bool HardLimit,
               ReplayParams &Params) {
  int64_t Regs = regsPerThread(Cfg, AccElems, P, O.NumConsumerGroups,
                               O.EnableWarpSpecialization);
  Params.TensorPenalty = E.ComputeScale;
  Params.CudaPenalty = E.CudaScale;
  if (HardLimit && Regs > Cfg.MaxRegsPerThread)
    return false;
  if (Regs > regBudget(Cfg, O.EnableWarpSpecialization, O.NumConsumerGroups)) {
    Params.TensorPenalty *= Cfg.SpillPenalty;
    Params.CudaPenalty *= Cfg.SpillPenalty;
  }
  Params.CtaGapCycles = E.ExtraCtaCycles;
  return true;
}

void decomposeGemm(Decomp &X) {
  const GpuConfig &Cfg = X.R.getConfig();
  const SweepPoint &P = X.Pt.P;
  const GemmWorkload &W = P.Gemm;
  TawaOptions O = effectiveOptions(P);
  GemmKernelConfig K = gemmKernel(P);
  bool Grouped = K.Grouped;
  ReplayParams Params;
  if (!penalties(Cfg, O, K.TileM * K.TileN,
                 O.CoarsePipeline ? 2 : O.MmaPipelineDepth, P.Envelope,
                 /*HardLimit=*/true, Params))
    return;
  if (!X.lookup(compileKeyOf(X.R, X.Pt)))
    return;
  X.Out.Ran = true;

  int64_t TotalM = W.totalM();
  int64_t NumPidN = ceilDiv(W.N, K.TileN);
  RunOptions Launch;
  Launch.Functional = P.Functional;
  Launch.FuseBytecode = X.R.FuseBytecode;
  Launch.NumWorkers = X.R.NumWorkers;
  Launch.MaxSteps = X.R.MaxSteps;
  Launch.MaxWallMs = X.R.MaxWallMs;
  std::vector<CtaCoord> Coords, Sm0;
  std::vector<int64_t> RowStart;
  int64_t Tiles = 0, TotalCtas = 0, Repeat = 1;
  bool Persistent = O.Persistent && O.EnableWarpSpecialization;
  TensorRef A, B, C, Table;
  int64_t NumExperts = static_cast<int64_t>(W.GroupMs.size());
  if (Grouped) {
    int64_t MaxCtas = 1, Row = 0;
    for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
      RowStart.push_back(Row);
      Row += W.GroupMs[Ex];
      int64_t N = ceilDiv(W.GroupMs[Ex], K.TileM) * NumPidN;
      MaxCtas = std::max(MaxCtas, N);
      for (int64_t T = 0; T < N; ++T)
        Coords.push_back({T, Ex});
    }
    TotalCtas = static_cast<int64_t>(Coords.size());
    if (TotalCtas == 0) {
      X.Out.Micros = P.Envelope.ExtraLaunchMicros;
      if (P.Functional)
        X.Out.MaxRelError = 0;
      return;
    }
    for (int64_t I = 0; I < TotalCtas; I += Cfg.NumSms)
      Sm0.push_back(Coords[I]);
    Launch.GridX = MaxCtas;
    Launch.GridY = NumExperts;
    if (P.Functional) {
      A = makeInput({TotalM, W.K}, 1, W.Prec);
      B = makeInput({NumExperts, W.N, W.K}, 2, W.Prec);
      C = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.N});
      Table = std::make_shared<TensorData>(std::vector<int64_t>{NumExperts, 2});
      for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
        Table->at(Ex * 2) = static_cast<float>(RowStart[Ex]);
        Table->at(Ex * 2 + 1) = static_cast<float>(W.GroupMs[Ex]);
      }
    }
    Launch.Args = {RuntimeArg::tensor(A),   RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),   RuntimeArg::tensor(Table),
                   RuntimeArg::scalar(W.N), RuntimeArg::scalar(W.K)};
  } else {
    Tiles = ceilDiv(TotalM, K.TileM) * NumPidN;
    Launch.GridX = Persistent ? std::min<int64_t>(Cfg.NumSms, Tiles) : Tiles;
    Launch.GridY = K.SplitK ? W.SplitK : W.Batch;
    TotalCtas = Tiles * Launch.GridY;
    Repeat = Persistent ? 1 : ceilDiv(TotalCtas, Cfg.NumSms);
    if (P.Functional) {
      std::vector<int64_t> AS = {TotalM, W.K}, BS = {W.N, W.K},
                           CS = {TotalM, W.N};
      if (K.Batched) {
        AS.insert(AS.begin(), W.Batch);
        BS.insert(BS.begin(), W.Batch);
        CS.insert(CS.begin(), W.Batch);
      }
      A = makeInput(AS, 1, W.Prec);
      B = makeInput(BS, 2, W.Prec);
      C = std::make_shared<TensorData>(CS);
    }
    Launch.Args = {RuntimeArg::tensor(A),      RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),      RuntimeArg::scalar(TotalM),
                   RuntimeArg::scalar(W.N),    RuntimeArg::scalar(W.K)};
  }

  Interpreter Interp(X.Entry->M.get(), Cfg, X.Entry->Prog);
  std::vector<CtaTrace> Samples;
  if (P.Functional) {
    std::vector<CtaTrace> All;
    if (!X.interpret("sim.interpreter.functional", Interp, Launch,
                     Grouped ? Coords : std::vector<CtaCoord>{}, All))
      return;
    X.C["macs"] += static_cast<int64_t>(W.flops() / 2);
    X.Out.OutputHash = hashTensor(*C);
    X.Out.MaxRelError = X.span("driver.runner.reference", [&] {
      double Worst = 0;
      if (Grouped) {
        for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
          if (W.GroupMs[Ex] == 0)
            continue;
          TensorData Ae = A->extractWindow({RowStart[Ex], 0},
                                           {W.GroupMs[Ex], W.K});
          TensorData Be = slice2d(*B, Ex, W.N, W.K);
          TensorData Ce = C->extractWindow({RowStart[Ex], 0},
                                           {W.GroupMs[Ex], W.N});
          TensorData Ref = referenceGemm(Ae, Be);
          roundHost(Ref, Precision::FP16);
          Worst = std::max(Worst, Ce.maxRelDiff(Ref));
        }
      } else if (K.SplitK) {
        Worst = C->maxRelDiff(referenceGemm(*A, *B));
      } else if (!K.Batched) {
        TensorData Ref = referenceGemm(*A, *B);
        roundHost(Ref, Precision::FP16);
        Worst = C->maxRelDiff(Ref);
      } else {
        for (int64_t Z = 0; Z < W.Batch; ++Z) {
          TensorData Ref = referenceGemm(slice2d(*A, Z, TotalM, W.K),
                                         slice2d(*B, Z, W.N, W.K));
          roundHost(Ref, Precision::FP16);
          Worst = std::max(Worst,
                           slice2d(*C, Z, TotalM, W.N).maxRelDiff(Ref));
        }
      }
      return Worst;
    });
    if (Grouped) {
      for (int64_t I = 0; I < TotalCtas; I += Cfg.NumSms)
        Samples.push_back(std::move(All[static_cast<size_t>(I)]));
    } else {
      Samples.push_back(std::move(All[0]));
    }
  } else {
    if (!X.interpret("sim.interpreter.timing", Interp, Launch,
                     Grouped ? Sm0 : std::vector<CtaCoord>{{0, 0}}, Samples))
      return;
  }
  if (Samples.front().SmemBytes > Cfg.SmemBytesPerSm) {
    X.Out.Ran = false; // The Runner reports the point infeasible.
    return;
  }
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(TotalCtas, Cfg.NumSms));
  Params.DramReuseFactor =
      Grouped ? gemmReuseFactor(ceilDiv(TotalM, K.TileM), NumPidN, K.TileM,
                                K.TileN, std::min<int64_t>(TotalCtas, Cfg.NumSms))
              : gemmReuseFactor(ceilDiv(TotalM, K.TileM), NumPidN, K.TileM,
                                K.TileN, std::min<int64_t>(Tiles, Cfg.NumSms));
  X.replay(Samples, Repeat, Params);
}

void decomposeAttention(Decomp &X) {
  const GpuConfig &Cfg = X.R.getConfig();
  const SweepPoint &P = X.Pt.P;
  const AttentionWorkload &W = P.Attn;
  const TawaOptions &O = P.Envelope.Options;
  AttentionKernelConfig K = attnKernel(P);
  ReplayParams Params;
  penalties(Cfg, O, K.TileQ * (W.HeadDim + K.TileKv / 2),
            O.CoarsePipeline ? 2 : 1, P.Envelope, /*HardLimit=*/false,
            Params);
  if (!X.lookup(compileKeyOf(X.R, X.Pt)))
    return;
  X.Out.Ran = true;

  int64_t QTiles = ceilDiv(W.SeqLen, K.TileQ);
  int64_t BH = W.Batch * W.Heads;
  int64_t TotalCtas = QTiles * BH;
  RunOptions Launch;
  Launch.GridX = QTiles;
  Launch.GridY = BH;
  Launch.Functional = P.Functional;
  Launch.FuseBytecode = X.R.FuseBytecode;
  Launch.NumWorkers = X.R.NumWorkers;
  Launch.MaxSteps = X.R.MaxSteps;
  Launch.MaxWallMs = X.R.MaxWallMs;
  TensorRef Q, Kt, V, Ot;
  if (P.Functional) {
    std::vector<int64_t> Shape = {BH, W.SeqLen, W.HeadDim};
    Q = makeInput(Shape, 11, W.Prec);
    Kt = makeInput(Shape, 12, W.Prec);
    V = makeInput(Shape, 13, W.Prec);
    Ot = std::make_shared<TensorData>(Shape);
  }
  Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(Kt),
                 RuntimeArg::tensor(V), RuntimeArg::tensor(Ot),
                 RuntimeArg::scalar(W.SeqLen)};
  Interpreter Interp(X.Entry->M.get(), Cfg, X.Entry->Prog);
  if (P.Functional) {
    std::vector<CtaTrace> All;
    if (!X.interpret("sim.interpreter.functional", Interp, Launch, {}, All))
      return;
    X.C["macs"] += static_cast<int64_t>(W.flops() / 2);
    X.Out.OutputHash = hashTensor(*Ot);
    X.Out.MaxRelError = X.span("driver.runner.reference", [&] {
      double Worst = 0;
      for (int64_t Y = 0; Y < BH; ++Y) {
        TensorData Ref = referenceAttention(slice2d(*Q, Y, W.SeqLen, W.HeadDim),
                                            slice2d(*Kt, Y, W.SeqLen, W.HeadDim),
                                            slice2d(*V, Y, W.SeqLen, W.HeadDim),
                                            W.Causal);
        roundHost(Ref, Precision::FP16);
        Worst = std::max(
            Worst, slice2d(*Ot, Y, W.SeqLen, W.HeadDim).maxRelDiff(Ref));
      }
      return Worst;
    });
  }
  RunOptions Timing = Launch;
  Timing.Functional = false;
  std::vector<CtaCoord> Sm0;
  for (int64_t Pid = 0; Pid < TotalCtas; Pid += Cfg.NumSms)
    Sm0.push_back({Pid % QTiles, Pid / QTiles});
  std::vector<CtaTrace> Samples;
  if (!X.interpret("sim.interpreter.timing", Interp, Timing, Sm0, Samples))
    return;
  if (!P.Functional && W.Causal && Sm0.size() > 1) {
    // The sampler's worker-pool fan-out: the same batch at one worker.
    // Not children of the Runner span: the Runner makes only the first of
    // these calls, which the timing span already covers.
    X.L.add("support.worker_pool.batch_default",
            X.L.spans().back().StartUs, X.L.spans().back().EndUs);
    RunOptions One = Timing;
    One.NumWorkers = 1;
    std::vector<CtaTrace> Serial;
    std::string Err;
    {
      Scoped S(X.L, "support.worker_pool.batch_1w");
      Err = Interp.runCtaBatch(One, Sm0, Serial);
    }
    if (!Err.empty()) {
      X.fail(Err);
      return;
    }
    X.C["batch_samples"] += static_cast<int64_t>(Sm0.size());
  }
  if (Samples.front().SmemBytes > Cfg.SmemBytesPerSm) {
    X.Out.Ran = false;
    return;
  }
  int64_t Wave = std::min<int64_t>(TotalCtas, Cfg.NumSms);
  double HeadsCovered =
      std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                       static_cast<double>(BH));
  double KvBytes = 2.0 * static_cast<double>(W.SeqLen) * W.HeadDim *
                   getPrecisionBytes(W.Prec);
  double QBytes =
      static_cast<double>(K.TileQ) * W.HeadDim * getPrecisionBytes(W.Prec);
  double KvReuse = HeadsCovered / static_cast<double>(Wave);
  Params.BwShareSms = static_cast<double>(Wave);
  Params.DramReuseFactor =
      std::min(1.0, (QBytes + KvBytes * KvReuse) / (QBytes + KvBytes));
  X.replay(Samples, 1, Params);
}

} // namespace

Decomposed decomposeRun(const Runner &R, const Point &Pt, SpanLog &L,
                        int Parent, Counters &C) {
  Decomp X{R, Pt, L, Parent, C, {}, nullptr};
  const FrameworkEnvelope &E = Pt.P.Envelope;
  if (!E.Supported || E.Analytic || compileKeyOf(R, Pt).empty())
    return X.Out;
  if (Pt.P.PointKind == SweepPoint::Kind::Gemm)
    decomposeGemm(X);
  else
    decomposeAttention(X);
  return X.Out;
}

namespace {

int64_t countOps(const Module &M) {
  int64_t N = 0;
  for (Operation *Op : M.getBody().getOps())
    Op->walk([&](Operation *) { ++N; });
  return N;
}

} // namespace

uint64_t programShape(const bc::CompiledProgram &P) {
  std::vector<int64_t> V = {P.NumSlots,
                            static_cast<int64_t>(P.OperandSlots.size()),
                            static_cast<int64_t>(P.Loops.size()),
                            P.Fusion.InstsBefore,
                            P.Fusion.InstsAfter,
                            static_cast<int64_t>(P.Agents.size())};
  auto AddRegion = [&](const bc::RegionProgram &RP) {
    V.push_back(static_cast<int64_t>(RP.Code.size()));
    for (const bc::Inst &I : RP.Code)
      V.push_back(static_cast<int64_t>(I.Op) << 8 | I.NumOps);
  };
  AddRegion(P.Preamble);
  for (const bc::RegionProgram &RP : P.Agents)
    AddRegion(RP);
  return fnv1a64(V.data(), V.size() * sizeof(int64_t));
}

uint64_t cachedProgramShape(const Runner &R, const Point &Pt) {
  std::string Err;
  ProgramCache::EntryRef E = ProgramCache::shared().getOrCompile(
      compileKeyOf(R, Pt), R.getConfig(), false, true,
      bc::fusionEnabled(R.FuseBytecode),
      [](std::string &Er) -> ProgramCache::EntryRef {
        Er = "program not cached";
        return nullptr;
      },
      Err);
  return E && E->Prog ? programShape(*E->Prog) : 0;
}

uint64_t decomposeCompile(const Runner &R, const Point &Pt, SpanLog &L,
                          int Parent, Counters &C, std::string &Err) {
  const SweepPoint &P = Pt.P;
  bool IsGemm = P.PointKind == SweepPoint::Kind::Gemm;
  TawaOptions O = effectiveOptions(P);
  IrContext Ctx;
  std::unique_ptr<Module> M;
  {
    Scoped S(L, "frontend.build", Parent);
    if (IsGemm) {
      GemmKernelConfig K = gemmKernel(P);
      M = K.Grouped  ? buildGroupedGemmModule(Ctx, K)
          : K.SplitK ? buildSplitKGemmModule(Ctx, K)
                     : buildGemmModule(Ctx, K);
    } else {
      M = buildAttentionModule(Ctx, attnKernel(P));
    }
  }
  C["frontend_ir_ops"] += countOps(*M);
  {
    int Id = L.begin("passes.run", Parent);
    PassManager PM;
    buildTawaPipeline(PM, O);
    Err = PM.run(*M);
    if (Err.empty() && !O.EnableWarpSpecialization &&
        P.Envelope.SwPipelineDepth > 0)
      Err = runSoftwarePipeline(*M, P.Envelope.SwPipelineDepth);
    L.end(Id);
    // Per-pass wall times as children of the pipeline span, laid end to
    // end from its start.
    double T = L.spans()[static_cast<size_t>(Id)].StartUs;
    for (const auto &[Name, Sec] : PM.getTimings()) {
      L.add("passes." + Name, T, T + Sec * 1e6, Id);
      T += Sec * 1e6;
    }
    if (!Err.empty())
      return 0;
  }
  C["passes_ir_ops_out"] += countOps(*M);
  std::shared_ptr<const bc::CompiledProgram> Flat;
  {
    Scoped S(L, "sim.bytecode.flatten", Parent);
    Flat = bc::compileModule(*M, R.getConfig(), /*Fuse=*/false);
  }
  bc::CompiledProgram Prog = *Flat;
  int64_t Insts = static_cast<int64_t>(Prog.Preamble.Code.size());
  for (const bc::RegionProgram &RP : Prog.Agents)
    Insts += static_cast<int64_t>(RP.Code.size());
  C["bytecode_insts"] += Insts;
  if (bc::fusionEnabled(R.FuseBytecode)) {
    bc::FusionStats FS;
    {
      Scoped S(L, "sim.peephole.fuse", Parent);
      FS = bc::fuseProgram(Prog);
    }
    C["fused_insts_covered"] +=
        static_cast<int64_t>(std::llround(FS.coverage() * FS.InstsBefore));
  }
  // The disk layer's calls: the Runner does not make them on a compile,
  // so they are not children of its span.
  std::string Bytes;
  {
    Scoped S(L, "sim.bytecode.serialize");
    Bytes = bc::serializeProgram(Prog);
  }
  C["bytes_serialized"] += static_cast<int64_t>(Bytes.size());
  {
    Scoped S(L, "sim.bytecode.deserialize");
    if (!bc::deserializeProgram(Bytes))
      Err = "serialized program does not deserialize";
  }
  return programShape(Prog);
}

void reportLayers(Result &R, const SpanLog &L, const Counters &C,
                  double Passes) {
  auto Get = [&](const char *K) -> double {
    auto It = C.find(K);
    return It == C.end() ? 0 : static_cast<double>(It->second);
  };
  // Busy time per pass over a count per pass, in ns per unit.
  auto NsPer = [&](const char *Span, double Count) {
    double Us = 0;
    for (const pb::Span &S : L.spans())
      if (S.Name == Span)
        Us += S.durUs();
    return Count > 0 ? Us / Passes * 1e3 / Count : 0;
  };
  for (const char *Name :
       {"frontend.build", "passes.run", "ir.parse", "sim.bytecode.flatten",
        "sim.bytecode.serialize", "sim.bytecode.deserialize",
        "sim.peephole.fuse", "support.program_cache.lookup",
        "sim.interpreter.timing", "sim.interpreter.functional",
        "support.worker_pool.batch_1w", "support.worker_pool.batch_default",
        "driver.runner.reference", "driver.sweep.prewarm",
        "serve.protocol.parse", "serve.protocol.render",
        "serve.service.call"})
    R.set(std::string(Name) + "_us", L.medianUs(Name));
  for (const char *P : PassNames)
    R.set(std::string("passes.") + P + "_us",
          L.medianUs(std::string("passes.") + P));
  R.set("sim.replay.us", L.medianUs("sim.replay"));
  R.set("serve.execute.us", L.medianUs("serve.execute.us"));
  R.set("driver.runner.self_us", L.medianSelfUs("driver.runner"));
  R.set("frontend.ir_ops", Get("frontend_ir_ops"));
  R.set("passes.ir_ops_out", Get("passes_ir_ops_out"));
  R.set("ir.parse_mb_per_s",
        NsPer("ir.parse", Get("ir_bytes_parsed")) > 0
            ? 1e3 / NsPer("ir.parse", Get("ir_bytes_parsed"))
            : 0);
  R.set("sim.bytecode.insts", Get("bytecode_insts"));
  R.set("sim.bytecode.program_bytes", Get("bytes_serialized"));
  R.set("sim.peephole.fused_insts_ratio",
        Get("bytecode_insts") > 0
            ? Get("fused_insts_covered") / Get("bytecode_insts")
            : 0);
  R.set("sim.interpreter.ctas", Get("timing_ctas") + Get("functional_ctas"));
  R.set("sim.interpreter.actions",
        Get("timing_actions") + Get("functional_actions"));
  R.set("sim.interpreter.ns_per_action",
        NsPer("sim.interpreter.timing", Get("timing_actions")));
  R.set("sim.interpreter.hb_events", Get("hb_events"));
  R.set("sim.interpreter.macs", Get("macs"));
  R.set("sim.interpreter.ns_per_mac",
        NsPer("sim.interpreter.functional", Get("macs")));
  R.set("sim.replay.actions_replayed", Get("actions_replayed"));
  R.set("sim.replay.ns_per_action",
        NsPer("sim.replay", Get("actions_replayed")));
  R.set("sim.replay.sim_cycles", Get("sim_cycles"));
  R.set("support.worker_pool.workers_effective",
        static_cast<double>(resolveNumWorkers(0)));
}

} // namespace pb

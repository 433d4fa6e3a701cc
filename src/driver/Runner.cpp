//===- Runner.cpp - Compile-and-simulate orchestration -------------------------//

#include "driver/Runner.h"

#include "ir/Verifier.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Numerics.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Analytic L2-reuse model for GEMM: within one wave of CTAs the scheduler
/// covers a Rows x Cols rectangle of output tiles whose A/B slabs fit L2, so
/// only the rectangle's border data hits DRAM. Returns the DRAM fraction of
/// requested bytes (<= 1).
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
    double Unique = static_cast<double>(Rows * TileM + Cols * TileN);
    BestUnique = std::min(BestUnique, Unique);
  }
  if (BestUnique >= 1e30) // Wave wider than the grid: everything unique.
    return 1.0;
  double Requested = static_cast<double>(Wave) *
                     static_cast<double>(TileM + TileN);
  return std::min(1.0, BestUnique / Requested);
}

/// Register-pressure estimate for a consumer warp group (§IV-A, Fig. 11):
/// the f32 accumulator fragments live in registers, split across cooperative
/// replicas, and deeper MMA pipelines keep more fragments alive.
int64_t estimateRegsPerThread(const GpuConfig &Config, int64_t AccElems,
                              int64_t P, int64_t Replicas,
                              bool WarpSpecialized) {
  // WS: each consumer warp group (128 threads) holds 1/Replicas of the
  // accumulator. Non-WS: all 8 warps (256 threads) share the tile.
  double Threads = WarpSpecialized ? 128.0 * static_cast<double>(Replicas)
                                   : 256.0;
  double Frag = static_cast<double>(AccElems) / Threads;
  double PipeScale =
      1.0 + Config.PipelineRegFactor * static_cast<double>(std::max<int64_t>(
                                           P, 1) -
                                       1);
  return Config.BaseRegsPerThread +
         static_cast<int64_t>(Frag * PipeScale);
}

/// Per-thread register budget for consumer warp groups: the producer group
/// runs register-deallocated (setmaxnreg) at ~40 regs/thread.
int64_t consumerRegBudget(const GpuConfig &Config, bool WarpSpecialized,
                          int64_t Replicas) {
  if (!WarpSpecialized)
    return Config.RegsPerSm / 256; // 8 warps, one CTA.
  // The producer group runs register-deallocated (setmaxnreg ~24, as FA3
  // and CUTLASS producer warps do).
  int64_t ProducerRegs = 128 * 24;
  int64_t ConsumerThreads = 128 * Replicas;
  return std::min<int64_t>((Config.RegsPerSm - ProducerRegs) /
                               ConsumerThreads,
                           Config.MaxRegsPerThread);
}

/// Returns the (Rows x Cols) matrix starting at row \p Row of slab \p Slab
/// of a rank-3 host tensor, or at row \p Row of a rank-2 one (\p Slab must
/// then be 0). That is \p T itself when it is the whole rank-2 tensor, else
/// a one-pass copy held in \p Storage.
const TensorData &matrixSlab(const TensorData &T, int64_t Slab, int64_t Row,
                             int64_t Rows, int64_t Cols,
                             TensorData &Storage) {
  if (T.getRank() == 2) {
    assert(Slab == 0 && "rank-2 tensors have one slab");
    if (Row == 0 && Rows == T.getDim(0))
      return T;
  }
  Storage = TensorData({Rows, Cols});
  if (T.getRank() == 3)
    T.extractWindowInto({Slab, Row, 0}, {1, Rows, Cols}, Storage.data());
  else
    T.extractWindowInto({Row, 0}, {Rows, Cols}, Storage.data());
  return Storage;
}

/// Rounds a freshly filled host tensor to the kernel input precision.
void roundHostTensor(TensorData &T, Precision P) {
  float *D = T.data();
  int64_t N = T.getNumElements();
  if (P == Precision::FP16)
    for (int64_t I = 0; I < N; ++I)
      D[I] = roundToFp16(D[I]);
  else
    for (int64_t I = 0; I < N; ++I)
      D[I] = roundToFp8E4M3(D[I]);
}

/// Returns the maxRelDiff of one kernel output slab \p Out against its
/// double-precision reference \p Ref. An output stored as f16 is compared
/// against the reference rounded to f16.
double slabError(const TensorData &Out, TensorData Ref, bool StoredFp16) {
  if (StoredFp16)
    roundHostTensor(Ref, Precision::FP16);
  return Out.maxRelDiff(Ref);
}

/// Validates a kernel's output one independent 2-D slab at a time (the
/// whole output, a batch entry, an expert's rows, an attention head) and
/// returns the worst \p SlabError(I).
template <typename SlabFn>
double worstSlabError(int64_t NumSlabs, SlabFn SlabError) {
  double Worst = 0;
  for (int64_t I = 0; I < NumSlabs; ++I)
    Worst = std::max(Worst, SlabError(I));
  return Worst;
}

/// Serializes every compile-time knob that shapes the generated module or
/// its bytecode lowering, so sweeps that only vary runtime dimensions share
/// one cache entry. The fusion flag lives here: a fused and an unfused
/// compile of the same kernel are different programs and must never share
/// a cache entry (in memory or on disk).
std::string pipelineKeySuffix(const TawaOptions &O, int64_t SwDepth,
                              bool Fuse) {
  return formatString(
      "|ws%d|d%lld|mma%lld|cg%lld|pers%d|coarse%d|sw%lld|fuse%d",
      O.EnableWarpSpecialization ? 1 : 0,
      static_cast<long long>(O.ArefDepth),
      static_cast<long long>(O.MmaPipelineDepth),
      static_cast<long long>(O.NumConsumerGroups), O.Persistent ? 1 : 0,
      O.CoarsePipeline ? 1 : 0, static_cast<long long>(SwDepth),
      Fuse ? 1 : 0);
}

/// True when the envelope reaches the compiler at all: compiled (not
/// analytic / unsupported) and, under warp specialization, with options
/// the compiler accepts.
bool reachesCompiler(const FrameworkEnvelope &E, const TawaOptions &O) {
  if (!E.Supported || E.Analytic)
    return false;
  return !O.EnableWarpSpecialization || O.validate().empty();
}

/// Fails \p R with \p Error classified as \p Kind. An Unsupported result is
/// also !Supported and an Infeasible one !Feasible.
RunResult failed(RunResult &R, std::string Error, ErrorKind Kind) {
  R.Error = std::move(Error);
  R.Kind = Kind;
  R.Supported = Kind != ErrorKind::Unsupported;
  R.Feasible = Kind != ErrorKind::Infeasible;
  return std::move(R);
}

/// A host input tensor of \p Shape, filled from \p Seed and rounded to the
/// kernel input precision.
TensorRef hostInput(std::vector<int64_t> Shape, uint64_t Seed, Precision P) {
  auto T = std::make_shared<TensorData>(std::move(Shape));
  T->fillRandom(Seed, 1.0f);
  roundHostTensor(*T, P);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Launch plans
//===----------------------------------------------------------------------===//

namespace tawa {

/// What one point's launch needs beyond Runner::execute's shared skeleton.
/// Each kernel family derives it once, in its plan's constructor: the
/// compile plan (kernel config, effective options, cache key, module
/// builder) — all that compileKey and prewarm read, so a pre-warm pass
/// provably compiles under the key the execute pass looks up — and the
/// register-estimate inputs. setUp() fills the launch once the point is
/// feasible, and validate() checks a functional run's output.
struct LaunchPlan {
  TawaOptions Options; ///< Effective options (GEMM drops Persistent).
  int64_t SwPipelineDepth = 0;
  /// The program-cache key; "" when the point never reaches the compiler.
  std::string Key;
  /// A family-specific refusal of an otherwise valid envelope, or null.
  const char *Unsupported = nullptr;

  /// Register estimate inputs: accumulator elements per CTA and the MMA
  /// fragments the pipeline keeps alive.
  int64_t AccElems = 0;
  int64_t RegPipelineDepth = 1;
  /// Over MaxRegsPerThread: refuse the point (GEMM) or only spill.
  bool HardRegLimit = true;
  /// The shared-memory refusal names both byte counts.
  bool SmemBytesInError = true;
  double Flops = 0;

  /// Grid and arguments; execute adds the Runner's knobs.
  RunOptions Launch;
  /// The functional pass's ragged CTA list; empty runs the whole grid.
  std::vector<CtaCoord> Ctas;
  /// The functional pass already yields SM0's samples: runGrid's CTA (0,0)
  /// trace, or every NumSms-th trace of Ctas. Otherwise (and in timing
  /// mode) the samples are Sm0's CTAs, interpreted in timing mode.
  bool KeepsSamples = false;
  std::vector<CtaCoord> Sm0;
  int64_t Sm0Repeat = 1; ///< SM0 replays its samples this many times.
  int64_t TotalCtas = 0;
  double DramReuseFactor = 1.0;

  virtual std::unique_ptr<Module> build(IrContext &Ctx) const = 0;
  /// Fills the launch; false when it has no CTAs and nothing runs.
  virtual bool setUp(const GpuConfig &Config, bool Functional) = 0;
  /// The worst relative error over the functional output's slabs.
  virtual double validate() const = 0;
};

} // namespace tawa

namespace {

/// Plain, batched and split-K GEMM; GroupedGemmPlan reuses its compile plan.
struct GemmPlan : LaunchPlan {
  const GemmWorkload &W;
  GemmKernelConfig Kernel;
  TensorRef A, B, C;

  GemmPlan(const GemmWorkload &W, const FrameworkEnvelope &E, bool Fuse)
      : W(W) {
    Kernel.TileM = E.TileM;
    Kernel.TileN = E.TileN;
    Kernel.TileK = E.TileK;
    Kernel.InPrecision = W.Prec;
    Kernel.Grouped = W.MoE && !W.GroupMs.empty();
    Kernel.SplitK = W.SplitK > 1 && !Kernel.Grouped && W.Batch == 1;
    Kernel.Batched = W.Batch > 1 && !Kernel.Grouped;
    Options = E.Options;
    // Grid axis 0 is a flat tile queue only for a plain GEMM: tile queues
    // are per batch slice, split-K pairs axis 0 with a reduction axis, and
    // grouped walks one expert's ragged tiles.
    if (W.Batch > 1 || W.SplitK > 1 || Kernel.Grouped)
      Options.Persistent = false;
    SwPipelineDepth = E.SwPipelineDepth;
    // The split factor and the per-expert GroupMs are runtime launch
    // parameters — deliberately absent so a whole split-factor or
    // expert-mix sweep shares one compiled program.
    if (reachesCompiler(E, Options))
      Key = formatString(
                "gemm|tm%lld|tn%lld|tk%lld|prec%d|b%d|pe%d|sk%d|moe%d|dl%d",
                static_cast<long long>(Kernel.TileM),
                static_cast<long long>(Kernel.TileN),
                static_cast<long long>(Kernel.TileK),
                static_cast<int>(Kernel.InPrecision), Kernel.Batched ? 1 : 0,
                Kernel.PointerEpilogue ? 1 : 0, Kernel.SplitK ? 1 : 0,
                Kernel.Grouped ? 1 : 0, Kernel.DeadlockEpilogue ? 1 : 0) +
            pipelineKeySuffix(Options, SwPipelineDepth, Fuse);
    if (W.SplitK > 1 && (W.Batch > 1 || W.MoE))
      Unsupported = "split-K requires Batch == 1 and a non-MoE workload";
    AccElems = Kernel.TileM * Kernel.TileN;
    RegPipelineDepth = Options.CoarsePipeline ? 2 : Options.MmaPipelineDepth;
    Flops = W.flops();
  }

  std::unique_ptr<Module> build(IrContext &Ctx) const override {
    if (Kernel.Grouped)
      return buildGroupedGemmModule(Ctx, Kernel);
    if (Kernel.SplitK)
      return buildSplitKGemmModule(Ctx, Kernel);
    return buildGemmModule(Ctx, Kernel);
  }

  bool setUp(const GpuConfig &Config, bool Functional) override {
    int64_t TotalM = W.totalM();
    int64_t NumPidM = ceilDiv(TotalM, Kernel.TileM);
    int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
    int64_t Tiles = NumPidM * NumPidN;
    bool Persistent = Options.Persistent && Options.EnableWarpSpecialization;
    Launch.GridX = Persistent ? std::min<int64_t>(Config.NumSms, Tiles)
                              : Tiles;
    // Grid axis 1 is the batch slice for batched GEMM and the K split for
    // split-K (num_programs(1) IS the split factor — no recompile per
    // factor).
    Launch.GridY = Kernel.SplitK ? W.SplitK : W.Batch;
    TotalCtas = Tiles * Launch.GridY;
    // GEMM trip counts are uniform across the grid, so CTA (0,0) stands for
    // every CTA SM0 runs.
    KeepsSamples = true;
    if (!Functional)
      Sm0 = {{0, 0}};
    Sm0Repeat = Persistent ? 1 : ceilDiv(TotalCtas, Config.NumSms);
    DramReuseFactor =
        gemmReuseFactor(NumPidM, NumPidN, Kernel.TileM, Kernel.TileN,
                        std::min<int64_t>(Tiles, Config.NumSms));
    if (Functional) {
      std::vector<int64_t> AShape = {TotalM, W.K};
      std::vector<int64_t> BShape = {W.N, W.K};
      std::vector<int64_t> CShape = {TotalM, W.N};
      if (Kernel.Batched) {
        AShape.insert(AShape.begin(), W.Batch);
        BShape.insert(BShape.begin(), W.Batch);
        CShape.insert(CShape.begin(), W.Batch);
      }
      A = hostInput(std::move(AShape), 1, W.Prec);
      B = hostInput(std::move(BShape), 2, W.Prec);
      C = std::make_shared<TensorData>(std::move(CShape));
    }
    Launch.Args = {RuntimeArg::tensor(A),      RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),      RuntimeArg::scalar(TotalM),
                   RuntimeArg::scalar(W.N),    RuntimeArg::scalar(W.K)};
    return true;
  }

  /// Split-K accumulates raw f32 partial sums into a zero-initialized C (no
  /// f16 store rounding), so it compares against the unrounded reference.
  double validate() const override {
    int64_t TotalM = W.totalM();
    return worstSlabError(Kernel.Batched ? W.Batch : 1, [&](int64_t Z) {
      TensorData As, Bs, Cs;
      return slabError(matrixSlab(*C, Z, 0, TotalM, W.N, Cs),
                       referenceGemm(matrixSlab(*A, Z, 0, TotalM, W.K, As),
                                     matrixSlab(*B, Z, 0, W.N, W.K, Bs)),
                       !Kernel.SplitK);
    });
  }
};

/// Grouped/MoE GEMM (W.MoE with non-empty GroupMs): a data-dependent ragged
/// CTA list, an (E, 2) group-offset table over the concatenated A/C slabs,
/// and one validated slab per expert.
struct GroupedGemmPlan final : GemmPlan {
  using GemmPlan::GemmPlan;
  TensorRef Table;
  std::vector<int64_t> RowStart; ///< Each expert's first row of A and C.

  bool setUp(const GpuConfig &Config, bool Functional) override {
    // Grid axis 1 is the expert, axis 0 walks that expert's (m tile, n tile)
    // pairs n-major; experts with zero rows contribute zero CTAs.
    int64_t NumExperts = static_cast<int64_t>(W.GroupMs.size());
    int64_t TotalM = W.totalM();
    int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
    RowStart.assign(NumExperts, 0);
    int64_t MaxCtasPerExpert = 1;
    int64_t Row = 0;
    for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
      RowStart[Ex] = Row;
      Row += W.GroupMs[Ex];
      int64_t ExpertCtas = ceilDiv(W.GroupMs[Ex], Kernel.TileM) * NumPidN;
      MaxCtasPerExpert = std::max(MaxCtasPerExpert, ExpertCtas);
      for (int64_t T = 0; T < ExpertCtas; ++T)
        Ctas.push_back({T, Ex});
    }
    TotalCtas = static_cast<int64_t>(Ctas.size());
    if (TotalCtas == 0)
      return false; // Every expert is empty.
    Launch.GridX = MaxCtasPerExpert;
    Launch.GridY = NumExperts;
    // SM0 runs every NumSms-th CTA of the list (the attention sampling
    // pattern); the functional pass interprets them all.
    KeepsSamples = true;
    if (!Functional)
      for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
        Sm0.push_back(Ctas[I]);
    // Approximate L2 reuse over the concatenated row space: a wave of ragged
    // tiles still covers a rectangle-ish region of (row tile, n tile) pairs.
    DramReuseFactor = gemmReuseFactor(
        ceilDiv(TotalM, Kernel.TileM), NumPidN, Kernel.TileM, Kernel.TileN,
        std::min<int64_t>(TotalCtas, Config.NumSms));
    if (Functional) {
      A = hostInput({TotalM, W.K}, 1, W.Prec);
      B = hostInput({NumExperts, W.N, W.K}, 2, W.Prec);
      C = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.N});
      Table =
          std::make_shared<TensorData>(std::vector<int64_t>{NumExperts, 2});
      for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
        Table->at(Ex * 2) = static_cast<float>(RowStart[Ex]);
        Table->at(Ex * 2 + 1) = static_cast<float>(W.GroupMs[Ex]);
      }
    }
    Launch.Args = {RuntimeArg::tensor(A),     RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),     RuntimeArg::tensor(Table),
                   RuntimeArg::scalar(W.N),   RuntimeArg::scalar(W.K)};
    return true;
  }

  double validate() const override {
    return worstSlabError(
        static_cast<int64_t>(W.GroupMs.size()), [&](int64_t Ex) {
          if (W.GroupMs[Ex] == 0)
            return 0.0; // An empty expert has no rows to check.
          TensorData As, Bs, Cs;
          return slabError(
              matrixSlab(*C, 0, RowStart[Ex], W.GroupMs[Ex], W.N, Cs),
              referenceGemm(
                  matrixSlab(*A, 0, RowStart[Ex], W.GroupMs[Ex], W.K, As),
                  matrixSlab(*B, Ex, 0, W.N, W.K, Bs)),
              /*StoredFp16=*/true);
        });
  }
};

/// Multi-head attention: query tiles on grid axis 0, batch*heads on axis 1.
struct AttentionPlan final : LaunchPlan {
  const AttentionWorkload &W;
  AttentionKernelConfig Kernel;
  TensorRef Q, K, V, O;

  AttentionPlan(const AttentionWorkload &W, const FrameworkEnvelope &E,
                bool Fuse)
      : W(W) {
    Kernel.TileQ = E.TileQ;
    Kernel.TileKv = E.TileKv;
    Kernel.HeadDim = W.HeadDim;
    Kernel.Causal = W.Causal;
    Kernel.InPrecision = W.Prec;
    Options = E.Options;
    SwPipelineDepth = E.SwPipelineDepth;
    if (reachesCompiler(E, Options))
      Key = formatString("mha|tq%lld|tkv%lld|hd%lld|c%d|prec%d",
                         static_cast<long long>(Kernel.TileQ),
                         static_cast<long long>(Kernel.TileKv),
                         static_cast<long long>(Kernel.HeadDim),
                         Kernel.Causal ? 1 : 0,
                         static_cast<int>(Kernel.InPrecision)) +
            pipelineKeySuffix(Options, SwPipelineDepth, Fuse);
    // Live fragments: the f32 output accumulator plus the score/P tile,
    // which lives mostly in f16 fragments (half weight). Attention only
    // spills past the hard register limit, and its shared-memory refusal
    // names no byte counts.
    AccElems = Kernel.TileQ * (W.HeadDim + Kernel.TileKv / 2);
    RegPipelineDepth = Options.CoarsePipeline ? 2 : 1;
    HardRegLimit = false;
    SmemBytesInError = false;
    Flops = W.flops();
  }

  std::unique_ptr<Module> build(IrContext &Ctx) const override {
    return buildAttentionModule(Ctx, Kernel);
  }

  bool setUp(const GpuConfig &Config, bool Functional) override {
    int64_t QTiles = ceilDiv(W.SeqLen, Kernel.TileQ);
    int64_t BH = W.Batch * W.Heads;
    TotalCtas = QTiles * BH;
    Launch.GridX = QTiles;
    Launch.GridY = BH;
    // Trip counts vary under causal masking, so each of SM0's CTAs is
    // interpreted individually, in timing mode even after a functional run.
    for (int64_t Pid = 0; Pid < TotalCtas; Pid += Config.NumSms)
      Sm0.push_back({Pid % QTiles, Pid / QTiles});
    if (TotalCtas > 0) { // An empty grid is refused before replay.
      int64_t Wave = std::min<int64_t>(TotalCtas, Config.NumSms);
      double HeadsCovered =
          std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                           static_cast<double>(BH));
      // Blend: K/V tiles are shared by every CTA of the same head in a
      // wave; Q and O are unique per CTA.
      double KvBytesPerCta = 2.0 * static_cast<double>(W.SeqLen) *
                             W.HeadDim * getPrecisionBytes(W.Prec);
      double QBytesPerCta = static_cast<double>(Kernel.TileQ) * W.HeadDim *
                            getPrecisionBytes(W.Prec);
      double KvReuse = HeadsCovered / static_cast<double>(Wave);
      double Blended = (QBytesPerCta + KvBytesPerCta * KvReuse) /
                       (QBytesPerCta + KvBytesPerCta);
      DramReuseFactor = std::min(1.0, Blended);
    }
    if (Functional) {
      std::vector<int64_t> Shape = {BH, W.SeqLen, W.HeadDim};
      Q = hostInput(Shape, 11, W.Prec);
      K = hostInput(Shape, 12, W.Prec);
      V = hostInput(Shape, 13, W.Prec);
      O = std::make_shared<TensorData>(Shape);
    }
    Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(K),
                   RuntimeArg::tensor(V), RuntimeArg::tensor(O),
                   RuntimeArg::scalar(W.SeqLen)};
    return true;
  }

  double validate() const override {
    return worstSlabError(W.Batch * W.Heads, [&](int64_t Y) {
      TensorData Qs, Ks, Vs, Os;
      return slabError(
          matrixSlab(*O, Y, 0, W.SeqLen, W.HeadDim, Os),
          referenceAttention(matrixSlab(*Q, Y, 0, W.SeqLen, W.HeadDim, Qs),
                             matrixSlab(*K, Y, 0, W.SeqLen, W.HeadDim, Ks),
                             matrixSlab(*V, Y, 0, W.SeqLen, W.HeadDim, Vs),
                             W.Causal),
          /*StoredFp16=*/true);
    });
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Program cache
//===----------------------------------------------------------------------===//

ProgramCache::EntryRef Runner::getOrCompile(const LaunchPlan &P,
                                            std::string &Err) {
  bool Fuse = sim::bc::fusionEnabled(FuseBytecode);
  // Two captured pointers: std::function stores this without allocating.
  auto Compile = [this, &P](std::string &CErr) -> ProgramCache::EntryRef {
    // Declaration order in Entry matters: the module references the
    // context and the compiled program references types owned by the
    // context, so Ctx is destroyed last.
    auto E = std::make_shared<ProgramCache::Entry>();
    E->Ctx = std::make_shared<IrContext>();
    E->M = P.build(*E->Ctx);
    PassManager PM;
    buildTawaPipeline(PM, P.Options);
    if (CErr = PM.run(*E->M); !CErr.empty())
      return nullptr;
    if (!P.Options.EnableWarpSpecialization && P.SwPipelineDepth > 0)
      runSoftwarePipeline(*E->M, P.SwPipelineDepth);
    if (!UseLegacyInterp)
      E->Prog = sim::bc::compileModule(*E->M, Config,
                                       sim::bc::fusionEnabled(FuseBytecode));
    return E;
  };
  ProgramCache::Outcome Outcome;
  ProgramCache::EntryRef E = ProgramCache::shared().getOrCompile(
      P.Key, Config, /*NeedModule=*/UseLegacyInterp,
      /*NeedProgram=*/!UseLegacyInterp, /*Fuse=*/Fuse, Compile, Err,
      &Outcome);
  if (E) {
    // A disk hit skips compilation — that is the point — so it counts as a
    // hit (the warm-start acceptance bar is cache_misses == 0).
    if (Outcome == ProgramCache::Outcome::Compiled)
      ++CacheMisses;
    else
      ++CacheHits;
  } else if (Outcome == ProgramCache::Outcome::Failed) {
    // A failed compile still ran the full pass pipeline, and failures are
    // never cached — every retry pays again. Counting it as a miss keeps
    // the sweep driver's zero-compile accounting honest: a grid point
    // that recompiles (and re-fails) per execution cannot report
    // RunCompiles == 0.
    ++CacheMisses;
  }
  return E;
}

std::string Runner::compileKey(const GemmWorkload &W,
                               const FrameworkEnvelope &E) const {
  return GemmPlan(W, E, sim::bc::fusionEnabled(FuseBytecode)).Key;
}

std::string Runner::compileKey(const AttentionWorkload &W,
                               const FrameworkEnvelope &E) const {
  return AttentionPlan(W, E, sim::bc::fusionEnabled(FuseBytecode)).Key;
}

bool Runner::prewarm(const GemmWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  Err.clear();
  GemmPlan P(W, E, sim::bc::fusionEnabled(FuseBytecode));
  return P.Key.empty() || getOrCompile(P, Err);
}

bool Runner::prewarm(const AttentionWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  Err.clear();
  AttentionPlan P(W, E, sim::bc::fusionEnabled(FuseBytecode));
  return P.Key.empty() || getOrCompile(P, Err);
}

//===----------------------------------------------------------------------===//
// The execute skeleton
//===----------------------------------------------------------------------===//

RunResult Runner::execute(LaunchPlan &P, const FrameworkEnvelope &E,
                          bool Functional) {
  RunResult R;
  if (!E.Supported)
    return failed(R, "", ErrorKind::Unsupported);
  bool Ws = P.Options.EnableWarpSpecialization;
  if (Ws)
    if (std::string Err = P.Options.validate(); !Err.empty())
      return failed(R, std::move(Err), ErrorKind::Infeasible);
  if (P.Unsupported)
    return failed(R, P.Unsupported, ErrorKind::Unsupported);

  std::string Err;
  ProgramCache::EntryRef Cached = getOrCompile(P, Err);
  if (!Cached)
    return failed(R, "compile: " + Err, ErrorKind::CompileError);

  // Resource feasibility: past the consumer register budget the kernel
  // spills, which slows both pipes.
  int64_t Replicas = P.Options.NumConsumerGroups;
  R.RegsPerThread = estimateRegsPerThread(Config, P.AccElems,
                                          P.RegPipelineDepth, Replicas, Ws);
  if (P.HardRegLimit && R.RegsPerThread > Config.MaxRegsPerThread)
    return failed(R, "register budget exceeded (hard limit)",
                  ErrorKind::Infeasible);
  ReplayParams Params;
  Params.TensorPenalty = E.ComputeScale;
  Params.CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > consumerRegBudget(Config, Ws, Replicas)) {
    Params.TensorPenalty *= Config.SpillPenalty;
    Params.CudaPenalty *= Config.SpillPenalty;
  }
  Params.CtaGapCycles = E.ExtraCtaCycles;

  if (!P.setUp(Config, Functional)) { // Every grouped expert is empty.
    if (Functional)
      R.MaxRelError = 0;
    R.Micros = E.ExtraLaunchMicros;
    return R;
  }
  RunOptions &Launch = P.Launch;
  Launch.Functional = Functional;
  Launch.UseLegacyInterp = UseLegacyInterp;
  Launch.NumWorkers = NumWorkers;
  Launch.FuseBytecode = FuseBytecode;
  Launch.MaxSteps = MaxSteps;
  Launch.MaxWallMs = MaxWallMs;
  Launch.Diag = Diag;
  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);

  // Functional pass over every CTA, fanned out across the worker pool (CTAs
  // are independent and the merge is deterministic), then validation
  // against the double-precision reference.
  std::vector<CtaTrace> Samples;
  if (Functional) {
    Err = P.Ctas.empty()
              ? Interp.runGrid(Launch, P.KeepsSamples ? &Samples.emplace_back()
                                                      : nullptr)
              : Interp.runCtaBatch(Launch, P.Ctas, Samples);
    if (!Err.empty())
      return failed(R, Err, classifyError(Err));
    R.MaxRelError = P.validate();
    size_t NumSm0 = 0; // SM0's share of a CTA list: every NumSms-th trace.
    for (size_t I = 0; I < Samples.size(); I += Config.NumSms, ++NumSm0)
      if (I != NumSm0)
        Samples[NumSm0] = std::move(Samples[I]);
    Samples.erase(Samples.begin() + NumSm0, Samples.end());
  }
  if (!Functional || !P.KeepsSamples) {
    // Timing samples, fanned out and merged by index: the cycle report, HB
    // counts and first-error selection are bit-identical at any NumWorkers
    // (docs/threading-and-memory.md).
    Launch.Functional = false;
    if (Err = Interp.runCtaBatch(Launch, P.Sm0, Samples); !Err.empty())
      return failed(R, Err, classifyError(Err));
  }
  if (Samples.empty())
    return failed(R, "no CTAs to simulate", ErrorKind::Internal);

  R.SmemBytes = Samples.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm)
    return failed(R,
                  P.SmemBytesInError
                      ? formatString("shared memory exceeded: %lld > %lld",
                                     static_cast<long long>(R.SmemBytes),
                                     static_cast<long long>(
                                         Config.SmemBytesPerSm))
                      : "shared memory exceeded",
                  ErrorKind::Infeasible);

  // Timing: SM0's schedule under the wave model.
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(P.TotalCtas, Config.NumSms));
  Params.DramReuseFactor = P.DramReuseFactor;
  std::vector<const CtaTrace *> Schedule;
  for (int64_t I = 0; I < P.Sm0Repeat; ++I)
    for (const CtaTrace &T : Samples)
      Schedule.push_back(&T);
  ReplayResult Rep = replaySmSchedule(Schedule, Config, Params);
  if (Rep.Deadlock)
    return failed(R, Rep.Error, ErrorKind::Deadlock);
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = P.Flops / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}

//===----------------------------------------------------------------------===//
// Analytic models (cuBLAS, theoretical peak)
//===----------------------------------------------------------------------===//

RunResult Runner::runGemmAnalytic(const GemmWorkload &W,
                                  const FrameworkEnvelope &E) {
  RunResult R;
  double Flops = W.flops();
  bool Fp8 = W.Prec == Precision::FP8;
  double Peak = (Fp8 ? Config.Fp8TflopsPeak : Config.Fp16TflopsPeak) * 1e12;
  double ElemBytes = static_cast<double>(getPrecisionBytes(W.Prec));
  double Bytes = static_cast<double>(W.Batch) *
                     (static_cast<double>(W.totalM()) * W.K +
                      static_cast<double>(W.N) * W.K) *
                     ElemBytes +
                 static_cast<double>(W.Batch) *
                     static_cast<double>(W.totalM()) * W.N * 2.0;
  double StoreBytes = static_cast<double>(W.Batch) *
                      static_cast<double>(W.totalM()) * W.N * 2.0;
  double LoadBytes = Bytes - StoreBytes;
  double ComputeSec = Flops / (Peak * E.AnalyticComputeEff);
  double MemSec = LoadBytes / (Config.HbmTBps * 1e12 * E.AnalyticMemEff);
  // Output waves drain serially (the store traffic cannot hide behind the
  // next wave's compute in a non-persistent library kernel), and every wave
  // pays a scheduling overhead.
  // Library kernels partially overlap the output waves with compute.
  double StoreSec =
      0.6 * StoreBytes / (Config.HbmTBps * 1e12 * E.AnalyticMemEff);
  double Tiles = ceilDiv(W.totalM(), 128) * ceilDiv(W.N, 256) * W.Batch;
  double Waves = ceilDiv(static_cast<int64_t>(Tiles), Config.NumSms);
  double Sec = std::max(ComputeSec, MemSec) + StoreSec +
               Waves * 0.5e-6 + E.AnalyticOverheadMicros * 1e-6;
  R.Micros = Sec * 1e6;
  R.TFlops = Flops / Sec / 1e12;
  return R;
}

RunResult Runner::runAttentionAnalytic(const AttentionWorkload &W,
                                       const FrameworkEnvelope &E) {
  RunResult R;
  double Flops = W.flops();
  bool Fp8 = W.Prec == Precision::FP8;
  double Peak = (Fp8 ? Config.Fp8TflopsPeak : Config.Fp16TflopsPeak) * 1e12;
  double Sec = Flops / (Peak * E.AnalyticComputeEff) +
               E.AnalyticOverheadMicros * 1e-6;
  R.Micros = Sec * 1e6;
  R.TFlops = Flops / Sec / 1e12;
  return R;
}


//===----------------------------------------------------------------------===//
// Kernel families
//===----------------------------------------------------------------------===//
// An analytic envelope bypasses the skeleton; an unsupported one is refused
// by it.

RunResult Runner::runGemm(Framework F, const GemmWorkload &W,
                          bool Functional) {
  return runGemmCustom(W, getGemmEnvelope(F, W), Functional);
}

RunResult Runner::runGemmCustom(const GemmWorkload &W,
                                const FrameworkEnvelope &E, bool Functional) {
  if (E.Supported && E.Analytic)
    return runGemmAnalytic(W, E);
  bool Fuse = sim::bc::fusionEnabled(FuseBytecode);
  if (W.MoE && !W.GroupMs.empty()) {
    GroupedGemmPlan P(W, E, Fuse);
    return execute(P, E, Functional);
  }
  GemmPlan P(W, E, Fuse);
  return execute(P, E, Functional);
}

RunResult Runner::runAttention(Framework F, const AttentionWorkload &W,
                               bool Functional) {
  return runAttentionCustom(W, getAttentionEnvelope(F, W), Functional);
}

RunResult Runner::runAttentionCustom(const AttentionWorkload &W,
                                     const FrameworkEnvelope &E,
                                     bool Functional) {
  if (E.Supported && E.Analytic)
    return runAttentionAnalytic(W, E);
  AttentionPlan P(W, E, sim::bc::fusionEnabled(FuseBytecode));
  return execute(P, E, Functional);
}

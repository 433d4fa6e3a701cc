//===- reference_test.cpp - Double-precision validation references -----------//
//
// The contract of referenceGemm / referenceAttention (sim/TensorData.h):
//   * bit-identical to the naive scalar loops they replaced (copied verbatim
//     below) for every tested shape, causal and non-causal;
//   * maxRelDiff / maxAbsDiff never let a NaN output validate;
//   * the Runner's end-to-end MaxRelError for one functional point per
//     kernel family is pinned as a hexfloat, so a reference or validation
//     change that moves any reported error fails here.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"
#include "sim/TensorData.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

using namespace tawa;
using namespace tawa::sim;

namespace {

//===----------------------------------------------------------------------===//
// The historical scalar references, verbatim.
//===----------------------------------------------------------------------===//

TensorData legacyReferenceGemm(const TensorData &A, const TensorData &B) {
  int64_t M = A.getDim(0), K = A.getDim(1), N = B.getDim(0);
  assert(B.getDim(1) == K && "GEMM contraction mismatch");
  TensorData C({M, N});
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double Sum = 0;
      for (int64_t P = 0; P < K; ++P)
        Sum += static_cast<double>(A.at(I, P)) *
               static_cast<double>(B.at(J, P));
      C.at(I, J) = static_cast<float>(Sum);
    }
  return C;
}

TensorData legacyReferenceAttention(const TensorData &Q, const TensorData &K,
                                    const TensorData &V, bool Causal) {
  int64_t L = Q.getDim(0), D = Q.getDim(1);
  assert(K.getDim(1) == D && V.getDim(1) == D && "head dim mismatch");
  int64_t LK = K.getDim(0);
  TensorData O({L, D});
  double Scale = 1.0 / std::sqrt(static_cast<double>(D));
  std::vector<double> Scores(LK);
  for (int64_t I = 0; I < L; ++I) {
    double Max = -1e300;
    for (int64_t J = 0; J < LK; ++J) {
      double S = 0;
      for (int64_t P = 0; P < D; ++P)
        S += static_cast<double>(Q.at(I, P)) * static_cast<double>(K.at(J, P));
      S *= Scale;
      if (Causal && J > I)
        S = -1e300;
      Scores[J] = S;
      Max = std::max(Max, S);
    }
    double Sum = 0;
    for (int64_t J = 0; J < LK; ++J) {
      Scores[J] = std::exp(Scores[J] - Max);
      Sum += Scores[J];
    }
    for (int64_t P = 0; P < D; ++P) {
      double Acc = 0;
      for (int64_t J = 0; J < LK; ++J)
        Acc += Scores[J] * static_cast<double>(V.at(J, P));
      O.at(I, P) = static_cast<float>(Acc / Sum);
    }
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

TensorData randomMatrix(int64_t Rows, int64_t Cols, uint64_t Seed) {
  TensorData T({Rows, Cols});
  T.fillRandom(Seed, 1.0f);
  return T;
}

/// Products of fillRandom values (24-bit mantissas) sum almost exactly in
/// double, so on random data alone a reordered sum would not show in the
/// float outputs. This plants +2^40 and -2^40 at two positions of every
/// row: whatever the order adds between and around them is absorbed or
/// kept, so the float result pins the summation order. Paired with a
/// power-of-two row of the other operand the two products cancel exactly.
void plantCancellation(TensorData &T) {
  int64_t Rows = T.getDim(0), Cols = T.getDim(1);
  if (Cols < 2)
    return;
  for (int64_t R = 0; R < Rows; ++R) {
    int64_t P1 = (R * 5 + 1) % Cols;
    int64_t P2 = (P1 + 1 + (R * 3) % (Cols - 1)) % Cols;
    T.at(R, P1) = 0x1p40f;
    T.at(R, P2) = -0x1p40f;
  }
}

/// Makes every \p Every-th row of \p T a constant power of two.
void powerOfTwoRows(TensorData &T, int64_t Every) {
  for (int64_t R = 0; R < T.getDim(0); R += Every)
    for (int64_t C = 0; C < T.getDim(1); ++C)
      T.at(R, C) = std::ldexp(1.0f, static_cast<int>(R % 5) - 2);
}

/// Same shape and the same bits in every element (so +0 vs -0 and NaN
/// payloads count).
::testing::AssertionResult bitIdentical(const TensorData &Got,
                                        const TensorData &Want) {
  if (Got.getShape() != Want.getShape())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (int64_t I = 0, E = Want.getNumElements(); I != E; ++I) {
    float G = Got.at(I), W = Want.at(I);
    if (std::memcmp(&G, &W, sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "element " << I << ": got " << std::hexfloat << G
             << ", want " << W;
  }
  return ::testing::AssertionSuccess();
}

//===----------------------------------------------------------------------===//
// Bit identity against the historical loops
//===----------------------------------------------------------------------===//

TEST(ReferenceGemm, BitIdenticalToScalarLoops) {
  for (int64_t M : {1, 5, 50, 100, 128, 257})
    for (int64_t N : {1, 64, 96, 128})
      for (int64_t K : {1, 33, 96, 128}) {
        TensorData A = randomMatrix(M, K, 1000 + M * 7 + K);
        TensorData B = randomMatrix(N, K, 2000 + N * 11 + K);
        plantCancellation(A);
        powerOfTwoRows(B, 2);
        TensorData Want = legacyReferenceGemm(A, B);
        EXPECT_TRUE(bitIdentical(referenceGemm(A, B), Want))
            << M << "x" << N << "x" << K;
      }
}

TEST(ReferenceGemm, SignedZerosAndEmptyContraction) {
  // A row of -0 makes every product of that row a signed zero; the sum
  // must still start from +0 exactly as the scalar loop does.
  TensorData A = randomMatrix(9, 17, 5);
  TensorData B = randomMatrix(13, 17, 6);
  for (int64_t P = 0; P < 17; ++P) {
    A.at(3, P) = -0.0f;
    B.at(4, P) = 0.0f;
  }
  EXPECT_TRUE(
      bitIdentical(referenceGemm(A, B), legacyReferenceGemm(A, B)));

  TensorData A0({4, 0}), B0({3, 0});
  TensorData C0 = referenceGemm(A0, B0);
  EXPECT_TRUE(bitIdentical(C0, legacyReferenceGemm(A0, B0)));
}

/// Checks referenceAttention against the scalar loops.
void expectAttentionMatches(const TensorData &Q, const TensorData &K,
                            const TensorData &V, bool Causal,
                            const std::string &What) {
  EXPECT_TRUE(bitIdentical(referenceAttention(Q, K, V, Causal),
                           legacyReferenceAttention(Q, K, V, Causal)))
      << What << " causal " << Causal;
}

TEST(ReferenceAttention, BitIdenticalToScalarLoops) {
  for (int64_t L : {1, 5, 64, 128, 200})
    for (int64_t D : {16, 64, 128})
      for (bool Causal : {false, true}) {
        std::string Shape =
            "L " + std::to_string(L) + " D " + std::to_string(D);
        TensorData Q = randomMatrix(L, D, 11 + L + D);
        TensorData K = randomMatrix(L, D, 12 + L + D);
        TensorData V = randomMatrix(L, D, 13 + L + D);
        expectAttentionMatches(Q, K, V, Causal, Shape);

        // Q.K^T order: cancelling query rows against power-of-two keys.
        TensorData Qc = Q, Kc = K;
        plantCancellation(Qc);
        powerOfTwoRows(Kc, 1);
        expectAttentionMatches(Qc, Kc, V, Causal, Shape + " (Q.K order)");

        // P.V order: zero queries give equal probabilities, and every
        // column of V holds a cancelling pair.
        TensorData Vt = randomMatrix(D, L, 14 + L + D);
        plantCancellation(Vt);
        TensorData Vc({L, D});
        for (int64_t J = 0; J < L; ++J)
          for (int64_t P = 0; P < D; ++P)
            Vc.at(J, P) = Vt.at(P, J);
        expectAttentionMatches(TensorData({L, D}), K, Vc, Causal,
                               Shape + " (P.V order)");
      }
}

TEST(ReferenceAttention, KeyLengthDiffersFromQueryLength) {
  // LK < L leaves causal rows past LK unmasked; LK > L masks a wider
  // triangle.
  for (auto [L, LK] : {std::pair<int64_t, int64_t>{64, 100}, {100, 64},
                       {5, 200}, {130, 1}})
    for (int64_t D : {16, 64})
      for (bool Causal : {false, true}) {
        TensorData Q = randomMatrix(L, D, 21 + L);
        TensorData K = randomMatrix(LK, D, 22 + LK);
        TensorData V = randomMatrix(LK, D, 23 + LK);
        expectAttentionMatches(Q, K, V, Causal,
                               "L " + std::to_string(L) + " LK " +
                                   std::to_string(LK) + " D " +
                                   std::to_string(D));
      }
}

TEST(ReferenceAttention, SignedZerosInValues) {
  // Zero queries give uniform probabilities; -0 and +0 values make the
  // P.V terms signed zeros, which the masked-term argument relies on
  // never flipping an accumulator's sign.
  const int64_t L = 33, D = 16;
  TensorData Q({L, D});
  TensorData K = randomMatrix(L, D, 31);
  TensorData V = randomMatrix(L, D, 32);
  for (int64_t J = 0; J < L; ++J) {
    V.at(J, 0) = -0.0f;
    V.at(J, 1) = 0.0f;
    V.at(J, 2) = J % 2 ? -0.0f : 0.0f;
  }
  for (bool Causal : {false, true})
    expectAttentionMatches(Q, K, V, Causal, "signed zeros");
}

//===----------------------------------------------------------------------===//
// NaN outputs never validate
//===----------------------------------------------------------------------===//

TEST(ReferenceDiff, NanOutputIsInfiniteError) {
  TensorData Ref({2, 2});
  Ref.fill(1.0f);
  TensorData Out = Ref;
  Out.at(1, 0) = std::numeric_limits<float>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Out.maxRelDiff(Ref), Inf);
  EXPECT_EQ(Out.maxAbsDiff(Ref), Inf);
  // A NaN in the reference is no better.
  EXPECT_EQ(Ref.maxRelDiff(Out), Inf);
  EXPECT_EQ(Ref.maxAbsDiff(Out), Inf);
  // Finite outputs are unaffected.
  EXPECT_EQ(Ref.maxRelDiff(Ref), 0.0);
  TensorData Off = Ref;
  Off.at(0, 1) = 3.0f;
  EXPECT_EQ(Off.maxRelDiff(Ref), 2.0);
  EXPECT_EQ(Off.maxAbsDiff(Ref), 2.0);
}

//===----------------------------------------------------------------------===//
// End-to-end MaxRelError pins (one functional point per family)
//===----------------------------------------------------------------------===//

FrameworkEnvelope smallTiles(bool Ws) {
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = Ws;
  E.Options.ArefDepth = 2;
  E.Options.MmaPipelineDepth = 1;
  E.TileM = E.TileN = E.TileK = 64;
  E.TileQ = E.TileKv = 64;
  return E;
}

std::string hex(double V) {
  std::ostringstream OS;
  OS << std::hexfloat << V;
  return OS.str();
}

/// Runs \p Run at NumWorkers 1 and 4 and checks both report \p Want.
template <typename RunFn>
void expectPinned(RunFn Run, double Want, const char *Name) {
  for (int64_t Workers : {1, 4}) {
    Runner R;
    R.NumWorkers = Workers;
    RunResult Res = Run(R);
    ASSERT_TRUE(Res.ok()) << Name << ": " << Res.Error;
    EXPECT_EQ(Res.MaxRelError, Want)
        << Name << " workers " << Workers << ": got " << hex(Res.MaxRelError)
        << ", want " << hex(Want);
  }
}

TEST(ReferencePin, GemmFp16) {
  GemmWorkload W;
  W.M = W.N = W.K = 128;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallTiles(true), true); },
      0x1.15fd4906c96f1p-11, "gemm-fp16");
}

TEST(ReferencePin, GemmFp8) {
  GemmWorkload W;
  W.M = W.N = W.K = 128;
  W.Prec = Precision::FP8;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallTiles(true), true); },
      0x0p+0, "gemm-fp8");
}

TEST(ReferencePin, BatchedGemm) {
  GemmWorkload W;
  W.M = W.N = W.K = 128;
  W.Batch = 2;
  expectPinned(
      [&](Runner &R) { return R.runGemmCustom(W, smallTiles(true), true); },
      0x1.ee25284b47a92p-11, "gemm-batched");
}

TEST(ReferencePin, SplitK) {
  GemmWorkload W;
  W.M = W.N = W.K = 128;
  W.SplitK = 3;
  expectPinned([&](Runner &R) { return R.runGemm(Framework::Tawa, W, true); },
               0x1.b4p-19, "splitk");
}

TEST(ReferencePin, Grouped) {
  GemmWorkload W;
  W.N = 64;
  W.K = 96;
  W.MoE = true;
  W.GroupMs = {0, 0, 50, 0};
  expectPinned([&](Runner &R) { return R.runGemm(Framework::Tawa, W, true); },
               0x1p-15, "grouped");
}

TEST(ReferencePin, CausalAttention) {
  AttentionWorkload W;
  W.SeqLen = 128;
  W.Batch = 1;
  W.Heads = 2;
  W.HeadDim = 64;
  W.Causal = true;
  FrameworkEnvelope E = smallTiles(true);
  E.Options.MmaPipelineDepth = 0;
  E.Options.CoarsePipeline = true;
  expectPinned(
      [&](Runner &R) { return R.runAttentionCustom(W, E, true); }, 0x1p-11,
      "attention-causal");
}

TEST(ReferencePin, NonCausalAttentionFp8) {
  AttentionWorkload W;
  W.SeqLen = 128;
  W.Batch = 1;
  W.Heads = 2;
  W.HeadDim = 64;
  W.Prec = Precision::FP8;
  FrameworkEnvelope E = smallTiles(true);
  E.Options.MmaPipelineDepth = 0;
  E.Options.CoarsePipeline = true;
  expectPinned(
      [&](Runner &R) { return R.runAttentionCustom(W, E, true); }, 0x1.658p-8,
      "attention-fp8");
}

} // namespace

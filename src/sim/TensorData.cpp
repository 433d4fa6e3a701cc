//===- TensorData.cpp - Host-side tensor storage -------------------------------//

#include "sim/TensorData.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

void TensorData::fillRandom(uint64_t Seed, float Scale) {
  // SplitMix64: deterministic, seed-friendly, good enough for test data.
  uint64_t State = Seed;
  for (int64_t I = 0; I < Size; ++I) {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z = Z ^ (Z >> 31);
    Ptr[I] = Scale * (2.0f * static_cast<float>(Z >> 11) /
                          9007199254740992.0f -
                      1.0f);
  }
}

void TensorData::fill(float V) { std::fill(Ptr, Ptr + Size, V); }

TensorData
TensorData::extractWindow(const std::vector<int64_t> &Offsets,
                          const std::vector<int64_t> &WindowShape) const {
  TensorData Out(WindowShape);
  extractWindowInto(Offsets, WindowShape, Out.data());
  return Out;
}

void TensorData::extractWindowInto(const std::vector<int64_t> &Offsets,
                                   const std::vector<int64_t> &WindowShape,
                                   float *Out) const {
  assert(Offsets.size() == Shape.size() && "window rank mismatch");
  size_t Rank = Shape.size();

  // Fast path: the window is fully in range, so every row of the innermost
  // dimension is one contiguous memcpy from the host tensor.
  bool InRange = Rank > 0;
  for (size_t D = 0; D < Rank; ++D)
    if (Offsets[D] < 0 || Offsets[D] + WindowShape[D] > Shape[D]) {
      InRange = false;
      break;
    }
  if (InRange) {
    int64_t RowLen = WindowShape[Rank - 1];
    int64_t NumRows = 1;
    for (size_t D = 0; D + 1 < Rank; ++D)
      NumRows *= WindowShape[D];
    std::vector<int64_t> Idx(Rank, 0);
    for (int64_t Row = 0; Row < NumRows; ++Row) {
      int64_t Src = 0;
      for (size_t D = 0; D + 1 < Rank; ++D)
        Src = Src * Shape[D] + Offsets[D] + Idx[D];
      Src = Src * Shape[Rank - 1] + Offsets[Rank - 1];
      std::memcpy(Out + Row * RowLen, Ptr + Src,
                  static_cast<size_t>(RowLen) * sizeof(float));
      for (int64_t D = static_cast<int64_t>(Rank) - 2; D >= 0; --D) {
        if (++Idx[D] < WindowShape[D])
          break;
        Idx[D] = 0;
      }
    }
    return;
  }

  // Generic path: per-element with TMA's clamp-to-zero out-of-bounds fill.
  int64_t N = 1;
  for (int64_t D : WindowShape)
    N *= D;
  std::vector<int64_t> Idx(WindowShape.size(), 0);
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    bool Ok = true;
    int64_t SrcLinear = 0;
    for (size_t D = 0; D < Rank; ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      if (Coord < 0 || Coord >= Shape[D]) {
        Ok = false;
        break;
      }
      SrcLinear = SrcLinear * Shape[D] + Coord;
    }
    Out[Linear] = Ok ? Ptr[SrcLinear] : 0.0f;
    // Advance the multi-index.
    for (int64_t D = static_cast<int64_t>(WindowShape.size()) - 1; D >= 0;
         --D) {
      if (++Idx[D] < WindowShape[D])
        break;
      Idx[D] = 0;
    }
  }
}

void TensorData::insertWindow(const std::vector<int64_t> &Offsets,
                              const TensorData &Window) {
  assert(Offsets.size() == Shape.size() && "window rank mismatch");
  int64_t N = Window.getNumElements();
  std::vector<int64_t> Idx(Window.getShape().size(), 0);
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    bool InRange = true;
    int64_t DstLinear = 0;
    for (size_t D = 0; D < Shape.size(); ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      if (Coord < 0 || Coord >= Shape[D]) {
        InRange = false;
        break;
      }
      DstLinear = DstLinear * Shape[D] + Coord;
    }
    if (InRange)
      Ptr[DstLinear] = Window.at(Linear);
    for (int64_t D = static_cast<int64_t>(Window.getShape().size()) - 1;
         D >= 0; --D) {
      if (++Idx[D] < Window.getShape()[D])
        break;
      Idx[D] = 0;
    }
  }
}

double TensorData::maxAbsDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  double Max = 0;
  for (int64_t I = 0, E = getNumElements(); I != E; ++I) {
    double Diff = std::fabs(static_cast<double>(Ptr[I]) -
                            static_cast<double>(Other.at(I)));
    // std::max drops NaN, which would let a NaN-poisoned output validate.
    if (std::isnan(Diff))
      return std::numeric_limits<double>::infinity();
    Max = std::max(Max, Diff);
  }
  return Max;
}

double TensorData::maxRelDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  double Max = 0;
  for (int64_t I = 0, E = getNumElements(); I != E; ++I) {
    double Ref = std::fabs(static_cast<double>(Other.at(I)));
    double Diff = std::fabs(static_cast<double>(Ptr[I]) -
                            static_cast<double>(Other.at(I)));
    if (std::isnan(Diff))
      return std::numeric_limits<double>::infinity();
    Max = std::max(Max, Diff / std::max(1.0, Ref));
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// Double-precision references
//===----------------------------------------------------------------------===//
//
// Order contract: every output element starts from +0.0, adds its exact
// double products (f32 x f32 fits a double's mantissa) in ascending
// contraction index, and is cast to float once — the addition sequence of
// the naive triple loop, so results are bit-identical to it. Speed comes
// only from independent chains: a register block of accumulators that
// never mix, computed in vector lanes without reassociation (the
// matmulAcc argument in ExecCommon.h).

namespace {

/// Output rows converted to double per pass; keeps the scratch cache-sized.
constexpr int64_t BlockRows = 16;
/// Attention query rows per softmax block: one kernel row block.
constexpr int64_t QueryRows = 4;

/// Two double lanes (SSE2, the x86-64 baseline). Lane-wise mul/add
/// (including with a scalar, which broadcasts) are exactly the scalar IEEE
/// operations, so lanes are just independent accumulation chains. The
/// build enables no FMA: a fused multiply-add would round once where the
/// scalar loop rounds twice.
typedef double Lanes __attribute__((vector_size(16)));
constexpr int64_t LaneWidth = sizeof(Lanes) / sizeof(double);

/// C[r][c] = sum over p of A[r][p] * B[p][c], for r < Rows, c < Cols,
/// p < K; A is row-major with stride Lda, B is (K x Cols+) row-major with
/// stride Ldb, C has stride Ldc. Each element accumulates from +0.0 in
/// ascending p. The register block is 4 rows x 2 vectors: eight
/// accumulator registers, two B loads and four A broadcasts per p.
void gemmRows(const double *A, int64_t Lda, const double *B, int64_t Ldb,
              double *C, int64_t Ldc, int64_t Rows, int64_t Cols,
              int64_t K) {
  constexpr int64_t KernelRows = 4, KernelCols = 2 * LaneWidth;
  int64_t R0 = 0;
  for (; R0 + KernelRows <= Rows; R0 += KernelRows) {
    const double *A0 = A + R0 * Lda, *A1 = A0 + Lda, *A2 = A1 + Lda,
                 *A3 = A2 + Lda;
    int64_t C0 = 0;
    for (; C0 + KernelCols <= Cols; C0 += KernelCols) {
      Lanes Acc[KernelRows][2] = {};
      for (int64_t P = 0; P < K; ++P) {
        Lanes B0, B1;
        std::memcpy(&B0, B + P * Ldb + C0, sizeof(Lanes));
        std::memcpy(&B1, B + P * Ldb + C0 + LaneWidth, sizeof(Lanes));
        Acc[0][0] += A0[P] * B0;
        Acc[0][1] += A0[P] * B1;
        Acc[1][0] += A1[P] * B0;
        Acc[1][1] += A1[P] * B1;
        Acc[2][0] += A2[P] * B0;
        Acc[2][1] += A2[P] * B1;
        Acc[3][0] += A3[P] * B0;
        Acc[3][1] += A3[P] * B1;
      }
      for (int64_t R = 0; R < KernelRows; ++R)
        std::memcpy(C + (R0 + R) * Ldc + C0, Acc[R], sizeof(Acc[R]));
    }
    // Column tail of this row block.
    for (int64_t R = R0; R < R0 + KernelRows; ++R)
      for (int64_t Cc = C0; Cc < Cols; ++Cc) {
        double Sum = 0;
        for (int64_t P = 0; P < K; ++P)
          Sum += A[R * Lda + P] * B[P * Ldb + Cc];
        C[R * Ldc + Cc] = Sum;
      }
  }
  // Row tail: one row at a time, still lane-parallel across columns.
  for (; R0 < Rows; ++R0) {
    double *Crow = C + R0 * Ldc;
    std::fill(Crow, Crow + Cols, 0.0);
    for (int64_t P = 0; P < K; ++P) {
      double Av = A[R0 * Lda + P];
      const double *Bp = B + P * Ldb;
      for (int64_t Cc = 0; Cc < Cols; ++Cc)
        Crow[Cc] += Av * Bp[Cc];
    }
  }
}

/// Returns \p Src (Rows x Cols, row-major f32) transposed into a
/// (Cols x Rows) double buffer.
std::vector<double> transposeToDouble(const float *Src, int64_t Rows,
                                      int64_t Cols) {
  std::vector<double> T(static_cast<size_t>(Rows * Cols));
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t Cc = 0; Cc < Cols; ++Cc)
      T[Cc * Rows + R] = static_cast<double>(Src[R * Cols + Cc]);
  return T;
}

} // namespace

TensorData tawa::sim::referenceGemm(const TensorData &A, const TensorData &B) {
  int64_t M = A.getDim(0), K = A.getDim(1), N = B.getDim(0);
  assert(B.getDim(1) == K && "GEMM contraction mismatch");
  TensorData C({M, N});
  std::vector<double> Bt = transposeToDouble(B.data(), N, K); // (K x N)
  std::vector<double> Ad(static_cast<size_t>(BlockRows * K));
  std::vector<double> Acc(static_cast<size_t>(BlockRows * N));
  const float *Ap = A.data();
  float *Cp = C.data();
  for (int64_t First = 0; First < M; First += BlockRows) {
    int64_t Rows = std::min(BlockRows, M - First);
    std::copy(Ap + First * K, Ap + (First + Rows) * K, Ad.begin());
    gemmRows(Ad.data(), K, Bt.data(), N, Acc.data(), N, Rows, N, K);
    for (int64_t I = 0, E = Rows * N; I < E; ++I)
      Cp[First * N + I] = static_cast<float>(Acc[I]);
  }
  return C;
}

TensorData tawa::sim::referenceAttention(const TensorData &Q,
                                         const TensorData &K,
                                         const TensorData &V, bool Causal) {
  int64_t L = Q.getDim(0), D = Q.getDim(1);
  assert(K.getDim(1) == D && V.getDim(1) == D && "head dim mismatch");
  int64_t LK = K.getDim(0);
  TensorData O({L, D});
  double Scale = 1.0 / std::sqrt(static_cast<double>(D));
  std::vector<double> Kt = transposeToDouble(K.data(), LK, D); // (D x LK)
  std::vector<double> Vd(V.data(), V.data() + LK * D);        // (LK x D)
  std::vector<double> Qd(static_cast<size_t>(QueryRows * D));
  std::vector<double> Probs(static_cast<size_t>(QueryRows * LK));
  std::vector<double> Acc(static_cast<size_t>(QueryRows * D));
  const float *Qp = Q.data();
  float *Op = O.data();
  for (int64_t I0 = 0; I0 < L; I0 += QueryRows) {
    int64_t N = std::min(QueryRows, L - I0);
    std::copy(Qp + I0 * D, Qp + (I0 + N) * D, Qd.begin());
    // Causal rows stop at the diagonal: a masked score would add
    // exp(-1e300 - Max) == +0 (finite inputs), and adding a signed zero
    // to a sum that starts at +0 never changes its bits, so skipping it
    // is exact. Rows of this block share the widest row's span; a
    // narrower row's extra columns are zeroed below, exact likewise.
    int64_t Span = Causal ? std::min(I0 + N, LK) : LK;
    gemmRows(Qd.data(), D, Kt.data(), LK, Probs.data(), LK, N, Span, D);
    double Sums[QueryRows] = {};
    for (int64_t R = 0; R < N; ++R) {
      int64_t I = I0 + R;
      int64_t End = Causal ? std::min(I + 1, LK) : LK;
      double *S = Probs.data() + R * LK;
      double Max = -1e300;
      for (int64_t J = 0; J < End; ++J) {
        S[J] *= Scale;
        Max = std::max(Max, S[J]);
      }
      double Sum = 0;
      for (int64_t J = 0; J < End; ++J) {
        S[J] = std::exp(S[J] - Max);
        Sum += S[J];
      }
      std::fill(S + End, S + Span, 0.0);
      Sums[R] = Sum;
    }
    // P.V: J-outer over contiguous V rows (V is already (LK x D)).
    gemmRows(Probs.data(), LK, Vd.data(), D, Acc.data(), D, N, D, Span);
    for (int64_t R = 0; R < N; ++R)
      for (int64_t P = 0; P < D; ++P)
        Op[(I0 + R) * D + P] = static_cast<float>(Acc[R * D + P] / Sums[R]);
  }
  return O;
}

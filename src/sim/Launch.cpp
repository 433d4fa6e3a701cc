//===- Launch.cpp - Launch specs carried as module attributes -------------===//

#include "sim/Launch.h"

#include "ir/Ir.h"
#include "support/Support.h"

#include <algorithm>
#include <cstdlib>
#include <variant>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Appends \p V joined by \p Sep.
void appendInts(std::string &Out, const std::vector<int64_t> &V, char Sep) {
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += Sep;
    Out += std::to_string(V[I]);
  }
}

/// Parses the \p Sep-separated integers of S[Begin, End). A trailing
/// separator adds nothing; an empty field reads as 0.
std::vector<int64_t> splitInts(const std::string &S, size_t Begin, size_t End,
                               char Sep) {
  std::vector<int64_t> Out;
  size_t P = Begin;
  while (P < End) {
    size_t X = S.find(Sep, P);
    if (X == std::string::npos || X > End)
      X = End;
    Out.push_back(std::strtoll(S.substr(P, X - P).c_str(), nullptr, 10));
    P = X + 1;
  }
  return Out;
}

/// Returns "" with \p Elems the element count of a non-empty \p Shape, or
/// why the shape cannot be bound. Each dimension is capped before it is
/// multiplied in, so the running product never overflows.
std::string checkShape(const std::vector<int64_t> &Shape, int64_t &Elems) {
  if (Shape.size() > static_cast<size_t>(ShapeVec::MaxRank))
    return formatString("tensor rank exceeds %lld",
                        static_cast<long long>(ShapeVec::MaxRank));
  Elems = 1;
  for (int64_t D : Shape) {
    if (D < 0)
      return "negative tensor dimension";
    if (D > LaunchSpec::MaxTensorElems ||
        (Elems *= D) > LaunchSpec::MaxTensorElems)
      return formatString("tensor exceeds %lld elements",
                          static_cast<long long>(LaunchSpec::MaxTensorElems));
  }
  return "";
}

} // namespace

void tawa::sim::encodeLaunchSpec(Module &M, const LaunchSpec &L) {
  M.setAttr("fuzz.grid", std::vector<int64_t>{L.GridX, L.GridY});
  std::string Args;
  for (const LaunchSpec::Arg &A : L.Args) {
    if (!Args.empty())
      Args += ";";
    if (A.IsScalar) {
      Args += "s" + std::to_string(A.Scalar);
    } else if (!A.Data.empty()) {
      // Explicit payload (group-offset tables): dSHAPE:v0,v1,...
      Args += "d";
      appendInts(Args, A.Shape, 'x');
      Args += ":";
      appendInts(Args, A.Data, ',');
    } else {
      Args += "t" + std::to_string(A.FillSeed) + ":";
      appendInts(Args, A.Shape, 'x');
    }
  }
  M.setAttr("fuzz.args", Args);
  if (!L.FaultSpec.empty())
    M.setAttr("fuzz.faults", L.FaultSpec);
  else
    M.removeAttr("fuzz.faults");
}

std::string tawa::sim::decodeLaunchSpec(const Module &M, LaunchSpec &L) {
  const auto &Attrs = M.getAttrs();
  auto GridIt = Attrs.find("fuzz.grid");
  if (GridIt == Attrs.end())
    return "missing fuzz.grid module attribute";
  const auto *Grid = std::get_if<std::vector<int64_t>>(&GridIt->second);
  if (!Grid || Grid->size() != 2)
    return "fuzz.grid must be [gridX, gridY]";
  L.GridX = (*Grid)[0];
  L.GridY = (*Grid)[1];
  if (L.GridX < 0 || L.GridY < 0)
    return "fuzz.grid dimensions must be non-negative";
  if (L.GridX > LaunchSpec::MaxCtas || L.GridY > LaunchSpec::MaxCtas ||
      L.GridX * L.GridY > LaunchSpec::MaxCtas)
    return formatString("fuzz.grid exceeds %lld CTAs",
                        static_cast<long long>(LaunchSpec::MaxCtas));

  auto ArgsIt = Attrs.find("fuzz.args");
  if (ArgsIt == Attrs.end())
    return "missing fuzz.args module attribute";
  const auto *Spec = std::get_if<std::string>(&ArgsIt->second);
  if (!Spec)
    return "fuzz.args must be a string";
  L.Args.clear();
  size_t Pos = 0;
  while (Pos < Spec->size()) {
    size_t End = Spec->find(';', Pos);
    if (End == std::string::npos)
      End = Spec->size();
    std::string Tok = Spec->substr(Pos, End - Pos);
    Pos = End + 1;
    if (Tok.empty())
      return "empty fuzz.args entry";
    if (Tok[0] == 's') {
      L.Args.push_back(
          LaunchSpec::Arg::scalar(std::strtoll(Tok.c_str() + 1, nullptr, 10)));
      continue;
    }
    if (Tok[0] != 't' && Tok[0] != 'd')
      return "unknown fuzz.args entry kind: " + Tok;
    bool IsData = Tok[0] == 'd';
    size_t Colon = Tok.find(':');
    if (Colon == std::string::npos)
      return std::string("malformed ") + (IsData ? "data" : "tensor") +
             " entry in fuzz.args: " + Tok;
    LaunchSpec::Arg A;
    if (IsData) {
      A.Shape = splitInts(Tok, 1, Colon, 'x');
      A.Data = splitInts(Tok, Colon + 1, Tok.size(), ',');
      if (A.Shape.empty() || A.Data.empty())
        return "data entry with no shape or values in fuzz.args: " + Tok;
    } else {
      A.FillSeed = std::strtoull(Tok.substr(1, Colon - 1).c_str(), nullptr, 10);
      A.Shape = splitInts(Tok, Colon + 1, Tok.size(), 'x');
      if (A.Shape.empty())
        return "tensor entry with no shape in fuzz.args: " + Tok;
    }
    int64_t Elems = 0;
    if (std::string SErr = checkShape(A.Shape, Elems); !SErr.empty())
      return SErr + " in fuzz.args: " + Tok;
    if (IsData && Elems != static_cast<int64_t>(A.Data.size()))
      return "data entry shape/value count mismatch in fuzz.args: " + Tok;
    L.Args.push_back(std::move(A));
  }

  auto FaultsIt = Attrs.find("fuzz.faults");
  if (FaultsIt != Attrs.end()) {
    const auto *F = std::get_if<std::string>(&FaultsIt->second);
    if (!F)
      return "fuzz.faults must be a string";
    L.FaultSpec = *F;
  } else {
    L.FaultSpec = "";
  }
  return "";
}

TensorRef tawa::sim::materializeArg(const LaunchSpec::Arg &A) {
  auto T = std::make_shared<TensorData>(A.Shape);
  if (!A.Data.empty()) {
    int64_t E = std::min<int64_t>(T->getNumElements(),
                                  static_cast<int64_t>(A.Data.size()));
    for (int64_t I = 0; I < E; ++I)
      T->at(I) = static_cast<float>(A.Data[I]);
  } else if (A.FillSeed != 0) {
    T->fillRandom(A.FillSeed, 1.0f);
  }
  return T;
}

std::vector<TensorRef> tawa::sim::bindLaunchArgs(const LaunchSpec &L,
                                                 RunOptions &Opts) {
  Opts.GridX = L.GridX;
  Opts.GridY = L.GridY;
  Opts.Args.clear();
  std::vector<TensorRef> Outputs;
  for (const LaunchSpec::Arg &A : L.Args) {
    if (A.IsScalar) {
      Opts.Args.push_back(RuntimeArg::scalar(A.Scalar));
      continue;
    }
    TensorRef T = materializeArg(A);
    if (A.FillSeed == 0 && A.Data.empty())
      Outputs.push_back(T);
    Opts.Args.push_back(RuntimeArg::tensor(std::move(T)));
  }
  return Outputs;
}

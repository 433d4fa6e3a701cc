//===- Serve.cpp - serve-mixed: open loop against a tawa-serve daemon ------===//
//
// One single-threaded generator drives tawa-serve daemons over up to four
// pipelined unix-socket connections at fixed offered rates: the reference
// rate for the latency metrics, and in the traced run a walk up a fixed
// ladder of rates for the daemon's capacity (serve.service.slo_rps).
// Latency runs from each request's scheduled send time, so a stall also
// charges the requests queued behind it. The generator spins on a core of
// its own and the daemons run on the others, so it keeps its schedule.
//
// The mix: reads are small cached timing gemm/attention requests across
// frameworks and precisions; writes are `ir` requests built from the pinned
// tests/corpus/*.tawa files that are expected to succeed, each parsed,
// flattened, fused and run on every request. Every write's output hashes
// and cycles are checked against a direct Interpreter run made at set-up;
// every read's simulated time against its warm-up answer.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"

#include "ir/Parser.h"
#include "serve/Execute.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/Support.h"
#include "tests/fuzz/Gen.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tawa;
using namespace tawa::serve;

namespace pb {

namespace {

/// Offered rate of the latency phase, well below the daemon's capacity.
constexpr double ReferenceRps = 1000;
/// Tail-latency limit of serve.service.slo_rps.
constexpr double P99LimitMs = 10;
/// Measured windows at the reference rate (one daemon each, about 1.35 s
/// with spawn and warm-up) per second of run budget, the warm-up before
/// each, and the window length (1000 requests, so each window's tail is a
/// p99).
constexpr double WindowsPerSecond = 0.7;
constexpr double WarmS = 0.3, RefWindowS = 1.0;
/// The traced run's capacity search: daemons that walk the ladder
/// (2.5 x ReferenceRps x LadderStep^k), and the length of one probe.
constexpr int SloDaemons = 3;
constexpr double LadderStep = 1.25, ProbeS = 0.3;
/// Requests the traced run decomposes.
constexpr int TracedRequests = 3000;
/// Share of requests that are ir writes. A write's executeRequest costs
/// about 40 reads', so this share sets how much of the host time the serve
/// layers get; the traced run reports the split (README.md). With the deck
/// below a 1000-request window holds 3 each of the first two write kinds
/// and 2 of every other, the same in every window.
constexpr double WriteShare = 0.02;
/// Connections the generator pipelines over.
constexpr int MaxConnections = 4;
/// The daemon's configuration (the same for the in-process Service of the
/// traced run). Each request runs on its executor thread alone: fanning a
/// one- or two-CTA request out over the worker pool buys nothing but
/// wake-ups. The queue is deep enough that a host stall of a few tens of
/// milliseconds queues requests instead of rejecting them as overload.
constexpr int64_t ExecWorkers = 1;
constexpr int64_t QueueDepth = 256;
/// Corpus files that are fault drills rather than traffic.
const char *const Drills[] = {"protocol_ring_deadlock.tawa",
                              "gemm_ws_worker_faults.tawa"};

//===----------------------------------------------------------------------===//
// Inputs and their expected answers
//===----------------------------------------------------------------------===//

struct Kind {
  std::string Name;
  bool Write = false;
  std::string Head; ///< Request text before the id.
  std::string Tail; ///< Request text after the id.
  std::string Ir;   ///< Write: the module text.
  // Expected answer.
  double Micros = -1;
  double TFlops = 0;
  std::vector<std::string> Outputs;
  double Cycles = -1;

  std::string line(const std::string &Id) const { return Head + Id + Tail; }
};

std::vector<Kind> readKinds() {
  const char *Base = "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"";
  struct R {
    const char *Name, *Body;
  };
  const R Reads[] = {
      {"gemm/tawa/fp16", "\"kind\":\"gemm\",\"framework\":\"tawa\","
                         "\"m\":128,\"n\":256,\"k\":128"},
      {"gemm/tawa/fp8", "\"kind\":\"gemm\",\"framework\":\"tawa\","
                        "\"precision\":\"fp8\",\"m\":128,\"n\":256,\"k\":128"},
      {"gemm/triton/fp16", "\"kind\":\"gemm\",\"framework\":\"triton\","
                           "\"m\":128,\"n\":256,\"k\":128"},
      {"gemm/tilelang/fp16", "\"kind\":\"gemm\",\"framework\":\"tilelang\","
                             "\"m\":128,\"n\":256,\"k\":128"},
      {"gemm/thunderkittens/fp8",
       "\"kind\":\"gemm\",\"framework\":\"thunderkittens\","
       "\"precision\":\"fp8\",\"m\":128,\"n\":256,\"k\":128"},
      {"gemm/cublas/fp16", "\"kind\":\"gemm\",\"framework\":\"cublas\","
                           "\"m\":512,\"n\":512,\"k\":256"},
      {"attention/tawa/fp16", "\"kind\":\"attention\",\"framework\":\"tawa\","
                              "\"seq_len\":128,\"heads\":1,\"head_dim\":128,"
                              "\"batch\":1"},
      {"attention/tawa/fp8/causal",
       "\"kind\":\"attention\",\"framework\":\"tawa\",\"precision\":\"fp8\","
       "\"causal\":true,\"seq_len\":128,\"heads\":1,\"head_dim\":128,"
       "\"batch\":1"},
      {"attention/fa3/fp16", "\"kind\":\"attention\",\"framework\":\"fa3\","
                             "\"seq_len\":128,\"heads\":1,\"head_dim\":128,"
                             "\"batch\":1"},
      {"attention/triton/fp16/causal",
       "\"kind\":\"attention\",\"framework\":\"triton\",\"causal\":true,"
       "\"seq_len\":128,\"heads\":1,\"head_dim\":64,\"batch\":1"},
  };
  std::vector<Kind> Out;
  for (const R &X : Reads) {
    Kind K;
    K.Name = X.Name;
    K.Head = Base;
    K.Tail = std::string("\",") + X.Body + "}";
    Out.push_back(K);
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Output hashes and cycles of a direct Interpreter run of a corpus module,
/// with the layer calls under spans when \p L is set.
struct IrAnswer {
  std::string Error;
  std::vector<std::string> Outputs;
  double Cycles = -1;
};

IrAnswer directIr(const std::string &Text, SpanLog *L, int Parent,
                  Counters &C) {
  IrAnswer A;
  SpanLog Scratch;
  SpanLog &Log = L ? *L : Scratch;
  sim::GpuConfig Cfg;
  IrContext Ctx;
  std::string Err;
  std::unique_ptr<Module> Mod;
  {
    Scoped S(Log, "ir.parse", Parent);
    Mod = parseModule(Ctx, Text, Err);
  }
  C["ir_bytes_parsed"] += static_cast<int64_t>(Text.size());
  fuzz::LaunchSpec Launch;
  if (!Mod || !(Err = fuzz::decodeLaunchSpec(*Mod, Launch)).empty()) {
    A.Error = "ir: " + Err;
    return A;
  }
  std::shared_ptr<const sim::bc::CompiledProgram> Flat;
  {
    Scoped S(Log, "sim.bytecode.flatten", Parent);
    Flat = sim::bc::compileModule(*Mod, Cfg, /*Fuse=*/false);
  }
  auto Prog = std::make_shared<sim::bc::CompiledProgram>(*Flat);
  {
    Scoped S(Log, "sim.peephole.fuse", Parent);
    sim::bc::fuseProgram(*Prog);
  }
  C["bytecode_insts"] += Prog->Fusion.InstsBefore;
  C["fused_insts_covered"] += static_cast<int64_t>(
      std::llround(Prog->Fusion.coverage() * Prog->Fusion.InstsBefore));
  sim::RunOptions Opts;
  Opts.GridX = Launch.GridX;
  Opts.GridY = Launch.GridY;
  Opts.Functional = true;
  Opts.MaxSteps = ServeConfig().DefaultMaxSteps;
  std::vector<sim::TensorRef> Outputs;
  for (const fuzz::LaunchSpec::Arg &Arg : Launch.Args) {
    if (Arg.IsScalar) {
      Opts.Args.push_back(sim::RuntimeArg::scalar(Arg.Scalar));
      continue;
    }
    sim::TensorRef T = fuzz::materializeArg(Arg);
    if (Arg.FillSeed == 0 && Arg.Data.empty())
      Outputs.push_back(T);
    Opts.Args.push_back(sim::RuntimeArg::tensor(T));
  }
  sim::Interpreter Interp(Mod.get(), Cfg, Prog);
  std::vector<sim::CtaTrace> Traces;
  {
    Scoped S(Log, "sim.interpreter.functional", Parent);
    A.Error = Interp.runGrid(Opts, nullptr, &Traces);
  }
  if (!A.Error.empty())
    return A;
  C["functional_ctas"] += static_cast<int64_t>(Traces.size());
  std::vector<const sim::CtaTrace *> Ptrs;
  for (const sim::CtaTrace &T : Traces) {
    Ptrs.push_back(&T);
    C["hb_events"] += static_cast<int64_t>(T.HbEvents);
    for (const sim::AgentTrace &Ag : T.Agents) {
      C["functional_actions"] += static_cast<int64_t>(Ag.Actions.size());
      C["actions_replayed"] += static_cast<int64_t>(Ag.Actions.size());
    }
  }
  for (const sim::TensorRef &T : Outputs)
    A.Outputs.push_back(formatString(
        "%016llx", static_cast<unsigned long long>(fnv1a64(
                       T->data(), static_cast<size_t>(T->getNumElements()) *
                                      sizeof(float)))));
  {
    Scoped S(Log, "sim.replay", Parent);
    A.Cycles = sim::replaySmSchedule(Ptrs, Cfg, sim::ReplayParams()).Cycles;
  }
  C["sim_cycles"] += static_cast<int64_t>(A.Cycles);
  return A;
}

/// The corpus writes, with their expected answers from direct runs.
std::vector<Kind> writeKinds(Result &R) {
  std::string Dir = std::string(PERFBENCH_SOURCE_ROOT) + "/tests/corpus";
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string N = E->d_name;
      if (N.size() > 5 && N.compare(N.size() - 5, 5, ".tawa") == 0 &&
          std::find(std::begin(Drills), std::end(Drills), N) ==
              std::end(Drills))
        Names.push_back(N);
    }
    ::closedir(D);
  }
  std::sort(Names.begin(), Names.end());
  std::vector<Kind> Out;
  for (const std::string &N : Names) {
    Kind K;
    K.Name = "ir/" + N;
    K.Write = true;
    K.Ir = readFile(Dir + "/" + N);
    K.Head = "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"";
    K.Tail = "\",\"kind\":\"ir\",\"ir\":\"" + JsonWriter::escape(K.Ir) + "\"}";
    Counters Ignored;
    IrAnswer A = directIr(K.Ir, nullptr, -1, Ignored);
    if (!A.Error.empty()) {
      R.fail(K.Name + ": direct run failed: " + A.Error);
      continue;
    }
    // Expected as the wire renders it (cycles carry fixed decimals).
    ServeResponse E, Wire;
    E.HasIr = true;
    E.Outputs = A.Outputs;
    E.Cycles = A.Cycles;
    parseResponse(E.render(), Wire);
    K.Outputs = Wire.Outputs;
    K.Cycles = Wire.Cycles;
    Out.push_back(K);
  }
  if (Out.empty())
    R.fail("no corpus writes under " + Dir);
  return Out;
}

//===----------------------------------------------------------------------===//
// Daemon and connections
//===----------------------------------------------------------------------===//

/// A tawa-serve process. Its stdout (the readiness and closing stats lines)
/// arrives on the Subprocess channel; stderr is inherited.
class Daemon {
public:
  /// Spawns the daemon on \p Sock and waits for its readiness line.
  bool start(const std::string &Sock, std::string &Err) {
    Path = Sock;
    ::unlink(Sock.c_str());
    Subprocess::Options Opts;
    Opts.Argv = {PERFBENCH_SERVE_BIN, "--socket", Path};
    Opts.ExtraEnv = {
        {"TAWA_SERVE_EXEC_WORKERS", std::to_string(ExecWorkers)},
        {"TAWA_SERVE_QUEUE_DEPTH", std::to_string(QueueDepth)}};
    Proc = Subprocess::spawn(Opts, Err);
    if (!Proc)
      return false;
    std::string Line;
    while (readLine(Line, 30000))
      if (Line.rfind("tawa-serve: listening on", 0) == 0)
        return true;
    Err = "daemon never became ready";
    return false;
  }

  /// VmHWM of the daemon in MB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Proc->pid()) + "/status");
    std::string Key;
    while (In >> Key) {
      if (Key == "VmHWM:") {
        double Kb = 0;
        In >> Kb;
        return Kb / 1024.0;
      }
      In.ignore(1 << 20, '\n');
    }
    return 0;
  }

  /// SIGTERM, then waits for the drain. Returns the exit status (-1 when
  /// killed or never started) and the daemon's closing stats line.
  int stop(std::string &Stats) {
    if (!Proc)
      return -1;
    Proc->kill(SIGTERM);
    std::string Line;
    while (readLine(Line, 30000))
      if (Line.rfind("tawa-serve: accepted=", 0) == 0)
        Stats = Line;
    Subprocess::ExitStatus St = Proc->wait();
    return St.Signaled ? -1 : St.Code;
  }

  const std::string &path() const { return Path; }

private:
  bool readLine(std::string &Line, int TimeoutMs) {
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      pollfd P = {Proc->channel(), POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0)
        return false;
      char Tmp[4096];
      ssize_t N = ::read(Proc->channel(), Tmp, sizeof(Tmp));
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }

  std::unique_ptr<Subprocess> Proc; ///< Killed and reaped on destruction.
  std::string Path, Buf;
};

struct Conn {
  int Fd = -1;
  std::string Buf;
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(A.sun_path))
      return false;
    std::memcpy(A.sun_path, Path.c_str(), Path.size() + 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }
  bool send(const std::string &Line) {
    std::string S = Line + "\n";
    size_t Off = 0;
    while (Off < S.size()) {
      ssize_t N = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }
  /// Reads what is available; false on EOF or error.
  bool pump() {
    char Tmp[65536];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), MSG_DONTWAIT);
    if (N < 0 && (errno == EAGAIN || errno == EINTR))
      return true;
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }
  bool nextLine(std::string &Line) {
    size_t NL = Buf.find('\n');
    if (NL == std::string::npos)
      return false;
    Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    return true;
  }
  /// Blocking round trip (set-up and closed-loop phases).
  bool call(const std::string &Req, std::string &Resp) {
    if (!send(Req))
      return false;
    while (!nextLine(Resp)) {
      pollfd P = {Fd, POLLIN, 0};
      if (::poll(&P, 1, 30000) <= 0 || !pump())
        return false;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

/// Result of one open-loop phase at a fixed offered rate.
struct Phase {
  double Rate = 0;
  int64_t Sent = 0, Ok = 0, Failed = 0;
  std::vector<double> LatMs; ///< From scheduled send; +inf when failed.
  std::vector<double> LateMs; ///< How late each send left.
  double BacklogGrowth = 0;   ///< Fitted growth of outstanding requests.
  double Seconds = 0;         ///< First send to last answer.
  std::map<size_t, std::vector<double>> KindMs; ///< Latencies by kind.
  /// Requests sent by direction, and the work their answers carry.
  Counters Work;
  double tailMs() const { return tailOf(LatMs).Value; }
  bool growing() const {
    return BacklogGrowth >
           std::max(4.0, 0.02 * static_cast<double>(Sent));
  }
  /// Share of requests that failed or exceeded the latency limit.
  double missShare() const {
    return LatMs.empty()
               ? 1.0
               : static_cast<double>(std::count_if(
                     LatMs.begin(), LatMs.end(),
                     [](double Ms) { return Ms > P99LimitMs; })) /
                     static_cast<double>(LatMs.size());
  }
  /// The tail (p99 with 1000+ requests) within the limit, no growing
  /// backlog.
  bool meets() const { return !growing() && tailMs() <= P99LimitMs; }
};

/// Where the serve workload runs: with two or more usable cores, the
/// generator gets the last one to itself and the daemons the others. The
/// set-up, the calibration and the traced run's in-process Service keep
/// every core.
struct CoreSplit {
  bool Split = false;
  cpu_set_t Generator, Daemons;
  CoreSplit() {
    cpu_set_t All;
    CPU_ZERO(&Generator);
    CPU_ZERO(&Daemons);
    if (::sched_getaffinity(0, sizeof(All), &All) != 0 ||
        CPU_COUNT(&All) < 2)
      return;
    int Last = -1;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All))
        Last = C;
    Daemons = All;
    CPU_CLR(Last, &Daemons);
    CPU_SET(Last, &Generator);
    Split = true;
  }
};

/// Moves the calling thread to \p Set while in scope.
class Pin {
public:
  explicit Pin(const cpu_set_t &Set) {
    Ok = CPU_COUNT(&Set) > 0 &&
         ::sched_getaffinity(0, sizeof(Saved), &Saved) == 0 &&
         ::sched_setaffinity(0, sizeof(Set), &Set) == 0;
  }
  ~Pin() {
    if (Ok)
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  Pin(const Pin &) = delete;
  Pin &operator=(const Pin &) = delete;

private:
  bool Ok = false;
  cpu_set_t Saved;
};

class ServeRun {
public:
  ServeRun(const RunConfig &Cfg, Result &R) : Cfg(Cfg), R(R), Rng(Cfg.Seed) {}
  void run();

private:
  /// The kinds of \p N requests: exactly round(N x WriteShare) writes
  /// spread evenly over the write kinds, the rest spread evenly over the
  /// read kinds, each in seeded order. The writes sit at even intervals
  /// from a seeded offset. Fixed counts and spacing keep the tail on the
  /// same request kinds in every window: with writes drawn at random
  /// positions, whether two writes happened to overlap decided a window's
  /// tail.
  std::vector<size_t> deck(int64_t N) {
    int64_t W = std::llround(static_cast<double>(N) * WriteShare);
    std::vector<size_t> Wr, Rd;
    for (int64_t I = 0; I < W; ++I)
      Wr.push_back(Reads + static_cast<size_t>(I) % (Kinds.size() - Reads));
    for (int64_t I = 0; I < N - W; ++I)
      Rd.push_back(static_cast<size_t>(I) % Reads);
    std::shuffle(Wr.begin(), Wr.end(), Rng);
    std::shuffle(Rd.begin(), Rd.end(), Rng);
    // Write k goes to Offset + floor(k N / W), which stays below N.
    int64_t Offset =
        W > 0 ? std::uniform_int_distribution<int64_t>(0, N / W - 1)(Rng) : 0;
    std::vector<size_t> D(static_cast<size_t>(N), Kinds.size());
    for (int64_t K = 0; K < W; ++K)
      D[static_cast<size_t>(Offset + K * N / W)] = Wr[static_cast<size_t>(K)];
    size_t NextR = 0;
    for (size_t &Slot : D)
      if (Slot == Kinds.size())
        Slot = Rd[NextR++];
    return D;
  }
  /// Checks one answer against its kind; false when the op failed. A read
  /// whose answer is not known yet learns it from \p Line. A correct
  /// answer's work (a write's cycles, a read's simulated time) is added to
  /// \p Work when given.
  bool check(Kind &K, const std::string &Line, Counters *Work = nullptr);
  bool setUpDaemon(Daemon &D, double &Seconds);
  Phase openLoop(double Rate, double Seconds);
  void traced();
  /// serve.service.slo_rps of the connected daemon.
  double walkLadder();
  /// Drains \p D with SIGTERM; it must exit 0. Returns the counts of its
  /// closing stats line, as daemon.<name>.
  Counters stopDaemon(Daemon &D);

  const RunConfig &Cfg;
  Result &R;
  std::mt19937_64 Rng;
  CoreSplit Cores;
  std::vector<Kind> Kinds;
  size_t Reads = 0;
  std::vector<std::unique_ptr<Conn>> Conns;
  int64_t Seq = 0;
};

bool ServeRun::check(Kind &K, const std::string &Line, Counters *Work) {
  ServeResponse Resp;
  if (!parseResponse(Line, Resp).empty() ||
      Resp.St != ServeResponse::Status::Ok)
    return false;
  if (K.Write) {
    if (!Resp.HasIr || Resp.Outputs != K.Outputs || Resp.Cycles != K.Cycles)
      return false;
    if (Work)
      (*Work)["write_cycles"] += std::llround(Resp.Cycles);
    return true;
  }
  if (!Resp.HasRun)
    return false;
  if (K.Micros < 0) {
    K.Micros = Resp.Micros;
    K.TFlops = Resp.TFlops;
  }
  if (Resp.Micros != K.Micros)
    return false;
  if (Work)
    (*Work)["read_sim_picos"] += std::llround(Resp.Micros * 1e6);
  return true;
}

bool ServeRun::setUpDaemon(Daemon &D, double &Seconds) {
  Clock::time_point T0 = Clock::now();
  std::string Err;
  bool Started;
  {
    Pin DaemonPin(Cores.Daemons); // The daemon inherits the mask.
    Started = D.start(Cfg.RunDir + "/s.sock", Err);
  }
  if (!Started) {
    R.fail(Err);
    return false;
  }
  Conns.clear();
  int N = static_cast<int>(
      std::min<long>(MaxConnections, ::sysconf(_SC_NPROCESSORS_ONLN)));
  for (int I = 0; I < std::max(1, N); ++I) {
    Conns.push_back(std::make_unique<Conn>());
    if (!Conns.back()->open(D.path())) {
      R.fail("cannot connect to the daemon");
      return false;
    }
  }
  // Warm-up: every kind once, so reads are cache hits from here on.
  for (Kind &K : Kinds) {
    std::string Resp;
    if (!Conns[0]->call(K.line("warm-" + K.Name), Resp) ||
        !check(K, Resp)) {
      R.fail("warm-up " + K.Name + " failed: " + Resp);
      return false;
    }
  }
  Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
  return true;
}

Phase ServeRun::openLoop(double Rate, double Seconds) {
  Pin GenPin(Cores.Generator);
  Phase P;
  P.Rate = Rate;
  int64_t N = std::max<int64_t>(1, static_cast<int64_t>(Rate * Seconds));
  std::vector<size_t> KindOf = deck(N);
  for (size_t K : KindOf)
    P.Work[Kinds[K].Write ? "writes" : "reads"] += 1;
  int64_t Base = Seq;
  Seq += N;
  std::vector<double> Done(static_cast<size_t>(N), -1);
  std::vector<pollfd> Fds;
  for (auto &C : Conns)
    Fds.push_back({C->Fd, POLLIN, 0});
  double Gap = 1e6 / Rate;
  double T0 = nowUs() + 1000;
  auto Sched = [&](int64_t I) { return T0 + Gap * static_cast<double>(I); };
  std::vector<std::pair<double, double>> Backlog; // (t, outstanding)
  int64_t Next = 0, Outstanding = 0;
  double LastSend = T0;
  for (;;) {
    double Now = nowUs();
    while (Next < N && Now >= Sched(Next)) {
      const Kind &K = Kinds[KindOf[static_cast<size_t>(Next)]];
      std::string Id = "r" + std::to_string(Base + Next);
      if (!Conns[static_cast<size_t>(Next) % Conns.size()]->send(K.line(Id))) {
        R.fail("cannot send to the daemon");
        return P;
      }
      P.LateMs.push_back((Now - Sched(Next)) / 1000.0);
      ++Outstanding;
      Backlog.push_back({Now, static_cast<double>(Outstanding)});
      LastSend = Now;
      ++Next;
      Now = nowUs();
    }
    if (Next == N && Outstanding == 0)
      break;
    if (Next == N && Now - LastSend > 5e6)
      break; // Lost answers count as failures below.
    // With a core of its own the generator spins: on a virtual machine,
    // waking an idle core from a timer takes from tens of microseconds to
    // milliseconds, and every request due meanwhile would be charged for
    // it. Sharing its core with the daemon, it sleeps instead.
    double WaitUs = Cores.Split ? 0
                    : Next < N ? Sched(Next) - Now
                               : 5e6 - (Now - LastSend);
    timespec TS{static_cast<time_t>(std::max(0.0, WaitUs) / 1e6),
                static_cast<long>(std::fmod(std::max(0.0, WaitUs), 1e6) *
                                  1000)};
    if (::ppoll(Fds.data(), Fds.size(), &TS, nullptr) <= 0)
      continue;
    for (size_t C = 0; C < Conns.size(); ++C) {
      if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!Conns[C]->pump()) {
        R.fail("daemon closed a connection");
        return P;
      }
      std::string Line;
      while (Conns[C]->nextLine(Line)) {
        double T = nowUs();
        size_t At = Line.find("\"id\":\"r");
        int64_t I = At == std::string::npos
                        ? -1
                        : std::strtoll(Line.c_str() + At + 7, nullptr, 10) -
                              Base;
        if (I < 0 || I >= N || Done[static_cast<size_t>(I)] >= 0)
          continue;
        --Outstanding;
        Kind &K = Kinds[KindOf[static_cast<size_t>(I)]];
        bool Ok = check(K, Line, &P.Work);
        Done[static_cast<size_t>(I)] = T;
        P.LatMs.push_back(Ok ? (T - Sched(I)) / 1000.0
                             : std::numeric_limits<double>::infinity());
        P.KindMs[KindOf[static_cast<size_t>(I)]].push_back(P.LatMs.back());
        (Ok ? P.Ok : P.Failed) += 1;
        if (!Ok && P.Failed <= 3)
          R.note("failed op at " + formatString("%.0f", Rate) + " req/s: " +
                 K.Name + ": " + Line.substr(0, 300));
      }
    }
  }
  P.Sent = Next;
  P.Failed += N - P.Ok - P.Failed; // Never sent or never answered.
  while (static_cast<int64_t>(P.LatMs.size()) < N)
    P.LatMs.push_back(std::numeric_limits<double>::infinity());
  P.Seconds = (nowUs() - T0) / 1e6;
  // Least-squares slope of outstanding requests over the send window.
  double Sx = 0, Sy = 0, Sxx = 0, Sxy = 0, Nn = static_cast<double>(
                                              Backlog.size());
  for (auto [T, Y] : Backlog) {
    double X = (T - T0) / 1e6;
    Sx += X;
    Sy += Y;
    Sxx += X * X;
    Sxy += X * Y;
  }
  double Den = Nn * Sxx - Sx * Sx;
  if (Nn > 2 && Den > 0)
    P.BacklogGrowth = (Nn * Sxy - Sx * Sy) / Den * Seconds;
  R.note(formatString("phase %.2f req/s: sent %lld ok %lld failed %lld, "
                      "tail p%.1f %.3f ms, generator late p99 %.3f ms, "
                      "backlog growth %+.1f -> %s",
                      Rate, static_cast<long long>(P.Sent),
                      static_cast<long long>(P.Ok),
                      static_cast<long long>(P.Failed), tailOf(P.LatMs).Pct,
                      P.tailMs(), quantile(P.LateMs, 0.99), P.BacklogGrowth,
                      P.meets() ? "meets" : "misses"));
  return P;
}

void ServeRun::run() {
  Kinds = readKinds();
  Reads = Kinds.size();
  for (Kind &K : writeKinds(R))
    Kinds.push_back(std::move(K));
  R.note(formatString("serve-mixed: %zu read kinds, %zu write kinds, write "
                      "share %.2f, %d connections",
                      Reads, Kinds.size() - Reads, WriteShare,
                      MaxConnections));
  if (!R.Correct)
    return;

  if (Cfg.Trace) {
    Daemon D;
    double S = 0;
    if (setUpDaemon(D, S))
      traced();
    stopDaemon(D);
    // serve.service.slo_rps: the ladder walk, one fresh daemon each.
    std::vector<double> Found;
    for (int I = 0; I < SloDaemons && R.Correct; ++I) {
      Daemon Dl;
      if (!setUpDaemon(Dl, S))
        break;
      Found.push_back(walkLadder());
      R.note(formatString("slo daemon %d: %.0f req/s", I, Found.back()));
      stopDaemon(Dl);
    }
    R.set("serve.service.slo_rps", median(Found));
    return;
  }

  // Every window runs against its own freshly spawned daemon: a daemon's
  // thread placement sticks for its lifetime and moves its latencies as a
  // whole, so the medians are over daemons. Each spawn is also a set-up
  // sample (spawn until the readiness line and the answered warm-up).
  std::vector<double> SetupS;
  std::vector<Window> Windows;
  std::map<size_t, std::vector<double>> ByKind;
  double PeakRss = 0;
  Counters Clean; ///< Work counters of the first window with no failed op.
  HostSpeed Host;
  int RefWindows = std::max(4, static_cast<int>(Cfg.Seconds * WindowsPerSecond));
  for (int I = 0; I < RefWindows; ++I) {
    Daemon D;
    double S = 0;
    if (!setUpDaemon(D, S))
      return;
    SetupS.push_back(S);
    Phase Warm = openLoop(ReferenceRps, WarmS);
    Phase P = openLoop(ReferenceRps, RefWindowS);
    for (auto &[K, V] : P.KindMs)
      ByKind[K].insert(ByKind[K].end(), V.begin(), V.end());
    R.Attempted += static_cast<int64_t>(P.LatMs.size());
    R.Failed += P.Failed;
    Windows.push_back({P.LatMs, P.Seconds, quantile(P.LateMs, 0.99)});
    PeakRss = std::max(PeakRss, D.peakRssMb());
    Host.sample();
    // The window's work: what was sent, what the correct answers carry,
    // and what the daemon says it did, which must account for every request
    // sent. A window with a failed op (counted in `failed`, such as an
    // overload rejection during a host stall) did less work; every other
    // window must repeat the first such window exactly.
    Counters Win = P.Work;
    for (const auto &[K, V] : stopDaemon(D))
      Win[K] = V;
    int64_t Sent = static_cast<int64_t>(Kinds.size()) + Warm.Sent + P.Sent;
    if (Win["daemon.accepted"] + Win["daemon.rejected_overload"] != Sent)
      R.fail(formatString("daemon %d accepted %lld and rejected %lld of %lld "
                          "requests",
                          I, static_cast<long long>(Win["daemon.accepted"]),
                          static_cast<long long>(
                              Win["daemon.rejected_overload"]),
                          static_cast<long long>(Sent)));
    if (Warm.Failed + P.Failed > 0)
      R.note(formatString("window %d had failed ops; its work counters are "
                          "not compared",
                          I));
    else if (Clean.empty())
      Clean = Win;
    else if (Win != Clean)
      R.fail(formatString("work counters of window %d differ from the first "
                          "window without failed ops",
                          I));
  }
  Host.report(R);
  reportSetup(R, SetupS, Host);
  reportWindows(R, Windows, Host, /*ScaleRate=*/false);
  std::vector<double> Late;
  for (const Window &W : Windows)
    Late.push_back(W.LateP99Ms);
  R.note(formatString("generator lateness against the schedule: median over "
                      "windows of each window's p99 %.3f ms, worst %.3f ms",
                      median(Late), quantile(Late, 1.0)));
  for (auto &[K, V] : ByKind)
    R.note(formatString("  %-40s n=%5zu p50 %.3f ms p90 %.3f ms",
                        Kinds[K].Name.c_str(), V.size(), median(V),
                        quantile(V, 0.9)));
  std::vector<double> T;
  for (size_t I = 0; I < Reads; ++I)
    if (Kinds[I].Name.find("/tawa/") != std::string::npos)
      T.push_back(Kinds[I].TFlops);
  R.set("sim_tflops_geomean", geomean(T));
  R.set("peak_rss_mb", PeakRss);
  R.Work = Clean;
}

double ServeRun::walkLadder() {
  // Up the ladder from 2.5x the reference rate until a rate misses. The
  // capacity is the last rate met, moved toward the first missed by where
  // the share of missing requests crosses 1% (log-linear in the rate) when
  // that share, not backlog growth, decided the miss.
  double Met = 0, MetShare = 0;
  for (double Rate = ReferenceRps * 2.5; Rate < 1e6; Rate *= LadderStep) {
    Phase P = openLoop(Rate, ProbeS);
    if (P.meets()) {
      Met = Rate;
      MetShare = P.missShare();
      continue;
    }
    double Miss = P.missShare();
    if (Met > 0 && !P.growing() && Miss > 0.01) {
      double Lo = std::log(std::max(MetShare, 1e-4));
      double Frac = (std::log(0.01) - Lo) / (std::log(Miss) - Lo);
      Met *= std::pow(LadderStep, std::clamp(Frac, 0.0, 1.0));
    }
    return Met;
  }
  return Met;
}

Counters ServeRun::stopDaemon(Daemon &D) {
  Conns.clear();
  std::string Stats;
  int Rc = D.stop(Stats);
  R.note("daemon: " + Stats);
  if (Rc != 0)
    R.fail(formatString("daemon exited %d after SIGTERM", Rc));
  // "tawa-serve: accepted=N succeeded=N failed=N ..."
  Counters C;
  std::istringstream In(Stats);
  std::string Field;
  while (In >> Field)
    if (size_t Eq = Field.find('='); Eq != std::string::npos)
      C["daemon." + Field.substr(0, Eq)] =
          std::strtoll(Field.c_str() + Eq + 1, nullptr, 10);
  if (C.empty())
    R.fail("daemon printed no stats line");
  return C;
}

/// The traced run: the same request stream, one request at a time, first
/// untraced over the socket (the overhead baseline), then with every layer
/// call re-issued in process under spans, then open loop against an
/// in-process Service while sampling its queue depth.
void ServeRun::traced() {
  Conn &C = *Conns[0];
  // A fixed stream, so the layer counters repeat exactly between runs.
  std::vector<size_t> Stream = deck(TracedRequests);

  size_t Untraced = 0;
  double Budget = Cfg.Seconds * 0.25, Start = nowUs();
  for (; Untraced < Stream.size() && (nowUs() - Start) / 1e6 < Budget;
       ++Untraced) {
    std::string Resp;
    if (!C.call(Kinds[Stream[Untraced]].line("u" + std::to_string(Untraced)),
                Resp))
      R.fail("socket round trip failed");
  }
  double UntracedRps = static_cast<double>(Untraced) * 1e6 / (nowUs() - Start);

  ServeConfig SvcCfg = ServeConfig::fromEnv();
  SvcCfg.ExecWorkers = ExecWorkers;
  SvcCfg.QueueDepth = QueueDepth;
  Service Svc(SvcCfg);
  for (const Kind &K : Kinds)
    Svc.call(K.line("warm-" + K.Name)); // Same warm cache as the daemon.
  SpanLog L;
  Counters LayerWork;
  std::vector<double> ReqBytes;
  Runner Rn;
  Rn.MaxSteps = ServeConfig().DefaultMaxSteps;
  /// (round-trip span, execute span) of every request, by kind.
  std::vector<std::vector<std::pair<int, int>>> ByKind(Kinds.size());
  double TracedStart = nowUs();
  for (size_t I = 0; I < Stream.size(); ++I) {
    Kind &K = Kinds[Stream[I]];
    std::string Line = K.line("t" + std::to_string(I));
    ReqBytes.push_back(static_cast<double>(Line.size()));
    std::string SockResp;
    int Sock = L.begin("serve.socket.rtt");
    if (!C.call(Line, SockResp))
      R.fail("socket round trip failed");
    L.end(Sock);
    int Call = L.begin("serve.service.call", Sock);
    std::string SvcResp = Svc.call(Line);
    L.end(Call);
    ServeRequest Req;
    {
      Scoped S(L, "serve.protocol.parse", Call);
      if (!parseRequest(Line, Req).empty())
        R.fail(K.Name + ": request does not parse");
    }
    ServeResponse Resp;
    Resp.Id = Req.Id;
    Resp.Attempts = 1;
    ErrorKind Kind = ErrorKind::None;
    int Exec = L.begin("serve.execute.us", Call);
    ExecEnv Env;
    Env.RemainingMs = ServeConfig().DefaultDeadlineMs;
    std::string Err = executeRequest(Req, Env, Resp, Kind);
    L.end(Exec);
    ByKind[Stream[I]].push_back({Sock, Exec});
    Resp.St = Err.empty() ? ServeResponse::Status::Ok
                          : ServeResponse::Status::Failed;
    std::string Mine;
    {
      Scoped S(L, "serve.protocol.render", Call);
      Mine = Resp.render();
    }
    if (Mine != SvcResp || !check(K, SvcResp) || !check(K, SockResp))
      R.fail(K.Name + ": in-process layers, Service::call and the socket "
                      "disagree: " + Mine.substr(0, 200));
    // Below executeRequest: the layer calls it makes, re-issued.
    if (K.Write) {
      IrAnswer A = directIr(K.Ir, &L, Exec, LayerWork);
      if (A.Outputs != Resp.Outputs || A.Cycles != Resp.Cycles)
        R.fail(K.Name + ": re-issued ir layers do not reproduce the answer");
    } else {
      Point Pt;
      Pt.Label = K.Name;
      Pt.P.Functional = Req.Functional;
      if (Req.K == ServeRequest::Kind::Gemm) {
        Pt.P.Gemm = Req.Gemm;
        Pt.P.Envelope = getGemmEnvelope(Req.F, Req.Gemm);
      } else {
        Pt.P.PointKind = SweepPoint::Kind::Attention;
        Pt.P.Attn = Req.Mha;
        Pt.P.Envelope = getAttentionEnvelope(Req.F, Req.Mha);
      }
      Decomposed Dc = decomposeRun(Rn, Pt, L, Exec, LayerWork);
      if (!Dc.Error.empty() || (Dc.Ran && Dc.Micros != Resp.Micros))
        R.fail(K.Name + ": re-issued layers do not reproduce the answer");
    }
  }
  double TracedRps =
      static_cast<double>(Stream.size()) * 1e6 / (nowUs() - TracedStart);

  // Host time of the mix: the serve layers (socket round trip minus
  // Service::call, plus the call minus executeRequest: admission, queue
  // hand-off, protocol parse and render) against executeRequest.
  double ServeUs = 0, ExecUs = 0;
  for (size_t K = 0; K < Kinds.size(); ++K) {
    std::vector<double> S, E;
    for (auto [Sock, Exec] : ByKind[K]) {
      E.push_back(L.spans()[static_cast<size_t>(Exec)].durUs());
      S.push_back(L.spans()[static_cast<size_t>(Sock)].durUs() - E.back());
      ServeUs += S.back();
      ExecUs += E.back();
    }
    R.note(formatString("  host time %-38s n=%4zu median serve layers "
                        "%7.1f us, executeRequest %7.1f us",
                        Kinds[K].Name.c_str(), S.size(), median(S),
                        median(E)));
  }
  R.note(formatString("host time split at write share %.2f: serve layers "
                      "%.1f%%, executeRequest %.1f%%",
                      WriteShare, 100 * ServeUs / (ServeUs + ExecUs),
                      100 * ExecUs / (ServeUs + ExecUs)));

  // Queue depth under the reference load, in process.
  std::vector<double> Depth;
  Clock::time_point T0 = Clock::now();
  int64_t N = static_cast<int64_t>(ReferenceRps * Budget);
  for (int64_t I = 0; I < N; ++I) {
    std::this_thread::sleep_until(
        T0 + std::chrono::microseconds(
                 static_cast<int64_t>(1e6 / ReferenceRps * I)));
    Depth.push_back(static_cast<double>(Svc.queueNow()));
    Svc.submit(Kinds[Stream[static_cast<size_t>(I) % Stream.size()]].line(
                   "q" + std::to_string(I)),
               [](std::string) {});
  }
  Svc.shutdown();
  ServeStats St = Svc.stats();

  L.write(Cfg.RunDir + "/spans.jsonl");
  R.note(formatString("traced: %zu requests, %zu spans", Stream.size(),
                      L.spans().size()));
  R.Attempted = static_cast<int64_t>(Stream.size());
  R.Work = LayerWork;
  reportLayers(R, L, LayerWork, 1);
  ProgramCache::Stats PC = ProgramCache::shared().getStats();
  double Hits = static_cast<double>(PC.MemoryHits + PC.DiskHits);
  double Misses = static_cast<double>(PC.Compiles);
  R.set("support.program_cache.hits", Hits);
  R.set("support.program_cache.misses", Misses);
  R.set("support.program_cache.hit_ratio",
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  R.set("support.program_cache.resident_bytes",
        static_cast<double>(PC.Bytes));
  R.set("serve.protocol.request_bytes", median(ReqBytes));
  R.set("serve.service.self_us", L.medianSelfUs("serve.service.call"));
  R.set("serve.service.queue_depth_p99", quantile(Depth, 0.99));
  R.set("serve.service.retries", static_cast<double>(St.Retries));
  R.set("serve.service.degrade_steps", static_cast<double>(St.DegradeSteps));
  R.set("serve.service.rejected_overload",
        static_cast<double>(St.RejectedOverload));
  R.set("serve.socket.rtt_self_us", L.medianSelfUs("serve.socket.rtt"));
  // Requests per second one at a time over the socket, against the same
  // stream with the in-process replica and re-issued layer calls traced.
  R.note(formatString("tracing: %zu untraced requests at %.1f req/s, %zu "
                      "traced at %.1f req/s",
                      Untraced, UntracedRps, Stream.size(), TracedRps));
  R.set("trace.overhead_ratio", UntracedRps / TracedRps);
}

} // namespace

void runServe(const RunConfig &Cfg, Result &R) {
  ServeRun Run(Cfg, R);
  Run.run();
}

void traceServeLayers(const RunConfig &Cfg, Result &R) {
  RunConfig Sub = Cfg;
  Sub.Workload = "serve-mixed";
  Sub.Trace = true;
  Sub.RunDir = Cfg.RunDir + "/serve";
  if (::mkdir(Sub.RunDir.c_str(), 0755) != 0) {
    R.fail("cannot create " + Sub.RunDir);
    return;
  }
  Result S;
  runServe(Sub, S);
  for (const std::string &N : S.Notes)
    R.note("serve-mixed layers: " + N);
  if (!S.Correct)
    R.Correct = false;
  R.Attempted += S.Attempted;
  R.Failed += S.Failed;
  for (const auto &[K, V] : S.Work)
    R.Work["serve." + K] = V;
  // The layers only this stream reaches; the batch run's own values stand
  // for the layers both reach.
  for (const auto &[Name, V] : S.Metrics)
    if (Name.rfind("ir.", 0) == 0 || Name.rfind("serve.", 0) == 0)
      R.set(Name, V);
}

} // namespace pb

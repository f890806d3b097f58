//===- perfbench/perfbench.cpp - Wall-clock benchmark ---------------------===//
//
// Part of the SuperPin reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's wall-clock benchmark: serial Pin against serial
/// SuperPin against host-parallel SuperPin (-spmp W) on three workloads
/// chosen to stress different layers. It measures from outside, timing
/// calls into the public functions of workloads, vm, os, pin, superpin,
/// host and tools; it changes no program code.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// --trace 0 prints the end-to-end metrics, measured with tracing off.
/// --trace 1 prints the per-layer metrics: it records a span around each
/// layer call, attaches obs::HostTraceRecorder to the -spmp runs, and
/// writes both as one Chrome trace JSON document (loads in Perfetto).
/// Either way the last stdout line is one JSON object with the keys
/// correct, attempted, failed and metrics. See README.md for why each
/// workload exists and which end-to-end metric each layer metric should
/// move.
///
//===----------------------------------------------------------------------===//

#include "obs/HostTraceRecorder.h"
#include "obs/TraceRecorder.h"
#include "os/CostModel.h"
#include "os/DirectRun.h"
#include "os/Kernel.h"
#include "os/Process.h"
#include "os/Scheduler.h"
#include "pin/CodeCache.h"
#include "pin/Compiler.h"
#include "pin/PinVm.h"
#include "pin/Runner.h"
#include "superpin/Engine.h"
#include "superpin/Signature.h"
#include "support/RawOstream.h"
#include "tools/Icount.h"
#include "vm/GuestMemory.h"
#include "vm/Interpreter.h"
#include "workloads/Spec2000.h"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace spin;

namespace {

using Clock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Workloads and fixed harness options
//===----------------------------------------------------------------------===//

/// One benchmark workload: a suite program plus the tool it runs under.
struct BenchWorkload {
  const char *Name;
  const char *Program;
  tools::IcountGranularity Tool;
  const char *ToolName;
};

// Each workload stresses layers the others bypass (README.md has the full
// layer -> end-to-end -> workload map):
//  - codefoot: the largest code footprint in the suite, so pin compile and
//    code cache, the host charge stream and the sim thread dominate;
//  - memchase: pointer chasing over 4 MB, so guest memory and fork/COW
//    dominate while compilation is small;
//  - toolheavy: one analysis call per instruction over a cache-resident
//    64 KB working set, so the instrumented VM and the tool dominate.
constexpr BenchWorkload Workloads[] = {
    {"codefoot", "gcc", tools::IcountGranularity::BasicBlock, "icount2"},
    {"memchase", "mcf", tools::IcountGranularity::BasicBlock, "icount2"},
    {"toolheavy", "crafty", tools::IcountGranularity::Instruction,
     "icount1"},
};

// The bench harness settings (bench/BenchCommon.h, superpin_run): 100 ms
// slices, 8 running slices, full-length programs. SpOptions' 1000 ms
// default yields 11 slices on gcc, too few to keep the workers busy.
constexpr uint64_t SliceMs = 100;
constexpr uint32_t MaxSlices = 8;
constexpr double Scale = 1.0;

//===----------------------------------------------------------------------===//
// Statistics and timing helpers
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile \p P (0-100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[Rank ? Rank - 1 : 0];
}

/// "median of N; IQR [q1, q3], min, max" for a sample note.
std::string describe(const std::vector<double> &V) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "median of %zu; IQR [%.4g, %.4g], min %.4g, max %.4g",
                V.size(), percentile(V, 25), percentile(V, 75),
                percentile(V, 0), percentile(V, 100));
  return Buf;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Places the benchmark's threads on single CPUs, one per thread.
///
/// On a shared host the CPUs this process may use do not run at one
/// speed: a CPU whose physical core is busy with another tenant runs the
/// interpreter-heavy program up to 1.9x slower, for minutes, while the
/// others run at full speed. Left alone, the scheduler keeps a thread on
/// whichever CPU it started on, so a whole run can land on a slow one.
/// The benchmark instead rotates the CPU it pins a configuration to from
/// round to round, so every CPU is sampled in every run.
class Placement {
public:
  /// Reads the CPUs this process may run on (honours the cpuset).
  Placement() {
    CPU_ZERO(&All);
    if (sched_getaffinity(0, sizeof(All), &All) == 0)
      for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &All))
          Cpus.push_back(Cpu);
  }

  unsigned size() const { return static_cast<unsigned>(Cpus.size()); }

  /// Pins the calling thread to the CPU in slot \p Slot (mod size()).
  void pin(unsigned Slot) const {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Slot % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

  /// Lets the calling thread run on every usable CPU again.
  void unpin() const {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(All), &All);
  }

  /// A worker-pool job hook that pins worker I to slot \p SimSlot + 1 + I
  /// on its first job, so the workers leave the sim thread's CPU (slot
  /// \p SimSlot) to it. Pool threads are created per run, and each takes
  /// the sim thread's affinity until its first job moves it.
  std::function<void(unsigned, uint64_t)> workerHook(unsigned SimSlot) const {
    return [this, SimSlot](unsigned Worker, uint64_t) {
      thread_local bool Placed = false;
      if (!Placed) {
        pin(SimSlot + 1 + Worker);
        Placed = true;
      }
    };
  }

  /// CPU ids this process may run on.
  const std::vector<int> &cpus() const { return Cpus; }

private:
  cpu_set_t All;
  std::vector<int> Cpus;
};

/// Keeps every usable CPU busy at the lowest priority while the benchmark
/// runs, from a child process with one SCHED_IDLE pause loop per CPU.
///
/// In a VM, a vCPU with nothing to run halts, and waking it again goes
/// through the hypervisor. On a busy host that makes every worker-pool
/// hand-off slow and erratic: a condition-variable round trip between two
/// threads took 25-42 us at the median and 0.1-1.7 ms at p99, against 15 us
/// and 18 us with the loops running. -spmp hands off thousands of times a
/// run, so without the loops its wall time tracks the host's load. A
/// SCHED_IDLE thread yields at once to any normal one, so the loops take
/// no time from the benchmark; being another process, their CPU time is
/// not in the benchmark's getrusage(RUSAGE_SELF).
class IdleSpinners {
public:
  explicit IdleSpinners(const Placement &Place) {
    pid_t Parent = getpid();
    Child = fork();
    if (Child != 0)
      return; // the parent; on failure (-1) it runs without the loops
    // The loops must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(0);
    std::vector<std::thread> Loops;
    for (int Cpu : Place.cpus())
      Loops.emplace_back([Cpu] {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(Cpu, &One);
        sched_setaffinity(0, sizeof(One), &One);
        sched_param Param{};
        sched_setscheduler(0, SCHED_IDLE, &Param);
        for (;;) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#elif defined(__aarch64__)
          asm volatile("yield");
#endif
        }
      });
    for (std::thread &T : Loops)
      T.join();
    _exit(0);
  }

  ~IdleSpinners() {
    if (Child <= 0)
      return;
    kill(Child, SIGKILL);
    while (waitpid(Child, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  pid_t Child = -1;
};

/// Spans recorded by the benchmark around each layer call, kept in memory
/// and written out at the end. When disabled (the end-to-end pass) the
/// calls are still timed but nothing is recorded.
class SpanLog {
public:
  struct Span {
    std::string Name;
    uint64_t BeginNs = 0;
    uint64_t EndNs = 0;
    int Parent = -1;
  };

  explicit SpanLog(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  /// Runs \p F inside a span named \p Name; returns its wall seconds.
  template <typename Fn> double timed(const char *Name, Fn &&F) {
    int Id = -1;
    if (Enabled) {
      Id = static_cast<int>(Spans.size());
      Spans.push_back({Name, 0, 0, Open.empty() ? -1 : Open.back()});
      Open.push_back(Id);
    }
    uint64_t Begin = nowNs();
    F();
    uint64_t End = nowNs();
    if (Enabled) {
      Spans[Id].BeginNs = Begin;
      Spans[Id].EndNs = End;
      Open.pop_back();
    }
    return static_cast<double>(End - Begin) * 1e-9;
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Counts correctness checks; every failure is named on stderr.
struct Oracle {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
    }
  }
};

/// One named metric as printed and emitted.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Note;
};

//===----------------------------------------------------------------------===//
// Runs of the program
//===----------------------------------------------------------------------===//

struct Context {
  const BenchWorkload &W;
  workloads::WorkloadInfo Info;
  vm::Program Prog;
  os::CostModel Model;
  os::Ticks InstCost = 0;
  unsigned Workers = 1;
  os::DirectRunResult Direct; ///< the ground-truth interpreter run

  sp::SpOptions spOptions(unsigned HostWorkers) const {
    sp::SpOptions Opts;
    Opts.SliceMs = SliceMs;
    Opts.MaxSlices = MaxSlices;
    Opts.Cpi = Info.Cpi;
    Opts.HostWorkers = HostWorkers;
    return Opts;
  }
};

struct PinRun {
  pin::RunReport Rep;
  uint64_t Icount = 0;
};

struct SpRun {
  sp::SpRunReport Rep;
  uint64_t Icount = 0;
};

PinRun runPin(const Context &C) {
  PinRun R;
  auto Count = std::make_shared<tools::IcountResult>();
  R.Rep = pin::runSerialPin(C.Prog, C.Model, C.InstCost,
                            tools::makeIcountTool(C.W.Tool, Count));
  R.Icount = Count->Total;
  return R;
}

SpRun runSp(const Context &C, const sp::SpOptions &Opts) {
  SpRun R;
  auto Count = std::make_shared<tools::IcountResult>();
  R.Rep = sp::runSuperPin(C.Prog, tools::makeIcountTool(C.W.Tool, Count),
                          Opts, C.Model);
  R.Icount = Count->Total;
  return R;
}

void checkPin(Oracle &O, const Context &C, const PinRun &P) {
  O.check(P.Rep.Output == C.Direct.Output, "pin output == runDirect output");
  O.check(P.Rep.Insts == C.Direct.Insts, "pin insts == runDirect insts");
  O.check(P.Icount == C.Direct.Insts, "pin icount == runDirect insts");
}

/// The SuperPin oracle: output and tool output equal serial Pin's, the
/// master and the merged icount retire exactly the interpreter's count,
/// and the slice windows partition the master's stream.
void checkSp(Oracle &O, const Context &C, const PinRun &Ref, const SpRun &S,
             const char *Label) {
  std::string L = Label;
  O.check(S.Rep.FiniOutput == Ref.Rep.FiniOutput,
          L + " FiniOutput == serial Pin's");
  O.check(S.Rep.Output == Ref.Rep.Output, L + " Output == serial Pin's");
  O.check(S.Rep.MasterInsts == C.Direct.Insts,
          L + " MasterInsts == runDirect insts");
  O.check(S.Icount == C.Direct.Insts, L + " icount == runDirect insts");
  O.check(S.Rep.PartitionOk, L + " PartitionOk");
}

//===----------------------------------------------------------------------===//
// End-to-end pass (--trace 0)
//===----------------------------------------------------------------------===//

/// One set-up sample: builds the workload program 16 times in a row on
/// each usable CPU, and appends the lowest per-build mean to \p Out. A
/// build takes 20-250 us, so a single one is at the timer's and the
/// cache's mercy; a batch is not.
vm::Program timeSetup(const workloads::WorkloadInfo &Info,
                      const Placement &Place, SpanLog &Spans,
                      std::vector<double> &Out) {
  constexpr int Batch = 16;
  vm::Program Prog;
  double Best = 0;
  for (unsigned Slot = 0; Slot < std::max(1u, Place.size()); ++Slot) {
    Place.pin(Slot);
    double S = Spans.timed("workloads.buildWorkload.batch", [&] {
                 for (int I = 0; I < Batch; ++I)
                   Prog = workloads::buildWorkload(Info, Scale);
               }) /
               Batch;
    Best = Slot == 0 ? S : std::min(Best, S);
  }
  Place.unpin();
  Out.push_back(Best);
  return Prog;
}

/// One round's timings, taken within a few seconds of each other on the
/// same CPU slot.
struct RoundTimes {
  double Pin = 0, Sp = 0, Mp = 0, MpCpu = 0;
};

/// The wall-clock metrics are ratios of configurations paired within a
/// round, reported as the median over rounds. Other tenants of a shared
/// host slow every configuration in a round alike, by up to 2x and for
/// seconds to minutes, so the absolute times of one run track the
/// neighbours while the paired ratios track the program. The absolute
/// times are printed as text; the traced pass reports them as metrics.
/// Round R pins every configuration's (sim) thread to CPU slot R, so the
/// rounds cover every CPU. Set-up reports the median of one set-up sample
/// per round.
std::vector<Metric> endToEnd(const Context &C, const Placement &Place,
                             std::vector<double> &SetupS, double Seconds,
                             Oracle &O, SpanLog &Spans) {
  os::Ticks NativeTicks = pin::runNative(C.Prog, C.Model, C.InstCost).WallTicks;
  sp::SpOptions SerialOpts = C.spOptions(0);

  std::vector<RoundTimes> Rounds;
  PinRun RefPin;
  SpRun RefSp;
  Clock::time_point T0 = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    timeSetup(C.Info, Place, Spans, SetupS);
    Place.pin(Round);
    sp::SpOptions MpOpts = C.spOptions(C.Workers);
    MpOpts.HostJobHook = Place.workerHook(Round);
    RoundTimes T;
    // Rotate the order so no configuration always runs first (or right
    // after the most memory-hungry one). Round 0 runs pin, sp, spmp, which
    // fixes the references the later checks compare against.
    for (unsigned K = 0; K < 3; ++K) {
      switch ((Round + K) % 3) {
      case 0: {
        PinRun P;
        T.Pin = Spans.timed("pin.runSerialPin", [&] { P = runPin(C); });
        checkPin(O, C, P);
        if (Round == 0)
          RefPin = P;
        else
          O.check(P.Rep.WallTicks == RefPin.Rep.WallTicks &&
                      P.Rep.FiniOutput == RefPin.Rep.FiniOutput,
                  "serial Pin is deterministic");
        break;
      }
      case 1: {
        SpRun S;
        T.Sp = Spans.timed("superpin.runSuperPin.serial",
                           [&] { S = runSp(C, SerialOpts); });
        checkSp(O, C, RefPin, S, "serial SuperPin");
        if (Round == 0)
          RefSp = S;
        else
          O.check(S.Rep.WallTicks == RefSp.Rep.WallTicks,
                  "serial SuperPin WallTicks are deterministic");
        break;
      }
      case 2: {
        SpRun S;
        double Cpu0 = cpuSeconds();
        T.Mp = Spans.timed("superpin.runSuperPin.spmp",
                           [&] { S = runSp(C, MpOpts); });
        T.MpCpu = cpuSeconds() - Cpu0;
        checkSp(O, C, RefPin, S, "spmp SuperPin");
        O.check(S.Rep.WallTicks == RefSp.Rep.WallTicks,
                "spmp WallTicks == serial SuperPin's");
        O.check(S.Rep.HostWorkers == C.Workers,
                "spmp ran on the requested worker count");
        break;
      }
      }
    }
    Place.unpin();
    Rounds.push_back(T);
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - T0).count();
    if (Round + 1 >= std::max(3u, Place.size()) && Elapsed >= Seconds)
      break;
  }

  auto Each = [&](auto F) {
    std::vector<double> V;
    for (const RoundTimes &T : Rounds)
      V.push_back(F(T));
    return V;
  };
  std::vector<double> PinS = Each([](const RoundTimes &T) { return T.Pin; });
  std::vector<double> SpS = Each([](const RoundTimes &T) { return T.Sp; });
  std::vector<double> MpS = Each([](const RoundTimes &T) { return T.Mp; });
  std::vector<double> CpuS =
      Each([](const RoundTimes &T) { return T.MpCpu; });
  std::vector<double> Speedup =
      Each([](const RoundTimes &T) { return T.Pin / T.Mp; });
  std::vector<double> Scaling =
      Each([](const RoundTimes &T) { return T.Sp / T.Mp; });
  std::vector<double> CpuVsPin =
      Each([](const RoundTimes &T) { return T.MpCpu / T.Pin; });
  double Native = static_cast<double>(NativeTicks);
  double FailRate = static_cast<double>(O.Failed) /
                    static_cast<double>(O.Attempted ? O.Attempted : 1);
  std::vector<Metric> M = {
      {"setup_s", median(SetupS), "s",
       "workloads::buildWorkload, " + describe(SetupS)},
      {"spmp_speedup_vs_pin", median(Speedup), "x",
       "pin / spmp wall per round, " + describe(Speedup)},
      {"spmp_scaling", median(Scaling), "x",
       "sp / spmp wall per round, " + describe(Scaling)},
      {"spmp_cpu_vs_pin", median(CpuVsPin), "x",
       "spmp user+sys / pin wall per round, " + describe(CpuVsPin)},
      {"peak_rss_mb", peakRssMb(), "MB", "whole process"},
      {"sp_virt_slowdown", static_cast<double>(RefSp.Rep.WallTicks) / Native,
       "x", "virtual ticks vs native"},
      {"pin_virt_slowdown",
       static_cast<double>(RefPin.Rep.WallTicks) / Native, "x",
       "virtual ticks vs native"},
  };
  const std::pair<const char *, const std::vector<double> *> Abs[] = {
      {"pin_wall_s", &PinS},
      {"sp_wall_s", &SpS},
      {"spmp_wall_s", &MpS},
      {"spmp_cpu_s", &CpuS}};
  for (const auto &[Name, V] : Abs)
    std::printf("%-30s %-14.6g %-8s (%s; not a metric of this pass)\n", Name,
                median(*V), "s", describe(*V).c_str());
  std::printf("%-30s %-14.6g %-8s (%" PRIu64 " of %" PRIu64
              " checks failed; reported as failed/attempted)\n",
              "fail_rate", FailRate, "ratio", O.Failed, O.Attempted);
  return M;
}

//===----------------------------------------------------------------------===//
// Traced per-layer pass (--trace 1)
//===----------------------------------------------------------------------===//

/// Collects trace heads: the VM emits a JitCompile instant from dispatch()
/// while the process pc still addresses the trace being compiled.
class HeadSink : public obs::TraceSink {
public:
  HeadSink(const os::Process &Proc, std::vector<uint64_t> &Heads)
      : Proc(Proc), Heads(Heads) {}

  void push(uint32_t, obs::EventKind K, obs::EventPhase, os::Ticks,
            uint64_t) override {
    if (K == obs::EventKind::JitCompile)
      Heads.push_back(Proc.Cpu.Pc);
  }

private:
  const os::Process &Proc;
  std::vector<uint64_t> &Heads;
};

struct PinVmProbe {
  double Seconds = 0;
  uint64_t Insts = 0;
  uint64_t AnalysisCalls = 0;
  double HitRatio = 0;
  std::string Fini;
  std::vector<uint64_t> Heads;
};

/// One whole-program PinVm::run loop with the workload's tool, servicing
/// syscalls as the serial-Pin runner does.
PinVmProbe probePinVm(const Context &C, SpanLog &Spans) {
  PinVmProbe R;
  os::Process Proc = os::Process::create(C.Prog);
  pin::SpServices Services;
  std::unique_ptr<pin::Tool> T = tools::makeIcountTool(C.W.Tool)(Services);
  pin::CodeCache Cache;
  HeadSink Sink(Proc, R.Heads);
  pin::PinVmConfig Cfg;
  Cfg.InstCost = C.InstCost;
  Cfg.Trace = &Sink;
  pin::PinVm Vm(Proc, C.Model, T.get(), Cache, Cfg);
  os::TickLedger Ledger;
  std::string Output;
  R.Seconds = Spans.timed("pin.PinVm.run", [&] {
    while (Proc.Status == os::ProcStatus::Running) {
      Ledger.beginStep(~os::Ticks(0) / 4);
      pin::VmStop Stop = Vm.run(Ledger);
      if (Stop == pin::VmStop::BadPc)
        break;
      if (Stop != pin::VmStop::Syscall)
        continue;
      T->onSyscall(os::pendingSyscallNumber(Proc));
      os::SystemContext Ctx;
      Ctx.NowMs = Vm.retired() / 1000;
      Ctx.OutputBuf = &Output;
      os::serviceSyscall(Proc, Ctx, nullptr);
      Vm.noteSyscallRetired();
    }
  });
  R.Insts = Vm.retired();
  R.AnalysisCalls = Vm.analysisCalls();
  R.HitRatio = Cache.lookups()
                   ? 1.0 - static_cast<double>(Cache.misses()) /
                               static_cast<double>(Cache.lookups())
                   : 0;
  RawStringOstream OS(R.Fini);
  T->onFini(OS);
  return R;
}

/// Runs the program to exit on the plain interpreter and returns the
/// end-state process (memory as the master leaves it).
os::Process endState(const Context &C) {
  os::Process Proc = os::Process::create(C.Prog);
  vm::Interpreter Interp(C.Prog, Proc.Cpu, Proc.Mem);
  std::string Output;
  while (Proc.Status == os::ProcStatus::Running) {
    vm::RunResult R = Interp.run(~uint64_t(0) / 4);
    if (R.Reason != vm::StopReason::Syscall)
      break;
    os::SystemContext Ctx;
    Ctx.NowMs = Interp.instructionsRetired() / 1000;
    Ctx.OutputBuf = &Output;
    os::serviceSyscall(Proc, Ctx, nullptr);
    Interp.noteSyscallRetired();
  }
  return Proc;
}

/// Median over \p Reps batches of the per-operation time of \p Ops calls
/// of \p F, in seconds.
template <typename Fn>
double perOp(SpanLog &Spans, const char *Name, unsigned Reps, uint64_t Ops,
             Fn &&F) {
  std::vector<double> S;
  Spans.timed(Name, [&] {
    for (unsigned R = 0; R < Reps; ++R) {
      Clock::time_point T0 = Clock::now();
      for (uint64_t I = 0; I < Ops; ++I)
        F(I);
      S.push_back(std::chrono::duration<double>(Clock::now() - T0).count() /
                  static_cast<double>(Ops));
    }
  });
  return median(S);
}

/// Share of the summed worker lifetimes spent in \p K.
double workerShare(const obs::HostAttribution &A, obs::HostSpanKind K) {
  uint64_t Life = 0;
  for (const obs::HostLaneAttribution &L : A.Workers)
    Life += L.LifetimeNs;
  return Life ? static_cast<double>(A.totalNs(K)) / static_cast<double>(Life)
              : 0;
}

/// Counts copy-on-write page copies.
class CowCounter : public vm::MemoryEventListener {
public:
  void onCowCopy(uint64_t) override { ++Copies; }
  uint64_t Copies = 0;
};

/// Runs the per-layer measurements; \p LastHT receives the host recorder
/// of the last traced -spmp run, for the trace file.
std::vector<Metric> perLayer(const Context &C, double Seconds, Oracle &O,
                             SpanLog &Spans,
                             std::unique_ptr<obs::HostTraceRecorder> &LastHT) {
  Clock::time_point T0 = Clock::now();
  std::vector<Metric> M;

  // vm: interpreter rate, counted locally from runDirect's own retired
  // count (not an accumulated benchmark counter).
  std::vector<double> Rates;
  for (int I = 0; I < 3; ++I) {
    os::DirectRunResult D;
    double S = Spans.timed("os.runDirect", [&] { D = os::runDirect(C.Prog); });
    O.check(D.Insts == C.Direct.Insts, "runDirect is deterministic");
    Rates.push_back(static_cast<double>(D.Insts) / S / 1e6);
  }
  M.push_back({"vm.interp.minst_per_s", median(Rates), "Minst/s",
               "os::runDirect"});

  // vm: GuestMemory over the workload's working set, random word order.
  const uint64_t Ws = C.Info.Params.WorkingSetBytes;
  const uint64_t Base = vm::AddressLayout::DataBase;
  const uint64_t WordMask = Ws / 8 - 1;
  vm::GuestMemory Mem;
  for (uint64_t A = 0; A < Ws; A += 8)
    Mem.write64(Base + A, A | 1);
  auto Addr = [&](uint64_t I) {
    return Base + (((I * 0x9e3779b97f4a7c15ULL) >> 17) & WordMask) * 8;
  };
  uint64_t Sum = 0;
  constexpr uint64_t MemOps = 1 << 18;
  double ReadNs = perOp(Spans, "vm.GuestMemory.read64", 9, MemOps,
                        [&](uint64_t I) { Sum += Mem.read64(Addr(I)); }) *
                  1e9;
  double WriteNs = perOp(Spans, "vm.GuestMemory.write64", 9, MemOps,
                         [&](uint64_t I) { Mem.write64(Addr(I), I); }) *
                   1e9;
  // Every word read is odd, so the sum also shows no read was skipped.
  O.check(Sum >= 9 * MemOps, "read64 returned the written words");
  M.push_back({"vm.mem.read64_ns", ReadNs, "ns", "random words over WS"});
  M.push_back({"vm.mem.write64_ns", WriteNs, "ns", "random words over WS"});

  // os: fork, deep-copy snapshot and COW copies on the end-state process.
  os::Process End = endState(C);
  O.check(End.Status == os::ProcStatus::Exited, "end-state run exited");
  M.push_back({"vm.mem.pages", static_cast<double>(End.Mem.numPages()),
               "count", "end-state process"});
  double ForkUs = perOp(Spans, "os.Process.fork", 9, 64, [&](uint64_t) {
                    os::Process Child = End.fork(2);
                  }) * 1e6;
  double SnapUs = perOp(Spans, "os.Process.snapshot", 9, 4, [&](uint64_t) {
                    os::Process Copy = End.snapshot(2);
                  }) * 1e6;
  std::vector<double> CowUs;
  Spans.timed("os.cow_copy", [&] {
    for (int R = 0; R < 15; ++R) {
      os::Process Child = End.fork(2);
      CowCounter Counter;
      Child.Mem.setListener(&Counter);
      Clock::time_point T = Clock::now();
      for (uint64_t A = Base; A < Base + Ws; A += vm::PageSize)
        Child.Mem.write64(A, R);
      double S = std::chrono::duration<double>(Clock::now() - T).count();
      Child.Mem.setListener(nullptr);
      if (Counter.Copies)
        CowUs.push_back(S * 1e6 / static_cast<double>(Counter.Copies));
    }
  });
  O.check(!CowUs.empty(), "child writes took the COW path");
  M.push_back({"os.fork_us", ForkUs, "us", "Process::fork"});
  M.push_back({"os.snapshot_us", SnapUs, "us", "Process::snapshot"});
  M.push_back({"os.cow_copy_us_per_page", median(CowUs), "us",
               "child write per shared page"});

  // superpin: signature record and the full layered check at a match.
  sp::SliceSignature Sig;
  double RecordUs = perOp(Spans, "superpin.recordSignature", 9, 256,
                          [&](uint64_t) {
                            Sig = sp::recordSignature(End, false);
                          }) * 1e6;
  sp::SignatureStats SigStats;
  os::TickLedger Ledger;
  Ledger.beginStep(~os::Ticks(0) / 4);
  uint64_t Matches = 0;
  double CheckNs =
      perOp(Spans, "superpin.checkSignature", 9, 1 << 14, [&](uint64_t) {
        Matches += sp::checkSignature(Sig, End, C.Model, true,
                                      End.quantumLeft(), Ledger, SigStats);
      }) * 1e9;
  O.check(Matches == SigStats.QuickChecks, "signature matches its own state");
  M.push_back({"superpin.sig.record_us", RecordUs, "us", "recordSignature"});
  M.push_back({"superpin.sig.check_ns", CheckNs, "ns",
               "checkSignature, all layers at a match"});

  // pin: the instrumented VM with the workload's tool, then compileTrace
  // over the trace heads that run compiled.
  PinRun Ref;
  Spans.timed("pin.runSerialPin", [&] { Ref = runPin(C); });
  checkPin(O, C, Ref);
  std::vector<double> VmRates;
  PinVmProbe Probe;
  for (int I = 0; I < 2; ++I) {
    Probe = probePinVm(C, Spans);
    O.check(Probe.Insts == C.Direct.Insts, "PinVm::run insts == runDirect");
    O.check(Probe.Fini == Ref.Rep.FiniOutput, "PinVm::run tool output");
    VmRates.push_back(static_cast<double>(Probe.Insts) / Probe.Seconds / 1e6);
  }
  M.push_back({"pin.vm.minst_per_s", median(VmRates), "Minst/s",
               std::string("PinVm::run with ") + C.W.ToolName});
  M.push_back({"pin.cache.hit_ratio", Probe.HitRatio, "ratio",
               "1 - misses / lookups"});
  M.push_back({"tools.analysis_calls_per_inst",
               static_cast<double>(Probe.AnalysisCalls) /
                   static_cast<double>(Probe.Insts),
               "ratio", C.W.ToolName});
  pin::SpServices Services;
  std::unique_ptr<pin::Tool> CompileTool =
      tools::makeIcountTool(C.W.Tool)(Services);
  uint64_t Steps = 0;
  const std::vector<uint64_t> &Heads = Probe.Heads;
  double CompileUs =
      perOp(Spans, "pin.compileTrace", 9, Heads.size(), [&](uint64_t I) {
        Steps += pin::compileTrace(C.Prog, Heads[I], C.Model,
                                   CompileTool.get())
                     ->Steps.size();
      }) * 1e6;
  O.check(!Heads.empty() && Steps > 0, "trace heads compiled");
  M.push_back({"pin.compile_us_per_trace", CompileUs, "us",
               std::to_string(Heads.size()) + " trace heads"});

  // Each layer's entry call untraced (serial Pin, serial SuperPin and
  // -spmp), then a traced -spmp run, until the run's time is spent.
  sp::SpOptions MpOpts = C.spOptions(C.Workers);
  std::vector<double> PinS, SpS, Untraced, UntracedCpu;
  std::vector<double> Traced, SimUnattr, BodyMs;
  std::vector<double> IdleShare, DispatchShare, MergeShare;
  SpRun First;
  for (int Pair = 0;; ++Pair) {
    PinRun P;
    PinS.push_back(Spans.timed("pin.runSerialPin", [&] { P = runPin(C); }));
    checkPin(O, C, P);
    SpRun Serial;
    SpS.push_back(Spans.timed("superpin.runSuperPin.serial",
                              [&] { Serial = runSp(C, C.spOptions(0)); }));
    checkSp(O, C, Ref, Serial, "serial SuperPin");
    SpRun U;
    double Cpu0 = cpuSeconds();
    Untraced.push_back(Spans.timed("superpin.runSuperPin.spmp",
                                   [&] { U = runSp(C, MpOpts); }));
    UntracedCpu.push_back(cpuSeconds() - Cpu0);
    checkSp(O, C, Ref, U, "spmp (untraced)");

    auto HTOwner = std::make_unique<obs::HostTraceRecorder>();
    obs::HostTraceRecorder &HT = *HTOwner;
    sp::SpOptions TOpts = MpOpts;
    TOpts.HostTrace = &HT;
    SpRun S;
    double Wall = Spans.timed("superpin.runSuperPin.spmp.traced",
                              [&] { S = runSp(C, TOpts); });
    checkSp(O, C, Ref, S, "spmp (traced)");
    O.check(S.Rep.WallTicks == U.Rep.WallTicks,
            "host tracing leaves virtual time unchanged");
    O.check(HT.droppedSpans() == 0, "host trace kept every span");
    Traced.push_back(Wall);
    uint64_t SimNs = 0;
    for (const obs::HostSpan &Sp : HT.spanSnapshot(HT.simLane()))
      if (Sp.Kind == obs::HostSpanKind::SimReplay ||
          Sp.Kind == obs::HostSpanKind::SimRetire)
        SimNs += Sp.EndNs - Sp.BeginNs;
    SimUnattr.push_back(Wall - static_cast<double>(SimNs) * 1e-9);
    for (unsigned L = 0; L < HT.workers(); ++L)
      for (const obs::HostSpan &Sp : HT.spanSnapshot(L))
        if (Sp.Kind == obs::HostSpanKind::Body)
          BodyMs.push_back(static_cast<double>(Sp.EndNs - Sp.BeginNs) * 1e-6);
    IdleShare.push_back(workerShare(S.Rep.HostAttr, obs::HostSpanKind::Idle));
    DispatchShare.push_back(
        workerShare(S.Rep.HostAttr, obs::HostSpanKind::DispatchWait));
    MergeShare.push_back(
        workerShare(S.Rep.HostAttr, obs::HostSpanKind::MergeWait));
    if (Pair == 0)
      First = S;
    else
      O.check(S.Rep.WallTicks == First.Rep.WallTicks,
              "spmp WallTicks are deterministic");
    LastHT = std::move(HTOwner);
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - T0).count();
    // >= 200 body samples keep >= 10 beyond the reported p95.
    if (Pair + 1 >= 3 && BodyMs.size() >= 200 && Elapsed >= Seconds)
      break;
  }

  const sp::SpRunReport &R = First.Rep;
  std::string NB = std::to_string(BodyMs.size()) + " bodies";
  M.push_back({"pin_wall_s", median(PinS), "s",
               "pin::runSerialPin, " + describe(PinS)});
  M.push_back({"sp_wall_s", median(SpS), "s",
               "sp::runSuperPin serial, " + describe(SpS)});
  M.push_back({"spmp_wall_s", median(Untraced), "s",
               "sp::runSuperPin -spmp, " + describe(Untraced)});
  M.push_back({"spmp_cpu_s", median(UntracedCpu), "s",
               "user+sys of -spmp, " + describe(UntracedCpu)});
  M.push_back({"os.cow_copies.master", static_cast<double>(R.MasterCowCopies),
               "count", "SpRunReport"});
  M.push_back({"os.cow_copies.slice", static_cast<double>(R.SliceCowCopies),
               "count", "SpRunReport"});
  M.push_back({"pin.traces_compiled", static_cast<double>(R.TracesCompiled),
               "count", "all slices, SpRunReport"});
  M.push_back({"superpin.sig.full_check_ratio",
               R.Signature.QuickChecks
                   ? static_cast<double>(R.Signature.FullChecks) /
                         static_cast<double>(R.Signature.QuickChecks)
                   : 0,
               "ratio", "full / quick checks"});
  M.push_back({"superpin.slices", static_cast<double>(R.NumSlices), "count",
               "SpRunReport"});
  M.push_back({"superpin.sim_unattributed_s", median(SimUnattr), "s",
               "traced wall - sim SimReplay/SimRetire spans"});
  M.push_back({"host.body_ms.p50", percentile(BodyMs, 50), "ms", NB});
  M.push_back({"host.body_ms.p95", percentile(BodyMs, 95), "ms", NB});
  M.push_back({"host.idle_share", median(IdleShare), "ratio",
               "of worker lifetime"});
  M.push_back({"host.dispatch_wait_share", median(DispatchShare), "ratio",
               "of worker lifetime"});
  M.push_back({"host.merge_wait_share", median(MergeShare), "ratio",
               "of worker lifetime"});
  M.push_back({"host.stream_events", static_cast<double>(R.HostStreamEvents),
               "count", "SpRunReport"});
  M.push_back({"host.arena_bytes", static_cast<double>(R.HostArenaBytes), "B",
               "peak single-stream arena"});
  M.push_back({"host.fallback_slices",
               static_cast<double>(R.HostFallbackSlices), "count",
               "SpRunReport"});
  M.push_back({"trace.overhead_s", median(Traced) - median(Untraced), "s",
               "traced - untraced spmp wall, " +
                   std::to_string(Traced.size()) + " pairs"});
  return M;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void jsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      std::fputc('\\', F);
    std::fputc(Ch, F);
  }
  std::fputc('"', F);
}

/// Writes the benchmark spans (pid 1) and the last traced run's host
/// recorder lanes (pid 2) as one Chrome trace-event document.
bool writeChromeTrace(const std::string &Path, const SpanLog &Spans,
                      const obs::HostTraceRecorder *HT, uint64_t HostOffsetNs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(F, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"args\":{\"name\":\"perfbench\"}}");
  const std::vector<SpanLog::Span> &S = Spans.spans();
  for (size_t I = 0; I < S.size(); ++I) {
    std::fprintf(F, ",\n{\"name\":");
    jsonString(F, S[I].Name);
    std::fprintf(F,
                 ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 S[I].BeginNs / 1e3, (S[I].EndNs - S[I].BeginNs) / 1e3, I,
                 S[I].Parent);
  }
  if (HT) {
    std::fprintf(F, ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                    "\"args\":{\"name\":\"host (last traced spmp run)\"}}");
    for (unsigned L = 0; L < HT->lanes(); ++L) {
      std::fprintf(F, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
                      "\"tid\":%u,\"args\":{\"name\":",
                   L);
      jsonString(F, HT->laneName(L));
      std::fprintf(F, "}}");
      for (const obs::HostSpan &Sp : HT->spanSnapshot(L))
        std::fprintf(F,
                     ",\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                     "\"pid\":2,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"slice\":%" PRIu64 "}}",
                     obs::hostSpanName(Sp.Kind), L,
                     (Sp.BeginNs + HostOffsetNs) / 1e3,
                     (Sp.EndNs - Sp.BeginNs) / 1e3, Sp.Arg);
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

void printResult(const Oracle &O, const std::vector<Metric> &M) {
  for (const Metric &X : M)
    std::printf("%-30s %-14.6g %-8s %s\n", X.Name.c_str(), X.Value, X.Unit,
                X.Note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              O.Failed == 0 ? "true" : "false", O.Attempted, O.Failed);
  for (size_t I = 0; I < M.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M[I].Name.c_str(), M[I].Value, M[I].Unit);
  std::printf("}}\n");
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "codefoot|memchase|toolheavy [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\n",
               Msg);
  std::exit(2);
}

uint64_t parseUnsigned(const char *Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || Text[0] == '-')
    usage((std::string("bad value for ") + Flag + ": " + Text).c_str());
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, TraceOut;
  uint64_t Seed = 0, Seconds = 10, Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      Name = V;
    else if (Flag == "--seed")
      Seed = parseUnsigned("--seed", V);
    else if (Flag == "--seconds")
      Seconds = parseUnsigned("--seconds", V);
    else if (Flag == "--trace")
      Trace = parseUnsigned("--trace", V);
    else if (Flag == "--trace-out")
      TraceOut = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  const BenchWorkload *W = nullptr;
  for (const BenchWorkload &Cand : Workloads)
    if (Name == Cand.Name)
      W = &Cand;
  if (!W)
    usage(("unknown workload '" + Name + "'").c_str());
  if (Trace > 1)
    usage("--trace must be 0 or 1");

  // The seed perturbs only the generator seed (seed 0 keeps the suite's):
  // trace counts change, instruction and slice counts do not.
  workloads::WorkloadInfo Info = workloads::findWorkload(W->Program);
  Info.Params.Seed ^= Seed * 0x9e3779b97f4a7c15ULL;

  SpanLog Spans(Trace == 1);
  Placement Place;
  IdleSpinners Spinners(Place);
  std::vector<double> SetupS;
  vm::Program Prog = timeSetup(Info, Place, Spans, SetupS);

  unsigned Cores = std::max(1u, Place.size());
  Context C{*W, Info, std::move(Prog), os::CostModel(), 0,
            Cores > 1 ? Cores - 1 : 1, {}};
  C.InstCost = static_cast<os::Ticks>(
      std::llround(Info.Cpi * static_cast<double>(C.Model.TicksPerInst)));
  Spans.timed("os.runDirect", [&] { C.Direct = os::runDirect(C.Prog); });

  std::printf("perfbench: workload %s (%s + %s), seed %" PRIu64
              ", scale %.1f, -spmsec %" PRIu64 " -spslices %u, nproc %u, "
              "W %u, %s pass\n",
              W->Name, W->Program, W->ToolName, Seed, Scale, SliceMs,
              MaxSlices, Cores, C.Workers, Trace ? "traced" : "end-to-end");
  Oracle O;
  O.check(C.Direct.Exited, "runDirect reached exit");
  std::vector<Metric> M;
  if (Trace == 0) {
    M = endToEnd(C, Place, SetupS, static_cast<double>(Seconds), O, Spans);
  } else {
    std::unique_ptr<obs::HostTraceRecorder> LastHT;
    M = perLayer(C, static_cast<double>(Seconds), O, Spans, LastHT);
    if (!TraceOut.empty()) {
      // The recorder's epoch is its construction; it was built after the
      // span log, so its offset is recovered from the two clocks now.
      uint64_t Offset = Spans.nowNs() - LastHT->nowNs();
      if (!writeChromeTrace(TraceOut, Spans, LastHT.get(), Offset)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", TraceOut.c_str());
        return 1;
      }
      std::printf("trace: %s\n", TraceOut.c_str());
    }
  }
  printResult(O, M);
  std::fflush(stdout);
  return 0;
}

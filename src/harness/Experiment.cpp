//===- harness/Experiment.cpp - Benchmark experiment runner --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "support/Compiler.h"

#include <cmath>

using namespace rio;

const char *rio::clientKindName(ClientKind Kind) {
  switch (Kind) {
  case ClientKind::None:
    return "base";
  case ClientKind::Null:
    return "null";
  case ClientKind::Inscount:
    return "inscount";
  case ClientKind::Rlr:
    return "loadremoval";
  case ClientKind::StrengthReduce:
    return "inc2add";
  case ClientKind::IBDispatch:
    return "ibdispatch";
  case ClientKind::CustomTraces:
    return "customtraces";
  case ClientKind::AllFour:
    return "all4";
  }
  RIO_UNREACHABLE("bad client kind");
}

ClientBundle::ClientBundle(ClientKind Kind) {
  auto own = [this](std::unique_ptr<Client> C) {
    Top = C.get();
    Owned.push_back(std::move(C));
    return Top;
  };
  switch (Kind) {
  case ClientKind::None:
    Top = nullptr;
    break;
  case ClientKind::Null:
    own(std::make_unique<NullClient>());
    break;
  case ClientKind::Inscount:
    own(std::make_unique<InscountClient>());
    break;
  case ClientKind::Rlr:
    own(std::make_unique<RlrClient>());
    break;
  case ClientKind::StrengthReduce:
    own(std::make_unique<StrengthReduceClient>());
    break;
  case ClientKind::IBDispatch:
    own(std::make_unique<IBDispatchClient>());
    break;
  case ClientKind::CustomTraces:
    own(std::make_unique<CustomTracesClient>());
    break;
  case ClientKind::AllFour: {
    // Order matters mildly: RLR first sees the untouched trace; strength
    // reduction afterwards; the adaptive/custom-trace clients are
    // orthogonal hooks.
    std::vector<Client *> Parts;
    auto add = [&](std::unique_ptr<Client> C) {
      Parts.push_back(C.get());
      Owned.push_back(std::move(C));
    };
    add(std::make_unique<CustomTracesClient>());
    add(std::make_unique<RlrClient>());
    add(std::make_unique<StrengthReduceClient>());
    add(std::make_unique<IBDispatchClient>());
    auto Multi = std::make_unique<MultiClient>(Parts);
    Top = Multi.get();
    Owned.push_back(std::move(Multi));
    break;
  }
  }
}

ClientBundle::~ClientBundle() = default;

Outcome rio::runNativeProgram(const Program &Prog, const CostModel &Cost) {
  MachineConfig MC;
  MC.Cost = Cost;
  Machine M(MC);
  Outcome O;
  if (!loadProgram(M, Prog)) {
    O.Status = RunStatus::Faulted;
    return O;
  }
  while (M.status() == RunStatus::Running)
    M.run(StopSet());
  O.Status = M.status();
  O.ExitCode = M.exitCode();
  O.Output = M.output();
  O.Cycles = M.cycles();
  O.Instructions = M.instructionsExecuted();
  return O;
}

Outcome rio::runUnderRuntime(const Program &Prog, const RuntimeConfig &Config,
                             ClientKind Kind, const CostModel &Cost) {
  MachineConfig MC;
  MC.Cost = Cost;
  Machine M(MC);
  Outcome O;
  if (!loadProgram(M, Prog)) {
    O.Status = RunStatus::Faulted;
    return O;
  }
  ClientBundle Bundle(Kind);
  Runtime RT(M, Config, Bundle.client());
  RunResult R = RT.run();
  O.Status = R.Status;
  O.ExitCode = R.ExitCode;
  O.Output = M.output();
  O.Cycles = R.Cycles;
  O.Instructions = R.Instructions;
  O.Stats = RT.stats();
  return O;
}

NormalizedRun rio::measure(const Workload &W, const RuntimeConfig &Config,
                           ClientKind Kind, int Scale, const CostModel &Cost) {
  Program Prog = buildWorkload(W, Scale);
  NormalizedRun R;
  R.Native = runNativeProgram(Prog, Cost);
  R.Rio = runUnderRuntime(Prog, Config, Kind, Cost);
  R.Transparent = R.Native.Status == RunStatus::Exited &&
                  R.Rio.Status == RunStatus::Exited &&
                  R.Native.Output == R.Rio.Output &&
                  R.Native.ExitCode == R.Rio.ExitCode;
  R.Normalized = R.Native.Cycles
                     ? double(R.Rio.Cycles) / double(R.Native.Cycles)
                     : 0.0;
  return R;
}

double rio::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

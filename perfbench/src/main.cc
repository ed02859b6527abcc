/// \file main.cc
/// \brief The benchmark binary: runs one workload and writes its raw
/// figures (and, traced, its spans) for run.py.
///
///   perfbench --workload cov-4t|cart-1t|serve-mixed --seed N --seconds S
///             --trace 0|1 --out RAW.json [--trace-out TRACE.json]
///             [--rate REQUESTS_PER_SECOND] [--cross-check 0|1]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"
#include "util/failpoint.h"
#include "workloads.h"

namespace {

using perfbench::Args;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cov-4t|cart-1t|serve-mixed --seed N --seconds S --trace 0|1 "
               "--out RAW.json [--trace-out TRACE.json] [--rate R] "
               "[--cross-check 0|1]\n",
               message);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--rate") {
      args.rate = std::strtod(value, nullptr);
    } else if (flag == "--cross-check") {
      args.cross_check = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.out_path.empty() || !(args.seconds > 0.0)) {
    return Usage("--out and a positive --seconds are required");
  }
  if (args.trace && args.trace_path.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }

  // The environment must not change what is measured: injected faults
  // would turn a speed figure into a robustness test.
  const char* failpoints = std::getenv("LMFAO_FAILPOINTS");
  if ((failpoints != nullptr && failpoints[0] != '\0') ||
      lmfao::Failpoints::enabled()) {
    std::fprintf(stderr, "perfbench: refusing to run with LMFAO_FAILPOINTS "
                         "armed\n");
    return 3;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && perfbench::kThreadBudget > static_cast<int>(cores)) {
    std::fprintf(stderr,
                 "perfbench: workloads use %d threads but only %u cores are "
                 "available\n",
                 perfbench::kThreadBudget, cores);
    return 3;
  }

  if (args.trace) perfbench::Tracer::Get().Enable();
  perfbench::RawRecord raw;
  if (args.workload == "cov-4t") {
    perfbench::RunCov(args, &raw);
  } else if (args.workload == "cart-1t") {
    perfbench::RunCart(args, &raw);
  } else if (args.workload == "serve-mixed") {
    perfbench::RunServe(args, &raw);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!raw.Write(args.out_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out_path.c_str());
    return 2;
  }
  if (args.trace &&
      !perfbench::Tracer::Get().WriteChromeTrace(args.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_path.c_str());
    return 2;
  }
  return 0;
}

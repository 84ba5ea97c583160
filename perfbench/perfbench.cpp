// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload service_zipf|solve_regular|solve_regular_sharded
//             --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//
// Builds the workload's inputs from the seed, measures for S seconds through
// the library's public API, checks every output, and prints one JSON object
// as its last line: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs (--trace 1) record spans
// around calls into each module and report the per-layer metrics. --smoke
// shrinks the solve inputs so the benchmark's own tests run in seconds.
// perfbench/run.py builds this program and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Report;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n");
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() != "0";
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--trace-out") opt.trace_out = next();
    else usage();
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) usage();
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::tracer().set_enabled(opt.trace);
  Report report;
  try {
    if (opt.workload == "service_zipf") {
      report = perfbench::run_service_zipf(opt);
    } else if (opt.workload == "solve_regular") {
      report = perfbench::run_solve(opt, false);
    } else if (opt.workload == "solve_regular_sharded") {
      report = perfbench::run_solve(opt, true);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    perfbench::tracer().set_enabled(false);
    const auto spans = perfbench::tracer().spans();
    report.add("trace.spans", static_cast<double>(spans.size()), "count");
    if (!opt.trace_out.empty() &&
        !perfbench::tracer().write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }

  for (const auto& m : report.metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}

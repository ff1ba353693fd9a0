// The end-to-end benchmark binary. One process runs one workload:
//
//   perfbench --workload <paper_tasks|block_corpus|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// and prints one JSON result line last on stdout. It exits 1 when a
// check fails (the result line then says "correct": false) and 2 on bad
// arguments. See ../README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  ProcessStart();
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--trace-out") {
      cfg.trace_path = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0.0)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  Tracer tracer(cfg.trace);
  Result r;
  if (cfg.workload == "paper_tasks") {
    r = RunPaperTasks(cfg, &tracer);
  } else if (cfg.workload == "block_corpus") {
    r = RunBlockCorpus(cfg, &tracer);
  } else if (cfg.workload == "serve_mixed") {
    r = RunServeMixed(cfg, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (cfg.trace && !cfg.trace_path.empty() &&
      !tracer.WriteJson(cfg.trace_path, r.details)) {
    r.Fail("could not write the trace file " + cfg.trace_path);
  }
  PrintResult(&r);
  return r.correct() ? 0 : 1;
}

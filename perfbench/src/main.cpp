// ofmf_bench --workload <poll_read|compose_churn|federated_read> --seed <n>
//            --seconds <s> --trace <0|1> [--source-id <id>] [--work-dir <dir>]
//
// Builds the named workload's stack, measures it and prints the report; the
// last stdout line is the JSON result. Exit code 0 only when every op
// succeeded and every output check passed.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  utsname host{};
  ::uname(&host);
  report.Stamp("workload", options.workload);
  report.Stamp("seed", std::to_string(options.seed));
  report.Stamp("seconds", std::to_string(options.seconds));
  report.Stamp("trace", options.trace ? "1" : "0");
  report.Stamp("source", options.source_id);
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Stamp("kernel", std::string(host.sysname) + " " + host.release);
  report.Stamp("transport", "loopback TCP");

  if (options.workload == "poll_read") {
    perfbench::RunPollRead(options, report);
  } else if (options.workload == "compose_churn") {
    perfbench::RunComposeChurn(options, report);
  } else if (options.workload == "federated_read") {
    perfbench::RunFederatedRead(options, report);
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (poll_read|compose_churn|federated_read)\n",
                 options.workload.c_str());
    return 2;
  }
  return report.Finish(options.trace);
}

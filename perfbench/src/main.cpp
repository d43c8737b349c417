// perfbench binary: runs one workload and prints a host record line
// followed by the result line (see perfbench/NOTES.md).
//
//   perfbench --workload <mcast-64B|session-table|failover> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  RunArgs a;
  a.process_start = mono_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.work_dir.empty() || !(a.seconds > 0)) {
    std::fprintf(stderr, "need --work-dir and --seconds > 0\n");
    return 2;
  }
  std::filesystem::create_directories(a.work_dir);

  Result r;
  if (a.workload == "mcast-64B") {
    run_mcast(a, r);
  } else if (a.workload == "session-table") {
    run_session_table(a, r);
  } else if (a.workload == "failover") {
    run_failover(a, r);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("%s\n", host_record(a.workload, a.seed, a.seconds, a.trace).c_str());
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", r.to_json().c_str());
  return r.correct ? 0 : 1;
}

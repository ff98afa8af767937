// rcbr_perfbench: the repository benchmark (see README.md).
//
//   rcbr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--span-dir <dir>]
//   rcbr_perfbench --check decorator --seed <n>
//
// A run prints its figures as text and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status 0 means the run completed (its checks may still have
// failed; `correct` says); 2 means bad arguments or a run that could not
// be carried out.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "rcbr_perfbench: %s\n"
               "usage: rcbr_perfbench --workload "
               "<mbac_multihop|capacity_churn|daemon_loopback|dp_offline> "
               "--seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]\n"
               "       rcbr_perfbench --check decorator --seed <n>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t ParseSeed(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    Usage("--seed must be a non-negative integer");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) Usage("--seed out of range");
  return v;
}

double ParseSeconds(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v) ||
      v <= 0 || v > 600) {
    Usage("--seconds must be a number in (0, 600]");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string check;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseSeed(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = ParseSeconds(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else if (flag == "--check") {
      check = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed) Usage("--seed is required");

  try {
    if (!check.empty()) {
      if (check != "decorator") Usage("unknown check " + check);
      const bool ok = perfbench::CheckDecoratorIdentity(args.seed);
      std::printf("check %s seed %llu: %s\n", check.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  ok ? "PASS" : "FAIL");
      return ok ? 0 : 1;
    }

    perfbench::Report report;
    if (args.workload == "mbac_multihop") {
      perfbench::RunMbacMultihop(args, report);
    } else if (args.workload == "capacity_churn") {
      perfbench::RunCapacityChurn(args, report);
    } else if (args.workload == "daemon_loopback") {
      perfbench::RunDaemonLoopback(args, report);
    } else if (args.workload == "dp_offline") {
      perfbench::RunDpOffline(args, report);
    } else {
      Usage("unknown workload '" + args.workload + "'");
    }
    report.Print(args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcbr_perfbench: run failed: %s\n", e.what());
    return 2;
  }
}

// perfbench/main.cpp — entry point of the celog benchmark binary.
//
//   celog_perfbench --workload paper-grid --seed 7 --seconds 10 [--trace 1]
//
// Runs one workload in this process and prints, as its last stdout line,
// one JSON object with every metric (value, unit, sample count), the
// attempted/failed operation counts and the run's provenance. perfbench/
// run.py builds this binary, runs it once per workload and maps its output
// onto BENCHMARK.json.
//
// A traced run (--trace 1) runs the workload twice for half the time each:
// untraced, then with spans recorded around every layer call. Per-layer
// metrics and self times come from the traced half; the change of the
// workload's primary time between the halves is the tracing overhead.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace celog;
using namespace celog::perfbench;

constexpr int kUsageExit = 2;
constexpr int kRefusedExit = 3;

void run_workload(const Options& opt, Report& report, Tracer* tracer) {
  try {
    if (opt.workload == "paper-grid") {
      run_paper_grid(opt, report, tracer);
    } else if (opt.workload == "exascale-gen") {
      run_exascale_gen(opt, report, tracer);
    } else if (opt.workload == "fleet-campaign") {
      run_fleet_campaign(opt, report, tracer);
    } else {
      run_serve_mix(opt, report, tracer);
    }
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(std::string("exception: ") + e.what());
  }
}

int usage_error(const Cli& cli, const std::string& why) {
  std::fprintf(stderr, "celog_perfbench: %s\n%s", why.c_str(),
               cli.usage().c_str());
  return kUsageExit;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "celog_perfbench: runs one benchmark workload (paper-grid, "
      "exascale-gen, fleet-campaign, serve-mix) and prints its metrics as "
      "one JSON line");
  cli.add_option("workload", "", "workload name");
  cli.add_option("seed", "1", "workload seed (inputs derive from it)");
  cli.add_option("seconds", "10", "measured time per run");
  cli.add_option("trace", "0", "1 = traced run (per-layer metrics)");
  cli.add_option("trace-out", "", "JSONL file for the traced run's spans");
  cli.add_option("socket", "perfbench.sock", "serve-mix Unix socket path");
  cli.add_option("revision", "unknown", "source revision to record");
  cli.set_quiet(true);

  Options opt;
  std::string revision;
  try {
    if (!cli.parse(argc, argv)) {
      if (cli.error().empty()) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
      }
      return usage_error(cli, cli.error());
    }
    opt.workload = cli.get("workload");
    const std::int64_t seed = cli.get_int("seed");
    opt.seconds = cli.get_double("seconds");
    const std::int64_t trace = cli.get_int("trace");
    if (seed < 0) return usage_error(cli, "--seed must be >= 0");
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
      return usage_error(cli, "--seconds must be in (0, 600]");
    }
    if (trace != 0 && trace != 1) {
      return usage_error(cli, "--trace must be 0 or 1");
    }
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.trace = trace == 1;
    opt.trace_out = cli.get("trace-out");
    opt.socket = cli.get("socket");
    revision = cli.get("revision");
  } catch (const ParseError& e) {
    return usage_error(cli, e.what());
  }
  if (opt.workload != "paper-grid" && opt.workload != "exascale-gen" &&
      opt.workload != "fleet-campaign" && opt.workload != "serve-mix") {
    return usage_error(cli, "unknown --workload '" + opt.workload + "'");
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "celog_perfbench: refusing to record results from a build "
               "without NDEBUG (build type %s); rebuild as Release\n",
               CELOG_PERFBENCH_BUILD_TYPE);
  return kRefusedExit;
#endif

  Report report;
  report.meta("workload", opt.workload);
  report.meta("seed", std::to_string(opt.seed));
  report.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.meta("compiler", __VERSION__);
  report.meta("build_type", CELOG_PERFBENCH_BUILD_TYPE);
  report.meta("revision", revision);
  report.meta("trace", opt.trace ? "1" : "0");

  if (!opt.trace) {
    run_workload(opt, report, nullptr);
  } else {
    Options half = opt;
    half.seconds = opt.seconds / 2.0;
    half.setups = 1;
    Report untraced;
    run_workload(half, untraced, nullptr);
    Tracer tracer;
    run_workload(half, report, &tracer);
    report.attempt(untraced.attempted());
    for (std::uint64_t i = 0; i < untraced.failed(); ++i) {
      report.fail("untraced half of the traced run failed");
    }
    const double plain = untraced.value("work_s");
    const double traced = report.value("work_s");
    report.metric("trace.overhead_pct",
                  plain > 0.0 ? (traced / plain - 1.0) * 100.0 : 0.0, "%", 2);
    report.metric("trace.spans", static_cast<double>(tracer.spans()), "count");
    for (const auto& [layer, s] : tracer.self_seconds()) {
      report.metric(layer + ".self_s", s, "s");
    }
    if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out)) {
      report.fail("cannot write spans to " + opt.trace_out);
    }
  }
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}

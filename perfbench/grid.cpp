// perfbench/grid.cpp — the `paper-grid` workload.
//
// The Fig. 4 + Fig. 5 cell grid: 9 workloads x 8 systems (Cielo, Trinity,
// Summit and the five exascale rates) x 3 logging modes = 216 cells, at 128
// materialized ranks, 2 noisy seeds per cell and a 4-thread cell sweep over
// one shared set of runners. Set-up builds every distinct runner (graph +
// baseline); the measured phase sweeps the whole grid repeatedly.
//
// The simulated window per run is shorter than the figure benches' 4 s
// default (kSimSeconds below) so that a whole sweep repeats several times
// inside one measured run; every workload still spans its minimum number
// of global synchronizations (RunnerRegistry::config_for, the sizing rule
// bench/RunnerCache and CampaignRunner share).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/logging_mode.hpp"
#include "core/system_config.hpp"
#include "noise/noise_model.hpp"
#include "server/runner_registry.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace celog::perfbench {

namespace {

constexpr goal::Rank kMaxRanks = 128;
constexpr double kSimSeconds = 0.1;
constexpr int kSeeds = 2;
constexpr unsigned kJobs = 4;
constexpr double kHorizon = 100.0;
/// Cells recomputed serially on freshly built runners (output check), and
/// probed layer by layer in traced runs.
constexpr std::size_t kCheckedCells = 6;
constexpr int kPopsPerProbe = 2000;

struct RunnerKey {
  std::size_t workload = 0;
  goal::Rank ranks = 0;
  goal::Rank block = 0;
  auto operator<=>(const RunnerKey&) const = default;
};

struct Cell {
  std::size_t workload = 0;
  core::SystemConfig system;
  core::LoggingMode mode = core::LoggingMode::kHardwareOnly;
  RunnerKey key;
  TimeNs mtbce = 0;
};

workloads::WorkloadConfig config_for(const workloads::Workload& w,
                                     const RunnerKey& key,
                                     std::uint64_t seed) {
  workloads::WorkloadConfig config = server::RunnerRegistry::config_for(
      w, key.ranks, kSimSeconds, core::GraphRep::kMaterialized);
  config.trace_block = key.block;
  config.seed = seed;
  return config;
}

std::vector<Cell> grid_cells() {
  std::vector<core::SystemConfig> systems = core::systems::current_systems();
  for (auto& s : core::systems::exascale_systems()) systems.push_back(s);
  const auto& rows = workloads::all_workloads();
  std::vector<Cell> cells;
  for (const auto mode : core::all_logging_modes()) {
    for (std::size_t wi = 0; wi < rows.size(); ++wi) {
      for (const auto& sys : systems) {
        const core::ScaledSystem scale =
            core::scale_system(sys.simulated_nodes, kMaxRanks);
        Cell c;
        c.workload = wi;
        c.system = sys;
        c.mode = mode;
        c.key = RunnerKey{wi, scale.ranks,
                          core::scaled_trace_block(*rows[wi], scale)};
        c.mtbce = core::scaled_mtbce(sys, scale);
        cells.push_back(c);
      }
    }
  }
  return cells;
}

bool same(const core::SlowdownResult& a, const core::SlowdownResult& b) {
  return a.mean_pct == b.mean_pct && a.stderr_pct == b.stderr_pct &&
         a.min_pct == b.min_pct && a.max_pct == b.max_pct &&
         a.seeds == b.seeds && a.baseline_makespan == b.baseline_makespan &&
         a.mean_detours == b.mean_detours &&
         a.mean_stolen_s == b.mean_stolen_s && a.no_progress == b.no_progress;
}

using Runners = std::map<RunnerKey, std::unique_ptr<core::ExperimentRunner>>;

// Layer probes of one runner key (traced runs): the graph build, its size,
// and a noise-free simulation of it, each timed on its own.
struct BuildProbe {
  double build_s = 0.0;
  double graph_bytes = 0.0;
  double ops = 0.0;
  double baseline_s = 0.0;
  sim::SimResult baseline;
};

BuildProbe probe_build(const workloads::Workload& w,
                       const workloads::WorkloadConfig& config,
                       Tracer* tracer, std::int64_t item) {
  BuildProbe p;
  const Timer build_timer;
  std::optional<goal::TaskGraph> graph;
  {
    const Span span(tracer, "workloads.build", item);
    graph.emplace(w.build(config));
  }
  p.build_s = build_timer.seconds();
  p.graph_bytes = static_cast<double>(graph->resident_bytes());
  p.ops = static_cast<double>(graph->total_ops());
  const sim::Simulator simulator(*graph, sim::NetworkParams::cray_xc40());
  const Timer sim_timer;
  {
    const Span span(tracer, "sim.run_baseline", item);
    p.baseline = simulator.run_baseline();
  }
  p.baseline_s = sim_timer.seconds();
  return p;
}

}  // namespace

void run_paper_grid(const Options& opt, Report& report, Tracer* tracer) {
  const auto& rows = workloads::all_workloads();
  const std::vector<Cell> cells = grid_cells();
  std::vector<RunnerKey> keys;
  for (const Cell& c : cells) keys.push_back(c.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Inputs derived from the workload seed: the graphs' jitter seed and the
  // base seed of every cell's noisy runs.
  SplitMix64 mix(opt.seed);
  const std::uint64_t graph_seed = 1 + mix.next() % 1000000;
  const std::uint64_t base_seed = 1000 + mix.next() % 1000000;

  util::ThreadPool pool(kJobs);

  // --- set-up: build every distinct runner, opt.setups times -------------
  Runners runners;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.setups > 0 ? opt.setups : 3); ++rep) {
    runners.clear();
    std::vector<std::unique_ptr<core::ExperimentRunner>> built(keys.size());
    const Timer timer;
    {
      const Span span(tracer, "bench.setup", rep);
      const std::uint64_t parent = current_span();
      pool.parallel_for_indexed(keys.size(), [&](std::size_t i) {
        const Span runner_span(tracer, "core.runner_build",
                               static_cast<std::int64_t>(i), parent);
        const auto& w = *rows[keys[i].workload];
        built[i] = std::make_unique<core::ExperimentRunner>(
            w, config_for(w, keys[i], graph_seed));
      });
    }
    setup_s.push_back(timer.seconds());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      runners[keys[i]] = std::move(built[i]);
    }
  }
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.attempt(keys.size());

  // --- measured phase: whole-grid sweeps until the time is up ------------
  const std::size_t n = cells.size();
  std::vector<core::SlowdownResult> first(n);
  std::vector<double> sweep_wall;
  std::vector<double> sweep_cpu;
  std::vector<double> cell_s;
  std::size_t mismatched = 0;
  const Timer measured;
  do {
    std::vector<core::SlowdownResult> results(n);
    std::vector<double> times(n);
    const double cpu0 = process_cpu_seconds();
    const Timer timer;
    {
      const Span span(tracer, "bench.sweep",
                      static_cast<std::int64_t>(sweep_wall.size()));
      const std::uint64_t parent = current_span();
      pool.parallel_for_indexed(n, [&](std::size_t i) {
        const Cell& c = cells[i];
        const noise::UniformCeNoiseModel noise(c.mtbce,
                                               core::cost_model(c.mode));
        const Timer cell_timer;
        const Span cell_span(tracer, "core.measure",
                             static_cast<std::int64_t>(i), parent);
        results[i] =
            runners.at(c.key)->measure(noise, kSeeds, base_seed, kHorizon, 1);
        times[i] = cell_timer.seconds();
      });
    }
    sweep_wall.push_back(timer.seconds());
    sweep_cpu.push_back(process_cpu_seconds() - cpu0);
    cell_s.insert(cell_s.end(), times.begin(), times.end());
    report.attempt(n);
    if (sweep_wall.size() == 1) {
      first = results;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (!same(results[i], first[i])) ++mismatched;
      }
    }
  } while (measured.seconds() + median(sweep_wall) <= opt.seconds);
  for (std::size_t i = 0; i < mismatched; ++i) {
    report.fail("paper-grid: a repeated sweep changed a cell's result");
  }

  // --- output check: sampled cells recomputed at --jobs 1 on fresh runners
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < kCheckedCells; ++k) {
    sample.push_back(static_cast<std::size_t>(mix.next() % n));
  }
  // Always include a firmware cell of the most CE-heavy system.
  sample.push_back(n - 1);
  for (const std::size_t i : sample) {
    const Cell& c = cells[i];
    const auto& w = *rows[c.workload];
    const core::ExperimentRunner fresh(w, config_for(w, c.key, graph_seed));
    const noise::UniformCeNoiseModel noise(c.mtbce, core::cost_model(c.mode));
    report.attempt();
    const auto r = fresh.measure(noise, kSeeds, base_seed, kHorizon, 1);
    if (!same(r, first[i])) {
      report.fail("paper-grid: cell " + std::to_string(i) + " (" + w.name() +
                  "/" + c.system.name + "/" + core::to_string(c.mode) +
                  ") differs between the --jobs 4 sweep and --jobs 1");
    }
  }

  const double cells_d = static_cast<double>(n);
  const double wall = median(sweep_wall);
  report.metric("grid.wall_s", wall, "s", sweep_wall.size());
  report.metric("grid.cpu_s", median(sweep_cpu), "s", sweep_cpu.size());
  report.metric("work_s", wall, "s", sweep_wall.size());
  report.metric("work_cpu_s", median(sweep_cpu), "s", sweep_cpu.size());
  report.metric("tail_s", tail(cell_s), "s", cell_s.size());
  report.metric("core.cell_s.p50", median(cell_s), "s", cell_s.size());
  report.metric("core.cell_s.max",
                *std::max_element(cell_s.begin(), cell_s.end()), "s",
                cell_s.size());
  report.metric("core.runs_per_s", cells_d * kSeeds / wall, "1/s",
                sweep_wall.size());
  double no_progress = 0.0;
  double detours = 0.0;
  double stolen_s = 0.0;
  for (const auto& r : first) {
    if (r.no_progress) no_progress += 1.0;
    detours += r.mean_detours * r.seeds;
    stolen_s += r.mean_stolen_s * r.seeds;
  }
  report.metric("core.no_progress_cells", no_progress, "count");
  report.metric("noise.detours_charged", std::round(detours), "count");
  report.metric("noise.stolen_s", stolen_s, "s");
  if (tracer == nullptr) return;

  // --- traced runs only: layer probes ------------------------------------
  // Graph build, graph size and noise-free simulation of every runner key.
  double build_s = 0.0;
  double graph_bytes = 0.0;
  double ops = 0.0;
  double base_s = 0.0;
  double base_events = 0.0;
  double data = 0.0;
  double control = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& w = *rows[keys[i].workload];
    const BuildProbe p = probe_build(w, config_for(w, keys[i], graph_seed),
                                     tracer, static_cast<std::int64_t>(i));
    build_s += p.build_s;
    graph_bytes += p.graph_bytes;
    ops += p.ops;
    base_s += p.baseline_s;
    base_events += static_cast<double>(p.baseline.events_processed);
    data += static_cast<double>(p.baseline.data_messages);
    control += static_cast<double>(p.baseline.control_messages);
  }
  // Noisy simulations and standalone detour draws of the sampled cells.
  double noisy_s = 0.0;
  double noisy_events = 0.0;
  double pop_s = 0.0;
  double pops = 0.0;
  for (const std::size_t i : sample) {
    const Cell& c = cells[i];
    const auto& runner = *runners.at(c.key);
    const noise::UniformCeNoiseModel noise(c.mtbce, core::cost_model(c.mode));
    const sim::Simulator simulator(runner.graph(),
                                   sim::NetworkParams::cray_xc40());
    const auto horizon = static_cast<TimeNs>(
        kHorizon * static_cast<double>(runner.baseline().makespan));
    for (int s = 0; s < kSeeds; ++s) {
      const Timer timer;
      try {
        const Span span(tracer, "sim.run", static_cast<std::int64_t>(i));
        const sim::SimResult r =
            simulator.run(noise, base_seed + static_cast<std::uint64_t>(s),
                          horizon);
        noisy_events += static_cast<double>(r.events_processed);
        data += static_cast<double>(r.data_messages);
        control += static_cast<double>(r.control_messages);
      } catch (const NoProgressError&) {
        // A paper outcome (CE handling outpaces the CPU), not a failure.
      }
      noisy_s += timer.seconds();
    }
  }
  // Standalone detour draws from every cell's noise model.
  for (std::size_t i = 0; i < n; ++i) {
    const noise::UniformCeNoiseModel noise(cells[i].mtbce,
                                           core::cost_model(cells[i].mode));
    auto source = noise.make_source(0, base_seed);
    const Timer pop_timer;
    {
      const Span span(tracer, "noise.pop", static_cast<std::int64_t>(i));
      TimeNs sum = 0;
      for (int k = 0; k < kPopsPerProbe; ++k) sum += source->pop().duration;
      trace_count(tracer, "noise.popped_ns", static_cast<double>(sum));
    }
    pop_s += pop_timer.seconds();
    pops += kPopsPerProbe;
  }
  trace_count(tracer, "sim.events", base_events + noisy_events);
  report.metric("workloads.build_s", build_s, "s", keys.size());
  report.metric("workloads.graph_mib", graph_bytes / (1024.0 * 1024.0),
                "MiB", keys.size());
  report.metric("workloads.ops", ops, "count", keys.size());
  report.metric("sim.baseline_events_per_s", base_events / base_s, "1/s",
                keys.size());
  report.metric("sim.noisy_events_per_s",
                noisy_s > 0.0 ? noisy_events / noisy_s : 0.0, "1/s",
                sample.size() * kSeeds);
  report.metric("sim.events", base_events + noisy_events, "count");
  report.metric("sim.data_messages", data, "count");
  report.metric("sim.control_messages", control, "count");
  report.metric("noise.pop_ns", pop_s / pops * 1e9, "ns",
                static_cast<std::size_t>(pops));
}

}  // namespace celog::perfbench

// perfbench/exascale.cpp — the `exascale-gen` workload.
//
// Generative LULESH + HPCG at kRanks ranks, one process per node, above the
// engine's 16,384-rank exact-reserve cap so the organic-growth event-queue
// path runs. Every run uses firmware logging at the native per-node MTBCE
// of the x10-Cielo exascale strawman (fig5_exascale's 100K-rank addendum,
// at a length that repeats inside one measured run). Set-up builds the two
// generative graphs; the measured phase runs (LULESH, HPCG) noisy pairs.
//
// Output check: at kProbeRanks, where materializing fits, the generative
// graph and its materialize() twin must simulate to bit-identical results;
// the time ratio of the two is the goal layer's decode overhead.
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/logging_mode.hpp"
#include "core/system_config.hpp"
#include "goal/generative.hpp"
#include "noise/noise_model.hpp"
#include "sim/engine.hpp"
#include "sim/run_context.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace celog::perfbench {

namespace {

constexpr goal::Rank kRanks = 17576;  // 26^3
constexpr goal::Rank kProbeRanks = 1024;
constexpr int kIterations = 1;
constexpr double kHorizon = 100.0;
constexpr int kPops = 20000;
constexpr std::array<const char*, 2> kWorkloads = {"lulesh", "hpcg"};

workloads::WorkloadConfig exa_config(goal::Rank ranks, std::uint64_t seed) {
  workloads::WorkloadConfig config;
  config.ranks = ranks;
  config.trace_block = 0;
  config.iterations = kIterations;
  config.seed = seed;
  return config;
}

TimeNs horizon_of(const sim::SimResult& baseline) {
  return static_cast<TimeNs>(kHorizon *
                             static_cast<double>(baseline.makespan));
}

// One workload's exascale machine: its graph, engine, reusable run
// context and noise-free baseline.
struct Cell {
  std::optional<goal::GenerativeGraph> graph;
  std::optional<sim::Simulator> sim;
  sim::RunContext ctx;
  sim::SimResult baseline;
};

}  // namespace

void run_exascale_gen(const Options& opt, Report& report, Tracer* tracer) {
  SplitMix64 mix(opt.seed);
  const std::uint64_t graph_seed = 1 + mix.next() % 1000000;
  const std::uint64_t base_seed = 1000 + mix.next() % 1000000;
  const core::SystemConfig sys = core::systems::exascale_cielo(10.0);
  const noise::UniformCeNoiseModel noise(
      sys.mtbce_node(), core::cost_model(core::LoggingMode::kFirmware));
  // LULESH and HPCG run side by side, one thread each.
  util::ThreadPool pool(static_cast<unsigned>(kWorkloads.size()));
  std::vector<Cell> cells(kWorkloads.size());

  // --- set-up: generative graphs + baselines, opt.setups times -----------
  std::vector<double> setup_s;
  std::vector<double> build_s;
  double base_s = 0.0;
  for (int rep = 0; rep < (opt.setups > 0 ? opt.setups : 2); ++rep) {
    for (Cell& c : cells) {
      c.sim.reset();
      c.ctx.clear();
      c.graph.reset();
    }
    std::vector<double> builds(cells.size());
    std::vector<double> bases(cells.size());
    const Timer timer;
    {
      const Span span(tracer, "bench.setup", rep);
      const std::uint64_t parent = current_span();
      pool.parallel_for_indexed(cells.size(), [&](std::size_t w) {
        Cell& c = cells[w];
        const auto item = static_cast<std::int64_t>(w);
        const auto workload = workloads::find_workload(kWorkloads[w]);
        Timer t;
        {
          const Span build_span(tracer, "goal.build_generative", item, parent);
          c.graph = workload->build_generative(exa_config(kRanks, graph_seed));
        }
        builds[w] = t.seconds();
        if (!c.graph) throw InvalidInputError("no generative twin");
        c.sim.emplace(*c.graph, sim::NetworkParams::cray_xc40());
        t = Timer();
        {
          const Span run_span(tracer, "sim.run_baseline", item, parent);
          c.baseline = c.sim->run_baseline(c.ctx);
        }
        bases[w] = t.seconds();
      });
    }
    setup_s.push_back(timer.seconds());
    build_s.push_back(builds[0] + builds[1]);
    base_s = bases[0] + bases[1];
  }
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.metric("goal.gen_build_s", median(build_s), "s", build_s.size());
  report.attempt(cells.size());
  double resident = 0.0;
  double ops = 0.0;
  for (const Cell& c : cells) {
    resident += static_cast<double>(c.graph->resident_bytes());
    ops += static_cast<double>(c.graph->total_ops());
  }
  report.metric("goal.gen_resident_kib", resident / 1024.0, "KiB");
  report.metric("workloads.ops", ops, "count");

  // --- measured phase: (LULESH, HPCG) firmware pairs until time is up ----
  std::vector<double> pair_wall;
  std::vector<double> pair_cpu;
  std::vector<sim::SimResult> first_pair(cells.size());
  double events = 0.0;
  double run_s = 0.0;
  double slowdown = 0.0;
  const Timer measured;
  do {
    const auto pair = static_cast<std::int64_t>(pair_wall.size());
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(pair);
    std::vector<sim::SimResult> results(cells.size());
    std::vector<int> progressed(cells.size(), 0);
    const double cpu0 = process_cpu_seconds();
    const Timer timer;
    {
      const Span span(tracer, "bench.pair", pair);
      const std::uint64_t parent = current_span();
      pool.parallel_for_indexed(cells.size(), [&](std::size_t w) {
        Cell& c = cells[w];
        try {
          const Span run_span(tracer, "sim.run", pair, parent);
          results[w] = c.sim->run(noise, seed, c.ctx, horizon_of(c.baseline));
          progressed[w] = 1;
        } catch (const NoProgressError&) {
        }
      });
    }
    pair_wall.push_back(timer.seconds());
    pair_cpu.push_back(process_cpu_seconds() - cpu0);
    run_s += pair_wall.back();
    for (std::size_t w = 0; w < cells.size(); ++w) {
      report.attempt();
      if (progressed[w] == 0) {
        report.fail(std::string("exascale-gen: ") + kWorkloads[w] +
                    " made no forward progress");
        continue;
      }
      events += static_cast<double>(results[w].events_processed);
      if (pair == 0) {
        slowdown += sim::slowdown_percent(cells[w].baseline, results[w]);
        first_pair[w] = results[w];
      }
    }
  } while (measured.seconds() + median(pair_wall) <= opt.seconds);

  const double wall = median(pair_wall);
  report.metric("exa.wall_s", wall, "s", pair_wall.size());
  report.metric("exa.events_per_s", events / run_s, "1/s", pair_wall.size());
  report.metric("exa.first_pair_slowdown_pct", slowdown, "%");
  report.metric("work_s", wall, "s", pair_wall.size());
  report.metric("work_cpu_s", median(pair_cpu), "s", pair_cpu.size());
  report.metric("tail_s", tail(pair_wall), "s", pair_wall.size());

  // --- output check + decode overhead at a materializable rank count -----
  double gen_s = 0.0;
  double mat_s = 0.0;
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    const auto workload = workloads::find_workload(kWorkloads[w]);
    const auto gen =
        workload->build_generative(exa_config(kProbeRanks, graph_seed));
    std::optional<goal::TaskGraph> mat;
    {
      const Span span(tracer, "goal.materialize", static_cast<std::int64_t>(w));
      mat.emplace(gen->materialize());
    }
    const sim::Simulator gen_sim(*gen, sim::NetworkParams::cray_xc40());
    const sim::Simulator mat_sim(*mat, sim::NetworkParams::cray_xc40());
    sim::RunContext gen_ctx;
    sim::RunContext mat_ctx;
    report.attempt(2);
    Timer timer;
    sim::SimResult g;
    {
      const Span span(tracer, "sim.run_baseline", static_cast<std::int64_t>(w));
      g = gen_sim.run_baseline(gen_ctx);
    }
    gen_s += timer.seconds();
    timer = Timer();
    sim::SimResult m;
    {
      const Span span(tracer, "sim.run_baseline", static_cast<std::int64_t>(w));
      m = mat_sim.run_baseline(mat_ctx);
    }
    mat_s += timer.seconds();
    if (!same_result(g, m)) {
      report.fail(std::string("exascale-gen: generative and materialized ") +
                  kWorkloads[w] + " baselines differ");
    }
    // A CE-dense software-logging stream, so the noisy comparison covers
    // many detours even on this small machine.
    const noise::UniformCeNoiseModel dense(
        10 * kMillisecond, core::cost_model(core::LoggingMode::kSoftware));
    const auto h = horizon_of(g);
    if (!same_result(gen_sim.run(dense, base_seed, gen_ctx, h),
              mat_sim.run(dense, base_seed, mat_ctx, h))) {
      report.fail(std::string("exascale-gen: generative and materialized ") +
                  kWorkloads[w] + " noisy runs differ");
    }
  }
  report.metric("goal.decode_overhead_pct", (gen_s / mat_s - 1.0) * 100.0,
                "%", kWorkloads.size());

  // Counts over a fixed set of runs (baselines + the first pair), so they
  // repeat exactly for a given seed.
  double base_events = 0.0;
  double data = 0.0;
  double control = 0.0;
  double detours = 0.0;
  double stolen = 0.0;
  double first_events = 0.0;
  for (const Cell& c : cells) {
    const sim::SimResult& r = c.baseline;
    base_events += static_cast<double>(r.events_processed);
    data += static_cast<double>(r.data_messages);
    control += static_cast<double>(r.control_messages);
  }
  for (const auto& r : first_pair) {
    first_events += static_cast<double>(r.events_processed);
    data += static_cast<double>(r.data_messages);
    control += static_cast<double>(r.control_messages);
    detours += static_cast<double>(r.detours_charged);
    stolen += to_seconds(r.noise_stolen);
  }
  report.metric("sim.baseline_events_per_s", base_events / base_s, "1/s",
                cells.size());
  report.metric("sim.noisy_events_per_s", events / run_s, "1/s",
                pair_wall.size() * kWorkloads.size());
  report.metric("sim.events", base_events + first_events, "count");
  report.metric("sim.data_messages", data, "count");
  report.metric("sim.control_messages", control, "count");
  report.metric("noise.detours_charged", detours, "count");
  report.metric("noise.stolen_s", stolen, "s");

  // Standalone detour draws from the firmware noise model.
  auto source = noise.make_source(0, base_seed);
  const Timer pop_timer;
  {
    const Span span(tracer, "noise.pop", 0);
    TimeNs sum = 0;
    for (int k = 0; k < kPops; ++k) sum += source->pop().duration;
    trace_count(tracer, "noise.popped_ns", static_cast<double>(sum));
  }
  report.metric("noise.pop_ns", pop_timer.seconds() / kPops * 1e9, "ns",
                kPops);
}

}  // namespace celog::perfbench

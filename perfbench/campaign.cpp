// perfbench/campaign.cpp — the `fleet-campaign` workload.
//
// fleetdb::CampaignRunner on lammps-crack with all four maintenance
// policies (none, age, threshold, cost-model) at ablation_fleet's
// defaults: 32 nodes, 20 half-year epochs of 2 runs, 50 ms simulated per
// run, 4 ms accelerated per-node MTBCE, on one thread. Set-up constructs
// the four runners (graph build + baseline), several times; the measured
// phase runs whole four-policy campaigns back to back, each on fresh
// runners.
//
// Output check: every policy's campaign is checkpointed at mid-campaign,
// restored into a fresh runner and finished; its MemDb::serialize bytes
// and stats must match the uninterrupted campaign's.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "fleetdb/campaign.hpp"
#include "fleetdb/fleet_noise.hpp"
#include "fleetdb/maintenance.hpp"
#include "fleetdb/memdb.hpp"
#include "noise/detour.hpp"
#include "noise/noise_model.hpp"
#include "server/runner_registry.hpp"
#include "sim/engine.hpp"
#include "telemetry/collector.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace celog::perfbench {

namespace {

constexpr int kEpochs = 20;
constexpr int kPolicies = 4;
constexpr int kTelemetryRuns = 8;
constexpr int kPops = 20000;
constexpr int kSetups = 7;  // set-ups before the measured campaigns

std::unique_ptr<fleetdb::MaintenancePolicy> make_policy(int i) {
  switch (i) {
    case 0: return std::make_unique<fleetdb::NullMaintenancePolicy>();
    case 1: return std::make_unique<fleetdb::AgeReplacePolicy>(3 * kYear);
    case 2: return std::make_unique<fleetdb::ThresholdMaintenancePolicy>();
    default: return std::make_unique<fleetdb::CostModelPolicy>();
  }
}

fleetdb::CampaignConfig campaign_config(std::uint64_t campaign_seed) {
  fleetdb::CampaignConfig config;
  config.workload = "lammps-crack";
  config.ranks = 32;
  config.runs_per_epoch = 2;
  config.sim_target_s = 0.05;
  config.campaign_seed = campaign_seed;
  config.noise.mtbce = 4 * kMillisecond;
  // One thread: an epoch's two runs back to back, so campaign wall time
  // tracks its CPU time instead of the slower of two threads. Running the
  // four policies side by side instead made peak RSS depend on how the
  // seed's allocations fell across malloc's per-thread arenas (44 or
  // 57 MiB for a given seed, a 25 % spread over ten seeds).
  config.jobs = 1;
  return config;
}

// One policy's campaign: the policy object must outlive its runner.
struct Campaign {
  std::unique_ptr<fleetdb::MaintenancePolicy> policy;
  std::unique_ptr<fleetdb::CampaignRunner> runner;
};

std::vector<Campaign> build_campaigns(const fleetdb::CampaignConfig& config,
                                      Tracer* tracer) {
  std::vector<Campaign> out(kPolicies);
  for (int i = 0; i < kPolicies; ++i) {
    const Span span(tracer, "fleetdb.campaign_build", i);
    out[static_cast<std::size_t>(i)].policy = make_policy(i);
    out[static_cast<std::size_t>(i)].runner =
        std::make_unique<fleetdb::CampaignRunner>(
            config, *out[static_cast<std::size_t>(i)].policy);
  }
  return out;
}

}  // namespace

void run_fleet_campaign(const Options& opt, Report& report, Tracer* tracer) {
  SplitMix64 mix(opt.seed);
  const fleetdb::CampaignConfig config = campaign_config(mix.next());

  // --- set-up: construct the four runners, opt.setups times -------------
  // Each measured campaign below also needs fresh runners; their
  // construction adds to the same set-up samples.
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.setups > 0 ? opt.setups : kSetups); ++rep) {
    const Span span(tracer, "bench.setup", rep);
    const Timer timer;
    const std::vector<Campaign> campaigns = build_campaigns(config, tracer);
    setup_s.push_back(timer.seconds());
  }

  // --- measured phase: whole four-policy campaigns until time is up ------
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> years_per_cpu_h;
  std::vector<double> epoch_s;
  std::vector<double> policy_s[kPolicies];  // one policy's 20 epochs
  std::vector<std::string> first_dbs;
  std::vector<fleetdb::CampaignStats> first_stats;
  double fleet_rows = 0.0;
  double merge_s = 0.0;
  double serialize_s = 0.0;
  const Timer measured;
  do {
    const auto rep = static_cast<std::int64_t>(wall_s.size());
    const Span rep_span(tracer, "bench.campaign", rep);
    Timer timer;
    std::vector<Campaign> campaigns = build_campaigns(config, tracer);
    setup_s.push_back(timer.seconds());

    double years = 0.0;
    const double cpu0 = process_cpu_seconds();
    timer = Timer();
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      Campaign& c = campaigns[i];
      const Timer policy_timer;
      for (int e = 0; e < kEpochs; ++e) {
        const Timer epoch_timer;
        {
          const Span span(tracer, "fleetdb.run_epoch", e);
          c.runner->run_epoch();
        }
        epoch_s.push_back(epoch_timer.seconds());
        report.attempt();
      }
      years += c.runner->fleet_years();
      policy_s[i].push_back(policy_timer.seconds());
    }
    wall_s.push_back(timer.seconds());
    cpu_s.push_back(process_cpu_seconds() - cpu0);
    years_per_cpu_h.push_back(years / (cpu_s.back() / 3600.0));

    // Every repetition must reproduce the first one's databases.
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      const fleetdb::CampaignRunner& r = *campaigns[i].runner;
      std::string dump;
      {
        const Timer t;
        const Span span(tracer, "fleetdb.serialize", static_cast<int>(i));
        dump = r.db().serialize();
        serialize_s += t.seconds();
      }
      if (rep == 0) {
        first_dbs.push_back(dump);
        first_stats.push_back(r.stats());
        fleet_rows += static_cast<double>(r.db().rows().size());
        fleetdb::MemDb folded;
        const Timer t;
        const Span span(tracer, "fleetdb.merge", static_cast<int>(i));
        folded.merge(r.db());
        merge_s += t.seconds();
      } else if (dump != first_dbs[i] || !(r.stats() == first_stats[i])) {
        report.fail("fleet-campaign: a repeated campaign changed policy " +
                    std::string(campaigns[i].policy->name()) + "'s MemDb");
      }
    }
  } while (measured.seconds() + median(wall_s) + median(setup_s) <=
           opt.seconds);

  const double wall = median(wall_s);
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.metric("campaign.wall_s", wall, "s", wall_s.size());
  report.metric("campaign.fleet_years_per_cpu_hour", median(years_per_cpu_h),
                "fleet-yr/cpu-h", years_per_cpu_h.size());
  report.metric("work_s", wall, "s", wall_s.size());
  report.metric("work_cpu_s", median(cpu_s), "s", cpu_s.size());
  // The tail: the slowest policy's campaign (median over repetitions).
  double slowest = 0.0;
  for (const auto& s : policy_s) slowest = std::max(slowest, median(s));
  report.metric("tail_s", slowest, "s", wall_s.size());
  report.metric("fleetdb.epoch_s.p50", median(epoch_s), "s", epoch_s.size());
  report.metric("fleetdb.merge_s", merge_s, "s", kPolicies);
  report.metric("fleetdb.serialize_s", serialize_s / static_cast<double>(
                                                         wall_s.size()),
                "s", wall_s.size() * kPolicies);
  report.metric("fleetdb.rows", fleet_rows, "count");

  // --- output check: checkpoint at mid-campaign, restore, finish ---------
  double checkpoint_s = 0.0;
  double restore_s = 0.0;
  for (int i = 0; i < kPolicies; ++i) {
    report.attempt();
    const auto first = make_policy(i);
    fleetdb::CampaignRunner interrupted(config, *first);
    interrupted.run(kEpochs / 2);
    std::string checkpoint;
    {
      const Timer t;
      const Span span(tracer, "fleetdb.checkpoint", i);
      checkpoint = interrupted.checkpoint();
      checkpoint_s += t.seconds();
    }
    const auto second = make_policy(i);
    fleetdb::CampaignRunner resumed(config, *second);
    {
      const Timer t;
      const Span span(tracer, "fleetdb.restore", i);
      resumed.restore(checkpoint);
      restore_s += t.seconds();
    }
    resumed.run(kEpochs - kEpochs / 2);
    const auto idx = static_cast<std::size_t>(i);
    if (resumed.db().serialize() != first_dbs[idx] ||
        !(resumed.stats() == first_stats[idx])) {
      report.fail("fleet-campaign: checkpoint/restore of policy " +
                  std::string(first->name()) +
                  " diverged from the uninterrupted campaign");
    }
  }
  report.metric("fleetdb.checkpoint_s", checkpoint_s, "s", kPolicies);
  report.metric("fleetdb.restore_s", restore_s, "s", kPolicies);
  if (tracer == nullptr) return;

  // --- traced runs only: layer probes ------------------------------------
  const auto workload = workloads::find_workload(config.workload);
  // Exactly the graph CampaignRunner builds.
  const workloads::WorkloadConfig wc =
      server::RunnerRegistry::config_for(*workload, config.ranks,
                                         config.sim_target_s,
                                         core::GraphRep::kMaterialized);
  double build_s = 0.0;
  double ops = 0.0;
  {
    const Timer t;
    const Span span(tracer, "workloads.build", 0);
    const goal::TaskGraph graph = workload->build(wc);
    build_s = t.seconds();
    ops = static_cast<double>(graph.total_ops());
    const sim::Simulator simulator(graph, sim::NetworkParams::cray_xc40());
    const Timer sim_timer;
    std::uint64_t base_events = 0;
    {
      const Span sim_span(tracer, "sim.run_baseline", 0);
      base_events = simulator.run_baseline().events_processed;
    }
    report.metric("sim.baseline_events_per_s",
                  static_cast<double>(base_events) / sim_timer.seconds(),
                  "1/s");
    report.metric("workloads.graph_mib",
                  static_cast<double>(graph.resident_bytes()) /
                      (1024.0 * 1024.0),
                  "MiB");
  }
  report.metric("workloads.build_s", build_s, "s");
  report.metric("workloads.ops", ops, "count");
  const core::ExperimentRunner runner(*workload, wc);

  // The observer's share of an epoch: replay one threshold campaign,
  // timing each epoch against the same runs with no sink attached, both
  // in process CPU seconds.
  double epoch_cpu = 0.0;
  double sink_free_cpu = 0.0;
  {
    const auto policy = make_policy(2);
    fleetdb::CampaignRunner probe(config, *policy);
    for (int e = 0; e < kEpochs; ++e) {
      const auto state = fleetdb::FleetEpochState::build(
          config.noise, config.campaign_seed, config.ranks, probe.db());
      const fleetdb::FleetCeNoiseModel model(config.noise, state);
      if (e == 0) {
        // Standalone draws from the fleet CE stream of node 0.
        auto source = model.make_source(0, config.campaign_seed);
        const Timer pop_timer;
        {
          const Span span(tracer, "noise.pop", 0);
          TimeNs sum = 0;
          for (int k = 0; k < kPops; ++k) sum += source->pop().duration;
          trace_count(tracer, "noise.popped_ns", static_cast<double>(sum));
        }
        report.metric("noise.pop_ns", pop_timer.seconds() / kPops * 1e9,
                      "ns", kPops);
      }
      const double free_cpu0 = process_cpu_seconds();
      for (int r = 0; r < config.runs_per_epoch; ++r) {
        const Span span(tracer, "core.run_once", r);
        try {
          static_cast<void>(runner.run_once(
              model,
              fleetdb::CampaignRunner::run_seed(
                  config.campaign_seed, static_cast<std::uint64_t>(e), r),
              config.horizon_factor));
        } catch (const NoProgressError&) {
        }
      }
      sink_free_cpu += process_cpu_seconds() - free_cpu0;
      const double cpu0 = process_cpu_seconds();
      {
        const Span span(tracer, "fleetdb.run_epoch", e);
        probe.run_epoch();
      }
      epoch_cpu += process_cpu_seconds() - cpu0;
    }
  }
  report.metric("fleetdb.observe_share_pct",
                (epoch_cpu - sink_free_cpu) / epoch_cpu * 100.0, "%", kEpochs);

  // Telemetry: the same run with and without a Collector attached.
  const noise::UniformCeNoiseModel uniform(
      config.noise.mtbce,
      std::make_shared<noise::FlatLoggingCost>(noise::costs::kMeasuredCmci));
  telemetry::Collector collector;
  double detached_s = 0.0;
  double attached_s = 0.0;
  double records = 0.0;
  double events = 0.0;
  double data = 0.0;
  double control = 0.0;
  double detours = 0.0;
  double stolen = 0.0;
  const auto base_seed = mix.next();
  for (int k = 0; k < kTelemetryRuns; ++k) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(k);
    report.attempt();
    Timer t;
    sim::SimResult plain;
    {
      const Span span(tracer, "core.run_once", k);
      plain = runner.run_once(uniform, seed);
    }
    detached_s += t.seconds();
    collector.begin_run(config.ranks, seed);
    t = Timer();
    sim::SimResult observed;
    {
      const Span span(tracer, "telemetry.run_once_attached", k);
      observed = runner.run_once(uniform, seed, &collector);
    }
    attached_s += t.seconds();
    records += static_cast<double>(collector.total_ces());
    if (!same_result(plain, observed)) {
      report.fail("fleet-campaign: attaching a Collector changed a SimResult");
    }
    events += static_cast<double>(plain.events_processed);
    data += static_cast<double>(plain.data_messages);
    control += static_cast<double>(plain.control_messages);
    detours += static_cast<double>(plain.detours_charged);
    stolen += to_seconds(plain.noise_stolen);
  }
  report.metric("telemetry.attached_overhead_pct",
                (attached_s / detached_s - 1.0) * 100.0, "%", kTelemetryRuns);
  report.metric("telemetry.ce_records", records, "count");
  report.metric("sim.noisy_events_per_s", events / detached_s, "1/s",
                kTelemetryRuns);
  const sim::SimResult& base = runner.baseline();
  report.metric("sim.events",
                events + static_cast<double>(base.events_processed), "count");
  report.metric("sim.data_messages",
                data + static_cast<double>(base.data_messages), "count");
  report.metric("sim.control_messages",
                control + static_cast<double>(base.control_messages),
                "count");
  report.metric("noise.detours_charged", detours, "count");
  report.metric("noise.stolen_s", stolen, "s");
}

}  // namespace celog::perfbench

// perfbench/serve.cpp — the `serve-mix` workload.
//
// An in-process server::Daemon on a Unix socket with 2 workers, driven by
// an open-loop generator over 2 client connections: requests are due on a
// fixed schedule whether or not earlier ones were answered, and latency is
// timed from each request's due time. Two phases at fixed rates, `lo`
// (well under capacity) then `hi` (near it); each phase's percentiles are
// the lowest over three equal windows of the phase. The mix is mostly sweeps on a
// few hot runner keys (registry hits), some --stream-runs sweeps, a
// minority of sweeps on never-seen keys (RunnerRegistry builds, and
// evictions once the registry's 32 entries are full), plus stats and ping.
//
// Admission limits are raised above anything the schedule can queue
// (quota and queue bound of 4096), so latency reflects queueing rather
// than refusals; any refusal still counts as a failed request.
//
// Set-up starts the daemon and warms the hot keys (one build each).
// Output check: every distinct sweep request's served result line must be
// byte-identical to result_line() over a batch ExperimentRunner built from
// RunnerRegistry::config_for.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/logging_mode.hpp"
#include "noise/noise_model.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "server/runner_registry.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace celog::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kLoRate = 30.0;   // requests/s
constexpr double kHiRate = 80.0;   // requests/s
constexpr double kLoShare = 0.3;   // of the measured time
constexpr int kConnections = 2;
constexpr int kWindows = 3;
constexpr double kDrainTimeoutS = 30.0;
constexpr std::size_t kDirectCalls = 40;
constexpr int kSetups = 21;  // set-ups per run; setup_s is their median
constexpr const char* kSimS = "0.02";

enum class Kind : std::uint8_t { kHot, kStream, kCold, kStats, kPing };

struct Req {
  std::int64_t id = 0;
  Kind kind = Kind::kHot;
  int phase = 0;   // 0 = lo, 1 = hi
  int window = 0;  // equal thirds of the phase
  std::string line;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool answered = false;
  std::string terminal;
};

// Hot runner keys, warmed at set-up. Hot requests differ only in key, run
// seed (one of kHotSeeds fixed seeds) and --stream-runs, so their service
// times are alike and a latency percentile does not move with the mix.
// The registry evicts the first built entry in key order; every cold key
// (below) sorts before every hot key, so evictions fall on cold entries
// and hot requests stay registry hits.
struct HotKey {
  const char* workload;
  int ranks;
};
constexpr HotKey kHot[] = {{"minife", 16}, {"minife", 17}, {"minife", 18}};
constexpr const char* kColdWorkloads[] = {"cth", "hpcg", "lammps-crack",
                                          "lulesh"};
constexpr std::uint64_t kHotSeeds = 4;

// The request mix, dealt in seed-shuffled decks of 50: 74 % hot sweeps,
// 12 % hot --stream-runs sweeps, 4 % cold sweeps, 6 % stats, 4 % ping.
// Every 50 requests hold exactly this mix, so each latency window holds
// the same share of each kind whatever the seed; drawing kinds
// independently made a window's p99 move with its count of stream
// requests, which make up most of the tail.
std::vector<Kind> make_deck() {
  std::vector<Kind> deck;
  deck.insert(deck.end(), 37, Kind::kHot);
  deck.insert(deck.end(), 6, Kind::kStream);
  deck.insert(deck.end(), 2, Kind::kCold);
  deck.insert(deck.end(), 3, Kind::kStats);
  deck.insert(deck.end(), 2, Kind::kPing);
  return deck;
}
constexpr int kColdRanksMin = 4;
constexpr int kColdRanksSpan = 15;

// Four noisy runs per sweep: enough work per request (about 10 ms on a
// 4-core host) that thread wake-up jitter stays small beside it.
std::string sweep_line(std::int64_t id, const char* workload, int ranks,
                       const char* mode, int mtbce_ms, std::uint64_t seed,
                       bool stream) {
  return "sweep --id " + std::to_string(id) + " --workload " + workload +
         " --ranks " + std::to_string(ranks) + " --sim-s " + kSimS +
         " --seeds 4 --seed " + std::to_string(seed) + " --mtbce-ms " +
         std::to_string(mtbce_ms) + " --mode " + mode +
         (stream ? " --stream-runs" : "");
}

// The request line with its id removed: requests with equal keys must be
// answered with equal result payloads.
std::string key_of(const std::string& line) {
  const auto at = line.find(" --id ");
  const auto end = line.find(' ', at + 6);
  return line.substr(0, at) + line.substr(end);
}

std::uint64_t field_u64(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

std::int64_t id_of(const std::string& line) {
  return static_cast<std::int64_t>(field_u64(line, "id"));
}

std::string event_of(const std::string& line) {
  const std::string key = "\"event\":\"";
  const auto at = line.find(key);
  if (at == std::string::npos) return "";
  const auto start = at + key.size();
  return line.substr(start, line.find('"', start) - start);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One request/response exchange on a blocking connection.
std::string exchange(int fd, util::LineReader& reader,
                     const std::string& line) {
  if (!util::write_all(fd, line + "\n")) throw Error("daemon hung up");
  std::string out;
  while (reader.read_line(out)) {
    if (event_of(out) != "run") return out;
  }
  throw Error("daemon closed the connection mid-request");
}

// A daemon serving on `path` from its own thread.
class Server {
 public:
  explicit Server(const std::string& path) : path_(path) {
    ::unlink(path_.c_str());
    std::vector<util::ScopedFd> listeners;
    listeners.push_back(util::listen_unix(path_));
    server::DaemonConfig config;
    config.workers = 2;
    config.quota = 4096;
    config.max_queue = 4096;
    config.jobs_cap = 4;
    daemon_ = std::make_unique<server::Daemon>(std::move(listeners), config);
    thread_ = std::thread([this] { daemon_->run(); });
  }
  ~Server() {
    daemon_->request_drain();
    thread_.join();
    ::unlink(path_.c_str());
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  std::string path_;
  std::unique_ptr<server::Daemon> daemon_;
  std::thread thread_;
};

// Starts a daemon and warms every hot key with a hot request (fixed run
// seed, so the set-up's work does not change with the workload seed);
// returns it running.
std::unique_ptr<Server> start_server(const Options& opt, Tracer* tracer) {
  const Span span(tracer, "server.start", 0);
  auto server = std::make_unique<Server>(opt.socket);
  util::ScopedFd fd = util::connect_unix(opt.socket);
  util::LineReader reader(fd.get());
  std::int64_t id = 1;
  for (const HotKey& k : kHot) {
    const Span warm(tracer, "server.warm", id);
    const std::string r = exchange(
        fd.get(), reader,
        sweep_line(id++, k.workload, k.ranks, "software", 1000, 1000, false));
    if (event_of(r) != "result") throw Error("warm-up failed: " + r);
  }
  return server;
}

// Builds the open-loop schedule of both phases.
std::vector<Req> make_schedule(const Options& opt, SplitMix64& rng,
                               Clock::time_point start) {
  std::vector<Req> reqs;
  std::int64_t id = 1000;
  // Every cold (workload, ranks) key, in a seed-shuffled order.
  std::vector<std::pair<const char*, int>> cold;
  for (const char* w : kColdWorkloads) {
    for (int k = 0; k < kColdRanksSpan; ++k) {
      cold.emplace_back(w, kColdRanksMin + k);
    }
  }
  for (std::size_t i = cold.size() - 1; i > 0; --i) {
    std::swap(cold[i], cold[rng.next() % (i + 1)]);
  }
  std::size_t next_cold = 0;
  std::vector<Kind> deck;
  const double lo_s = opt.seconds * kLoShare;
  const double hi_s = opt.seconds - lo_s;
  const std::uint64_t base_seed = 1000 + rng.next() % 100000;
  double t = 0.0;
  for (int phase = 0; phase < 2; ++phase) {
    const double rate = phase == 0 ? kLoRate : kHiRate;
    const double begin = t;
    const double end = phase == 0 ? lo_s : lo_s + hi_s;
    for (; t < end; t += 1.0 / rate) {
      Req r;
      r.id = id++;
      r.phase = phase;
      r.window = std::min(kWindows - 1, static_cast<int>((t - begin) /
                                                         (end - begin) *
                                                         kWindows));
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t));
      if (deck.empty()) {
        deck = make_deck();
        for (std::size_t i = deck.size() - 1; i > 0; --i) {
          std::swap(deck[i], deck[rng.next() % (i + 1)]);
        }
      }
      r.kind = deck.back();
      deck.pop_back();
      if (r.kind == Kind::kStats) {
        r.line = "stats --id " + std::to_string(r.id);
      } else if (r.kind == Kind::kPing) {
        r.line = "ping --id " + std::to_string(r.id);
      } else if (r.kind == Kind::kCold) {
        // A key no earlier request used (until all are used): a build.
        const auto& [workload, ranks] = cold[next_cold++ % cold.size()];
        r.line = sweep_line(r.id, workload, ranks, "software", 50, base_seed,
                            false);
      } else {
        const HotKey& k = kHot[rng.next() % std::size(kHot)];
        r.line = sweep_line(r.id, k.workload, k.ranks, "software", 1000,
                            1000 + rng.next() % kHotSeeds,
                            r.kind == Kind::kStream);
      }
      reqs.push_back(std::move(r));
    }
    t = end;
  }
  return reqs;
}

noise::UniformCeNoiseModel noise_for(const server::SweepRequest& req) {
  core::LoggingMode mode = core::LoggingMode::kSoftware;
  if (req.mode == "hardware") mode = core::LoggingMode::kHardwareOnly;
  if (req.mode == "firmware") mode = core::LoggingMode::kFirmware;
  return noise::UniformCeNoiseModel(from_seconds(req.mtbce_ms * 1e-3),
                                    core::cost_model(mode));
}

}  // namespace

void run_serve_mix(const Options& opt, Report& report, Tracer* tracer) {
  SplitMix64 rng(opt.seed);

  // --- set-up: daemon start + hot-key warm-up, opt.setups times ----------
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.setups > 0 ? opt.setups : kSetups); ++rep) {
    server.reset();
    const Timer timer;
    server = start_server(opt, tracer);
    setup_s.push_back(timer.seconds());
  }
  report.metric("setup_s", median(setup_s), "s", setup_s.size());

  util::ScopedFd control = util::connect_unix(opt.socket);
  util::LineReader control_reader(control.get());
  const std::string stats0 = exchange(control.get(), control_reader,
                                      "stats --id 1");

  // --- measured phase: the open-loop schedule ----------------------------
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Req> reqs = make_schedule(opt, rng, start);
  report.attempt(reqs.size());
  std::map<std::int64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < reqs.size(); ++i) by_id[reqs[i].id] = i;

  std::vector<util::ScopedFd> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(util::connect_unix(opt.socket));
  }
  std::mutex mu;  // guards the answered/done/terminal fields of reqs
  std::atomic<std::size_t> outstanding{reqs.size()};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<std::thread> threads;
  std::uint64_t phase_span = 0;
  if (tracer != nullptr) phase_span = tracer->open("bench.serve", 0, 0);
  const double cpu0 = process_cpu_seconds();
  // One sender thread serves the schedule, alternating connections; one
  // reader thread per connection collects the answers.
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      std::this_thread::sleep_until(reqs[i].due);
      reqs[i].sent = Clock::now();
      if (!util::write_all(conns[i % kConnections].get(),
                           reqs[i].line + "\n")) {
        dropped.fetch_add(1);
        return;
      }
    }
  });
  for (int c = 0; c < kConnections; ++c) {
    const int fd = conns[static_cast<std::size_t>(c)].get();
    threads.emplace_back([&, fd] {
      util::LineReader reader(fd);
      std::string line;
      try {
        while (outstanding.load() > 0 && reader.read_line(line)) {
          if (event_of(line) == "run") continue;
          const Clock::time_point now = Clock::now();
          const auto it = by_id.find(id_of(line));
          if (it == by_id.end()) continue;
          const std::lock_guard<std::mutex> lock(mu);
          Req& r = reqs[it->second];
          if (r.answered) continue;
          r.answered = true;
          r.done = now;
          r.terminal = line;
          outstanding.fetch_sub(1);
        }
      } catch (const Error&) {
        dropped.fetch_add(1);
      }
    });
  }
  // Wait for every answer, bounded: an unanswered request is a failure.
  const Clock::time_point deadline =
      reqs.back().due + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kDrainTimeoutS));
  while (outstanding.load() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double cpu_s = process_cpu_seconds() - cpu0;
  for (auto& fd : conns) ::shutdown(fd.get(), SHUT_RDWR);
  for (auto& t : threads) t.join();
  if (tracer != nullptr) {
    tracer->close(phase_span);
    // One span per answered request, from its due time to its answer.
    static constexpr const char* kSpanNames[] = {
        "server.hit", "server.stream", "server.build", "server.stats",
        "server.ping"};
    for (const Req& r : reqs) {
      if (!r.answered) continue;
      tracer->record(kSpanNames[static_cast<int>(r.kind)], phase_span, r.id,
                     r.due, r.done);
    }
  }
  const std::string stats1 = exchange(control.get(), control_reader,
                                      "stats --id 2");

  // --- latency accounting -------------------------------------------------
  std::vector<double> lat[2][kWindows];
  std::vector<double> hit_ms;
  std::vector<double> build_ms;
  std::vector<double> lag_ms;
  double queue_max = 0.0;
  std::size_t hi_done = 0;
  Clock::time_point hi_first = Clock::time_point::max();
  Clock::time_point hi_last = Clock::time_point::min();
  std::map<std::string, std::size_t> served_by_key;  // key -> request index
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Req& r = reqs[i];
    lag_ms.push_back(ms_between(r.due, r.sent));
    if (!r.answered) {
      report.fail("serve-mix: request " + std::to_string(r.id) +
                  " never answered");
      continue;
    }
    const std::string event = event_of(r.terminal);
    const bool ok = (r.kind == Kind::kStats && event == "stats") ||
                    (r.kind == Kind::kPing && event == "pong") ||
                    event == "result";
    if (!ok) {
      report.fail("serve-mix: request " + std::to_string(r.id) +
                  " answered with " + r.terminal);
      continue;
    }
    const double ms = ms_between(r.due, r.done);
    lat[r.phase][r.window].push_back(ms);
    if (r.kind == Kind::kHot) hit_ms.push_back(ms);
    if (r.kind == Kind::kCold) build_ms.push_back(ms);
    if (r.kind == Kind::kStats) {
      queue_max = std::max(queue_max, static_cast<double>(field_u64(
                                          r.terminal, "queue_depth")));
    }
    if (event == "result") served_by_key.emplace(key_of(r.line), i);
    if (r.phase == 1) {
      ++hi_done;
      hi_first = std::min(hi_first, r.due);
      hi_last = std::max(hi_last, r.done);
    }
  }
  for (std::uint64_t i = 0; i < dropped.load(); ++i) {
    report.fail("serve-mix: a connection dropped mid-request");
  }
  const auto delta = [&](const char* name) {
    return static_cast<double>(field_u64(stats1, name) -
                               field_u64(stats0, name));
  };
  const double rejected = delta("rejected_parse") + delta("rejected_quota") +
                          delta("rejected_queue") +
                          delta("rejected_draining");
  for (int i = 0; i < static_cast<int>(rejected); ++i) {
    report.fail("serve-mix: the daemon refused a request");
  }
  // A phase's latency percentile is the lowest of that percentile over the
  // phase's three windows: other load on the host lifts whole windows, and
  // the least disturbed window is the steadiest view of the daemon (the
  // usual minimum-of-repetitions rule, applied per window).
  const auto windowed = [&](int phase, double (*stat)(std::vector<double>)) {
    double best = stat(lat[phase][0]);
    for (const auto& w : lat[phase]) best = std::min(best, stat(w));
    return best;
  };
  std::size_t n[2] = {0, 0};
  for (int phase = 0; phase < 2; ++phase) {
    for (const auto& w : lat[phase]) n[phase] += w.size();
  }
  const double hi_p50 = windowed(1, median);
  const double hi_p99 = windowed(1, tail);
  report.metric("serve.lo.latency_ms.p50", windowed(0, median), "ms", n[0]);
  report.metric("serve.lo.latency_ms.p99", windowed(0, tail), "ms", n[0]);
  report.metric("serve.hi.latency_ms.p50", hi_p50, "ms", n[1]);
  report.metric("serve.hi.latency_ms.p99", hi_p99, "ms", n[1]);
  report.metric("serve.hi.completed_rps",
                static_cast<double>(hi_done) /
                    std::chrono::duration<double>(hi_last - hi_first).count(),
                "1/s", hi_done);
  // At `lo` most requests wake idle threads, and on a virtual machine those
  // wake-ups vary from run to run more than the service time does; the
  // busier `hi` phase gives the steadier median.
  report.metric("work_s", hi_p50 / 1e3, "s", n[1]);
  report.metric("tail_s", hi_p99 / 1e3, "s", n[1]);
  report.metric("work_cpu_s", cpu_s / static_cast<double>(n[0] + n[1]), "s",
                n[0] + n[1]);
  report.metric("server.hit.latency_ms.p50", median(hit_ms), "ms",
                hit_ms.size());
  report.metric("server.build.latency_ms.p50", median(build_ms), "ms",
                build_ms.size());
  report.metric("server.runner_hits", delta("runner_hits"), "count");
  report.metric("server.runner_builds", delta("runner_builds"), "count");
  report.metric("server.runner_evictions", delta("runner_evictions"),
                "count");
  report.metric("server.rejected", rejected, "count");
  report.metric("server.queue_depth.max", queue_max, "count");
  report.metric("serve.generator_lag_ms.p99", tail(lag_ms), "ms",
                lag_ms.size());
  server.reset();

  // --- output check: served result == batch result, per distinct key -----
  std::map<std::string, std::unique_ptr<core::ExperimentRunner>> batch;
  for (const auto& [key, i] : served_by_key) {
    const Req& r = reqs[i];
    const server::SweepRequest req = server::parse_request(r.line).sweep;
    const auto workload = workloads::find_workload(req.workload);
    const std::string runner_key = server::RunnerRegistry::key_for(req);
    auto& runner = batch[runner_key];
    if (!runner) {
      const Span span(tracer, "core.runner_build", r.id);
      runner = std::make_unique<core::ExperimentRunner>(
          *workload, server::RunnerRegistry::config_for(*workload, req.ranks,
                                                        req.sim_s, req.rep));
    }
    const std::string expect = server::result_line(
        req.id, runner->measure(noise_for(req), req.seeds, req.base_seed,
                                req.horizon, req.jobs));
    report.attempt();
    if (r.terminal + "\n" != expect) {
      report.fail("serve-mix: served result for '" + key +
                  "' differs from the batch result");
    }
    // Cold keys are used once; keeping their runners would only grow RSS.
    if (r.kind == Kind::kCold) batch.erase(runner_key);
  }

  // --- the same hot requests served in-process: the daemon's overhead ----
  server::RunnerRegistry registry;
  std::vector<double> direct_ms;
  std::vector<const Req*> hot;
  for (const Req& r : reqs) {
    if (r.kind == Kind::kHot) hot.push_back(&r);
  }
  for (const Req* r : hot) {
    static_cast<void>(registry.get(server::parse_request(r->line).sweep));
  }
  for (std::size_t k = 0; k < kDirectCalls && !hot.empty(); ++k) {
    const Req& r = *hot[k % hot.size()];
    const server::SweepRequest req = server::parse_request(r.line).sweep;
    const Timer timer;
    {
      const Span span(tracer, "server.direct", r.id);
      const auto runner = registry.get(req);
      const std::string line = server::result_line(
          req.id, runner->measure(noise_for(req), req.seeds, req.base_seed,
                                  req.horizon, req.jobs));
      trace_count(tracer, "server.direct_bytes",
                  static_cast<double>(line.size()));
    }
    direct_ms.push_back(timer.seconds() * 1e3);
  }
  const double direct = median(direct_ms);
  report.metric("server.direct_ms.p50", direct, "ms", direct_ms.size());
  report.metric("server.overhead_ms.p50", median(hit_ms) - direct, "ms",
                hit_ms.size());
}

}  // namespace celog::perfbench

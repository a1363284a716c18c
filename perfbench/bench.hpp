// perfbench/bench.hpp
//
// Shared plumbing of the celog benchmark binary: run options, the metric
// report every workload fills, failure accounting, wall/CPU/RSS readers,
// and the in-memory span tracer used by traced runs.
//
// Every layer is measured from outside: a Span wraps the benchmark's own
// call into a layer's public function. Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace celog::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (JSONL); empty = nowhere.
  std::string trace_out;
  /// Unix socket path for serve-mix (relative paths resolve against the
  /// process's working directory, which keeps it under sun_path's limit).
  std::string socket = "perfbench.sock";
  /// How many times the workload's set-up is repeated (median reported);
  /// 0 = the workload's own default.
  int setups = 0;
};

/// Wall-clock stopwatch on the steady clock.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU seconds consumed by the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// Median (linear interpolation) of `v`; 0 for an empty vector.
double median(std::vector<double> v);
/// The highest percentile that still has at least ten samples above it
/// (nearest rank); the maximum when there are fewer than eleven samples.
double tail(std::vector<double> v);

/// True when two runs agree on every SimResult field.
bool same_result(const sim::SimResult& a, const sim::SimResult& b);

/// Metrics and failure accounting of one workload run.
class Report {
 public:
  void metric(const std::string& name, double value, std::string_view unit,
              std::size_t samples = 1);
  /// Counts `n` attempted operations.
  void attempt(std::uint64_t n = 1);
  /// Counts one failed operation and remembers why.
  void fail(const std::string& why);
  /// Records a fact about the run (build type, nproc, ...).
  void meta(const std::string& key, const std::string& value);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// A recorded metric's value; 0 when it was never recorded.
  double value(const std::string& name) const;
  /// One JSON object: metrics, attempted, failed, failures, meta.
  std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. Spans carry a name "<layer>.<call>", start,
/// end, parent span and an item id (cell, run or request). Counts are
/// recorded beside them. Nothing is written until write_jsonl().
class Tracer {
 public:
  Tracer();

  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::int64_t item);
  void close(std::uint64_t id);
  /// Records a span whose interval was measured elsewhere (an asynchronous
  /// request, from its due time to its answer).
  void record(std::string_view name, std::uint64_t parent, std::int64_t item,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);
  void count(std::string_view name, double delta);

  std::size_t spans() const;
  /// Self time per layer (span time minus the part its children cover),
  /// summed over every span of that layer, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Writes one JSON line per span, then one per count.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    std::uint64_t parent = 0;
    std::int64_t item = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::int64_t since_epoch_ns(std::chrono::steady_clock::time_point t) const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Rec> recs_;  ///< index + 1 == span id
  std::map<std::string, double> counts_;
};

/// RAII span around one layer call. A null tracer makes it a no-op, so
/// untraced runs pay one branch. The parent defaults to the innermost open
/// span on this thread; work handed to another thread passes it
/// explicitly.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::int64_t item = -1);
  Span(Tracer* tracer, std::string_view name, std::int64_t item,
       std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  std::uint64_t prev_ = 0;
};

/// The innermost open span on the calling thread (0 = none).
std::uint64_t current_span();

/// Adds to a count when tracing; no-op otherwise.
inline void trace_count(Tracer* tracer, std::string_view name, double delta) {
  if (tracer != nullptr) tracer->count(name, delta);
}

// The four workloads. Each fills `report`; `tracer` is null for untraced
// runs.
void run_paper_grid(const Options& opt, Report& report, Tracer* tracer);
void run_exascale_gen(const Options& opt, Report& report, Tracer* tracer);
void run_fleet_campaign(const Options& opt, Report& report, Tracer* tracer);
void run_serve_mix(const Options& opt, Report& report, Tracer* tracer);

}  // namespace celog::perfbench

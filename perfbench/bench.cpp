// perfbench/bench.cpp — Report, Tracer and the shared helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace celog::perfbench {

namespace {

thread_local std::uint64_t tls_current_span = 0;

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank with at least ten samples strictly above it; p99 once
  // there are 1000+ samples.
  const std::size_t n = v.size();
  if (n < 11) return v.back();
  const std::size_t p99_rank = n - std::max<std::size_t>(n / 100, 1);
  const std::size_t rank = std::min(p99_rank, n - 11);
  return v[rank];
}

void Report::metric(const std::string& name, double value,
                    std::string_view unit, std::size_t samples) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, std::string(unit), samples};
}

void Report::attempt(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::fail(const std::string& why) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
  std::fprintf(stderr, "[perfbench] FAILED: %s\n", why.c_str());
}

void Report::meta(const std::string& key, const std::string& value) {
  const std::lock_guard<std::mutex> lock(mu_);
  meta_[key] = value;
}

std::uint64_t Report::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Report::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.makespan == b.makespan && a.rank_finish == b.rank_finish &&
         a.data_messages == b.data_messages &&
         a.control_messages == b.control_messages &&
         a.noise_stolen == b.noise_stolen &&
         a.detours_charged == b.detours_charged &&
         a.events_processed == b.events_processed;
}

double Report::value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string Report::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(name) + "\":{\"value\":" +
           json_number(m.value) + ",\"unit\":\"" + json_escape(m.unit) +
           "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + json_escape(failures_[i]) + "\"";
  }
  out += "],\"meta\":{";
  first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  out += "}}";
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::since_epoch_ns(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint64_t Tracer::open(std::string_view name, std::uint64_t parent,
                           std::int64_t item) {
  const std::int64_t t = since_epoch_ns(std::chrono::steady_clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back(Rec{std::string(name), parent, item, t, -1});
  return recs_.size();
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t t = since_epoch_ns(std::chrono::steady_clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  recs_[id - 1].end_ns = t;
}

void Tracer::record(std::string_view name, std::uint64_t parent,
                    std::int64_t item,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back(Rec{std::string(name), parent, item, since_epoch_ns(start),
                      since_epoch_ns(end)});
}

void Tracer::count(std::string_view name, double delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  counts_[std::string(name)] += delta;
}

std::size_t Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recs_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      recs_.size());
  for (const Rec& r : recs_) {
    if (r.parent != 0 && r.end_ns >= 0) {
      kids[r.parent - 1].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the children, clipped to this span.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const std::int64_t lo = std::max(lo0, r.start_ns);
      const std::int64_t hi = std::min(hi0, r.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[layer_of(r.name)] +=
        static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    out << "{\"span\":" << (i + 1) << ",\"name\":\"" << json_escape(r.name)
        << "\",\"parent\":" << r.parent << ",\"item\":" << r.item
        << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << "}\n";
  }
  for (const auto& [name, value] : counts_) {
    out << "{\"count\":\"" << json_escape(name)
        << "\",\"value\":" << json_number(value) << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, std::string_view name, std::int64_t item)
    : Span(tracer, name, item, tls_current_span) {}

Span::Span(Tracer* tracer, std::string_view name, std::int64_t item,
           std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->open(name, parent, item);
  prev_ = tls_current_span;
  tls_current_span = id_;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_);
  tls_current_span = prev_;
}

std::uint64_t current_span() { return tls_current_span; }

}  // namespace celog::perfbench

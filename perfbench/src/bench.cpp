#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id, std::uint64_t work) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  s.work = work;
  stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<double> Tracer::per_work(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.work > 0) {
      out.push_back((s.end_ns - s.start_ns) * 1e-9 /
                    static_cast<double>(s.work));
    }
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (double d : durations(name)) sum += d;
  return sum;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kLayers = {
      "sim.cycle_jump", "sim.registry", "sim.ckpt", "graph",
      "core",           "serve",        "bench"};
  return kLayers;
}

namespace {

std::string layer_of(const std::string& name) {
  for (const std::string& layer : layer_names()) {
    if (name.compare(0, layer.size(), layer) == 0 &&
        (name.size() == layer.size() || name[layer.size()] == '.')) {
      return layer;
    }
  }
  return "bench";
}

}  // namespace

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const std::string& layer : layer_names()) self[layer] = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[layer_of(s.name)] += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"work\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 static_cast<unsigned long long>(s.work));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  // Linear interpolation between the closest ranks (numpy's default).
  const double rank = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

void CycleJumpTotals::add(Tracer& tr, const rr::sim::Engine& engine) {
  const auto* cj = dynamic_cast<const rr::sim::CycleJumpEngine*>(&engine);
  if (!cj) return;
  const rr::sim::CycleJumpStats st =
      traced(tr, "sim.cycle_jump.stats", 0, [&] { return cj->stats(); });
  samples += static_cast<double>(st.samples);
  candidates += static_cast<double>(st.candidates);
  rejects += static_cast<double>(st.rejects);
  confirm_laps += static_cast<double>(st.confirm_laps);
  leaps += static_cast<double>(st.leaps);
  leaped_rounds += static_cast<double>(st.leaped_rounds);
  abandoned += st.abandoned ? 1 : 0;
}

void CycleJumpTotals::put(std::map<std::string, double>& m) const {
  m["sim.cycle_jump.samples"] = samples;
  m["sim.cycle_jump.candidates"] = candidates;
  m["sim.cycle_jump.rejects"] = rejects;
  m["sim.cycle_jump.confirm_laps"] = confirm_laps;
  m["sim.cycle_jump.leaps"] = leaps;
  m["sim.cycle_jump.leaped_rounds"] = leaped_rounds;
  m["sim.cycle_jump.abandoned"] = abandoned;
  // Useful outcomes over attempts: candidates that survived confirmation.
  m["sim.cycle_jump.confirm_ratio"] =
      candidates > 0 ? (candidates - rejects) / candidates : 0;
}

double rotor_state_bytes(double n, double arcs) {
  return n * (32 + 32 + 4 + 8) + arcs * 8;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double op_median(const std::map<std::string, std::vector<double>>& ops) {
  std::vector<double> medians;
  for (const auto& [kind, xs] : ops) medians.push_back(median(xs));
  return median(std::move(medians));
}

double op_percentile(const std::map<std::string, std::vector<double>>& ops,
                     double p) {
  std::vector<double> all;
  for (const auto& [kind, xs] : ops) all.insert(all.end(), xs.begin(), xs.end());
  return percentile(std::move(all), p);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::advance() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

}  // namespace perfbench

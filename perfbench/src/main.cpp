// rr_perfbench: the repository benchmark program.
//
//   rr_perfbench --workload ring_cover|torus_bulk --seed N
//                --seconds S --trace 0|1 [--work-dir DIR] [--tiny]
//                [--corrupt-check]
//
// Sets the workload up five times (setup_s is the median), runs its job
// repeatedly for S seconds, checks the outputs untimed, and prints a
// one-line JSON report (named figures, environment) followed by the
// result line {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the first half of the
// time untraced and the second half with spans around every library
// call, and reports the per-layer metrics plus the tracing overhead (the
// traced-vs-untraced difference of each end-to-end metric). Exit status:
// 0 when every check passed, 1 when a check failed (the result line
// still prints), 2 on usage or set-up errors (no result line).

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 5;

/// End-to-end metrics, in BENCHMARK.json order: every workload reports
/// all of them.
struct EndToEnd {
  double setup_s = 0;
  double job_s = 0;
  double agent_steps_per_s = 0;
  double op_p50_ms = 0;
  double op_p99_ms = 0;
  double rss_peak_mb = 0;
};

/// Per-layer metrics, in BENCHMARK.json order. Layers a workload bypasses
/// report 0 (no call was made into them).
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> kNames = {
      {"graph.build_s", "s"},
      {"graph.csr_s", "s"},
      {"graph.arcs", "count"},
      {"graph.self_s", "s"},
      {"sim.registry.create_s", "s"},
      {"sim.registry.self_s", "s"},
      {"core.round_s", "s"},
      {"core.rotor.cover_s", "s"},
      {"core.rotor.tail_s", "s"},
      {"core.ring.cover_s", "s"},
      {"core.ring.tail_s", "s"},
      {"core.lazy.cover_s", "s"},
      {"core.lazy.tail_s", "s"},
      {"core.sharded.round_s", "s"},
      {"core.shard_efficiency", "ratio"},
      {"core.config_hash_s", "s"},
      {"core.self_s", "s"},
      {"sim.cycle_jump.samples", "count"},
      {"sim.cycle_jump.candidates", "count"},
      {"sim.cycle_jump.rejects", "count"},
      {"sim.cycle_jump.confirm_laps", "count"},
      {"sim.cycle_jump.leaps", "count"},
      {"sim.cycle_jump.leaped_rounds", "count"},
      {"sim.cycle_jump.abandoned", "count"},
      {"sim.cycle_jump.confirm_ratio", "ratio"},
      {"sim.cycle_jump.self_s", "s"},
      {"sim.ckpt.encode_s", "s"},
      {"sim.ckpt.save_s", "s"},
      {"sim.ckpt.parse_s", "s"},
      {"sim.ckpt.restore_s", "s"},
      {"sim.ckpt.bytes_per_node", "B"},
      {"sim.ckpt.self_s", "s"},
      {"serve.handle_s", "s"},
      {"serve.pump_s", "s"},
      {"serve.pumps_per_request", "ratio"},
      {"serve.evictions", "count"},
      {"serve.rehydrations", "count"},
      {"serve.rehydrations_per_step", "ratio"},
      {"serve.busy_replies", "count"},
      {"serve.rounds_stepped", "count"},
      {"serve.cj_wrapped", "count"},
      {"serve.wait_pumps.interactive", "count"},
      {"serve.wait_pumps.batch", "count"},
      {"serve.wait_pumps.background", "count"},
      {"serve.protocol.encode_s", "s"},
      {"serve.protocol.decode_s", "s"},
      {"serve.self_s", "s"},
      {"trace.spans", "count"},
      {"trace.overhead.setup_s", "ratio"},
      {"trace.overhead.job_s", "ratio"},
      {"trace.overhead.agent_steps_per_s", "ratio"},
      {"trace.overhead.op_p50_ms", "ratio"},
      {"trace.overhead.op_p99_ms", "ratio"},
  };
  return kNames;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rr_perfbench: %s\nusage: rr_perfbench --workload "
               "ring_cover|torus_bulk --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--tiny] [--corrupt-check]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    usage(flag + " expects an unsigned integer");
  }
  return x;
}

/// Size of the last-level cache from sysfs, in bytes (0 if unknown).
double llc_bytes() {
  double best = 0;
  int best_level = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_f(dir + "level"), size_f(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_f >> level) || !(size_f >> size)) continue;
    double bytes = std::atof(size.c_str());
    if (size.back() == 'K') bytes *= 1024;
    if (size.back() == 'M') bytes *= 1024 * 1024;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::unique_ptr<Workload> make(const std::string& name, const Options& opt) {
  if (name == "ring_cover") return make_ring_cover(opt);
  if (name == "torus_bulk") return make_torus_bulk(opt);
  usage("unknown workload '" + name + "'");
}

/// Runs the job until `seconds` have passed (at least two jobs).
void run_for(Workload& w, double seconds) {
  const auto t0 = Clock::now();
  int jobs = 0;
  do {
    w.rep();
    ++jobs;
  } while (jobs < 2 || seconds_since(t0) < seconds);
}

EndToEnd measure(const Workload& w) {
  EndToEnd e;
  e.job_s = median(w.job_times);
  e.agent_steps_per_s = median(w.job_rates);
  e.op_p50_ms = op_median(w.op_latencies) * 1e3;
  e.op_p99_ms = op_percentile(w.op_latencies, 0.99) * 1e3;
  return e;
}

double rel(double traced, double untraced) {
  return untraced != 0 ? (traced - untraced) / untraced : 0;
}

int run(int argc, char** argv) {
  Options opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, value());
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(a, value()));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-check") {
      opt.corrupt_check = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  opt.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(opt.work_dir);

  // Set-up, kSetups times; the last workload object is the one measured.
  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // free the previous instance before building the next
    w = make(workload, opt);
    if (opt.trace && i == kSetups - 1) w->tracer.set_on(true);
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
  }
  w->tracer.set_on(false);
  w->warm_up();

  EndToEnd e2e, untraced;
  if (!opt.trace) {
    run_for(*w, opt.seconds);
    e2e = measure(*w);
  } else {
    run_for(*w, opt.seconds / 2);
    untraced = measure(*w);
    w->reset_samples();
    w->tracer.set_on(true);
    run_for(*w, opt.seconds / 2);
    e2e = measure(*w);
  }
  w->tracer.set_on(false);
  // A traced run traces only its last set-up: the others give setup_s.
  const std::vector<double> untraced_setups(setups.begin(), setups.end() - 1);
  e2e.setup_s = median(opt.trace ? untraced_setups : setups);
  w->verify();
  e2e.rss_peak_mb = peak_rss_mb();

  const bool correct = w->failed == 0 && w->attempted > 0;
  const double failed_share =
      w->attempted ? static_cast<double>(w->failed) / w->attempted : 1;

  // ---- the report line: named figures and the environment ----
  std::string report = "{\"workload\":\"" + json_escape(workload) +
                       "\",\"seed\":" + std::to_string(opt.seed) +
                       ",\"traced\":" + (opt.trace ? "true" : "false");
  report += ",\"env\":{\"nproc\":" +
            std::to_string(std::thread::hardware_concurrency()) +
            ",\"threads\":" + std::to_string(opt.threads) +
            ",\"llc_bytes\":" + num(llc_bytes()) + ",\"build_type\":\"" +
            PERFBENCH_BUILD_TYPE + "\",\"ckpt_dir\":\"" +
            json_escape(opt.work_dir) + "\",\"ckpt_dir_fs\":\"" +
            fs_type(opt.work_dir) +
            "\",\"engine_state_bytes_computed_from_array_sizes\":" +
            num(w->state_bytes()) + "}";
  auto figures = w->figures();
  figures["setup_s"] = {e2e.setup_s, "s"};
  figures["failed_share"] = {failed_share, "ratio"};
  figures["rss_peak_mb"] = {e2e.rss_peak_mb, "MiB"};
  double op_samples = 0;
  for (const auto& [kind, xs] : w->op_latencies) {
    op_samples += static_cast<double>(xs.size());
  }
  figures["op_samples"] = {op_samples, "count"};
  for (const auto& [kind, xs] : w->op_latencies) {
    figures["op_ms." + kind] = {median(xs) * 1e3, "ms"};
  }
  report += ",\"figures\":{";
  bool first = true;
  for (const auto& [name, fig] : figures) {
    report += std::string(first ? "" : ",") + "\"" + json_escape(name) +
              "\":{\"value\":" + num(fig.value) + ",\"unit\":\"" +
              json_escape(fig.unit) + "\"}";
    first = false;
  }
  report += "}}";
  std::printf("report %s\n", report.c_str());

  // ---- the result line ----
  std::string metrics;
  auto put = [&](const std::string& name, double value, const char* unit) {
    metrics += std::string(metrics.empty() ? "" : ",") + "\"" + name +
               "\":{\"value\":" + num(value) + ",\"unit\":\"" + unit + "\"}";
  };
  if (!opt.trace) {
    put("setup_s", e2e.setup_s, "s");
    put("job_s", e2e.job_s, "s");
    put("agent_steps_per_s", e2e.agent_steps_per_s, "1/s");
    put("op_p50_ms", e2e.op_p50_ms, "ms");
    put("op_p99_ms", e2e.op_p99_ms, "ms");
    put("rss_peak_mb", e2e.rss_peak_mb, "MiB");
  } else {
    std::map<std::string, double> m;
    const Tracer& tr = w->tracer;
    auto med = [&](const char* span) { return median(tr.durations(span)); };
    m["graph.build_s"] = med("graph.build");
    m["graph.csr_s"] = med("graph.csr");
    m["sim.registry.create_s"] = med("sim.registry.create");
    m["core.config_hash_s"] = med("core.config_hash");
    m["sim.ckpt.encode_s"] = med("sim.ckpt.encode");
    m["sim.ckpt.save_s"] = med("sim.ckpt.save");
    m["sim.ckpt.parse_s"] = med("sim.ckpt.parse");
    m["sim.ckpt.restore_s"] = med("sim.ckpt.restore");
    m["serve.handle_s"] = med("serve.handle");
    m["serve.pump_s"] = med("serve.pump");
    m["serve.protocol.encode_s"] = med("serve.protocol.encode");
    m["serve.protocol.decode_s"] = med("serve.protocol.decode");
    for (const auto& [layer, self] : tr.self_time_by_layer()) {
      if (layer != "bench") m[layer + ".self_s"] = self;
    }
    m["trace.spans"] = static_cast<double>(tr.spans().size());
    m["trace.overhead.setup_s"] = rel(setups.back(), e2e.setup_s);
    m["trace.overhead.job_s"] = rel(e2e.job_s, untraced.job_s);
    m["trace.overhead.agent_steps_per_s"] =
        rel(e2e.agent_steps_per_s, untraced.agent_steps_per_s);
    m["trace.overhead.op_p50_ms"] = rel(e2e.op_p50_ms, untraced.op_p50_ms);
    m["trace.overhead.op_p99_ms"] = rel(e2e.op_p99_ms, untraced.op_p99_ms);
    w->add_layers(m);
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = m.find(name);
      put(name, it == m.end() ? 0 : it->second, unit);
      if (it != m.end()) m.erase(it);
    }
    if (!m.empty()) {
      throw std::logic_error("per-layer metric '" + m.begin()->first +
                             "' is not declared");
    }
    const std::string path = opt.work_dir + "/trace-" + workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!tr.write_json(path)) {
      throw std::runtime_error("cannot write trace file " + path);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(w->attempted),
      static_cast<unsigned long long>(w->failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rr_perfbench: %s\n", e.what());
    return 2;
  }
}

// Sustained checkpoint I/O and out-of-core stepping (rr-ckpt v2 +
// rr-graph images).
//
// Three measurements back the out-of-core scale work:
//
//   1. Checkpoint codec throughput, v1 text vs v2 binary, across
//      2^20..2^24-node rings: save (serialize) and load (parse +
//      deserialize into a live engine) in nodes/s, plus bytes/node.
//      The v2 acceptance bar is a >= 5x combined save+load speedup at
//      the largest size.
//   2. The paper-scale density point: 256^2 torus, k = 64 — v2 must
//      stay at <= 6 bytes/node where v1 text costs ~20.
//   3. Out-of-core stepping: a ~1e8-node ring image (8.8 GB on disk at
//      scale 1) stepped through the mmap substrate, reporting rounds/s
//      and the process peak RSS (VmHWM) against the image size — the
//      run must not fault the whole image into memory.
//   4. Resume latency on a 2048^2 torus (at scale 1): checkpoint file
//      to an engine ready to step through the registry, cold (the
//      substrate is built) and warm (a live engine already holds it).
//
// Lanes 1-3 build engines over rr-graph images rather than in-RAM
// Graphs, so instance construction is O(agents) and the bench itself
// stays out-of-core honest. Samples publish through
// sim::BenchJsonWriter (RR_BENCH_JSON) for tools/bench_diff.py:
// *_per_s keys are higher-is-better, bytes_per_node lower-is-better.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/table.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/mmap_substrate.hpp"
#include "graph/substrate.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"

namespace {

using rr::analysis::Table;
using rr::core::RotorRouter;
using rr::graph::MappedSubstrate;
using rr::graph::NodeId;
using rr::sim::CkptFormat;

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

std::string tmp_dir() {
  if (const char* env = std::getenv("TMPDIR")) return env;
  return "/tmp";
}

// Peak resident set size of this process (bytes); 0 where unavailable.
// Linux-only (VmHWM in /proc/self/status) — the out-of-core RSS check
// degrades to informational elsewhere.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

std::vector<NodeId> spread_agents(std::uint64_t n, std::uint32_t k) {
  std::vector<NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<NodeId>(i * n / k);
  }
  return agents;
}

const char* format_name(CkptFormat f) {
  return f == CkptFormat::kV1 ? "v1" : "v2";
}

struct IoSample {
  double save_s = 0;
  double load_s = 0;
  std::size_t bytes = 0;
};

// One save + load measurement of `engine` (which must be a RotorRouter
// over an image at `image_path`) in `format`. Load goes through
// parse_checkpoint and deserialize_state on an engine over a *fresh
// open* of the image — the exact resume path minus the disk: engines
// sharing one open share the COW mapping, so resuming always starts
// from its own pristine mapping (which is also what lets the restore
// skip pages that match the image).
IoSample measure_io(const std::string& image_path,
                    const std::shared_ptr<MappedSubstrate>& substrate,
                    const rr::sim::Engine& engine, CkptFormat format) {
  IoSample s;
  substrate->advise_sequential();
  auto t0 = std::chrono::steady_clock::now();
  const std::string text =
      rr::sim::write_checkpoint(engine, substrate->descriptor(), format);
  s.save_s = now_minus(t0);
  s.bytes = text.size();

  auto resume = MappedSubstrate::open(image_path);
  RR_REQUIRE(resume != nullptr, "bench image failed to re-open");
  RotorRouter sink(resume, {0});
  t0 = std::chrono::steady_clock::now();
  const auto parsed = rr::sim::parse_checkpoint(text);
  const bool ok = parsed && sink.deserialize_state(parsed->state);
  s.load_s = now_minus(t0);
  RR_REQUIRE(ok, "bench checkpoint failed to round-trip");
  RR_REQUIRE(sink.config_hash() == engine.config_hash(),
             "bench round-trip changed the configuration");
  return s;
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Checkpoint codec throughput (rr-ckpt v1 vs v2) and out-of-core "
      "stepping",
      "observation layer; Sec. 1.3 state (pointers, counts, n_v/e_v)");
  rr::sim::BenchJsonWriter json;
  const std::string dir = tmp_dir();
  constexpr std::uint32_t kAgents = 64;
  constexpr int kReps = 3;

  // --- 1. v1 vs v2 save/load across sizes. ---
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t base : {1ull << 20, 1ull << 22, 1ull << 24}) {
    const std::uint64_t n = rr::sim::scaled_pow2(base);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  double v1_rate_largest = 0, v2_rate_largest = 0;
  {
    Table t({"n", "fmt", "save s", "load s", "MB", "bytes/node",
             "save+load Mnodes/s"});
    for (const std::uint64_t n : sizes) {
      const std::string image = dir + "/bench_ckpt_io_ring.rrg";
      std::string error;
      RR_REQUIRE(MappedSubstrate::build("ring " + std::to_string(n), image,
                                        &error),
                 "bench image build failed");
      auto substrate = MappedSubstrate::open(image);
      RR_REQUIRE(substrate != nullptr, "bench image failed validation");
      RotorRouter engine(substrate, spread_agents(n, kAgents));
      substrate->advise_random();
      engine.run(rr::sim::scaled(1000));

      for (const CkptFormat format : {CkptFormat::kV1, CkptFormat::kV2}) {
        const std::string tag = std::string("CkptIO/") + format_name(format) +
                                "/ring_n" + std::to_string(n);
        double best_rate = 0;
        IoSample last;
        for (int rep = 0; rep < kReps; ++rep) {
          const IoSample s = measure_io(image, substrate, engine, format);
          const double rate =
              static_cast<double>(n) / (s.save_s + s.load_s);
          best_rate = std::max(best_rate, rate);
          last = s;
          json.add(tag + "/save_nodes_per_s",
                   static_cast<double>(n) / s.save_s);
          json.add(tag + "/load_nodes_per_s",
                   static_cast<double>(n) / s.load_s);
          json.add_metric(tag, "bytes_per_node",
                          static_cast<double>(s.bytes) / n);
        }
        if (n == sizes.back()) {
          (format == CkptFormat::kV1 ? v1_rate_largest : v2_rate_largest) =
              best_rate;
        }
        t.add_row({Table::integer(n), format_name(format),
                   Table::num(last.save_s, 3), Table::num(last.load_s, 3),
                   Table::num(static_cast<double>(last.bytes) / (1u << 20), 1),
                   Table::num(static_cast<double>(last.bytes) / n, 2),
                   Table::num(best_rate / 1e6, 1)});
      }
      std::remove(image.c_str());
    }
    t.print();
    const double speedup =
        v1_rate_largest > 0 ? v2_rate_largest / v1_rate_largest : 0;
    std::printf("\nv2 save+load speedup at n=%llu: %.1fx (acceptance: >= 5x)"
                " %s\n\n",
                static_cast<unsigned long long>(sizes.back()), speedup,
                speedup >= 5.0 ? "PASS" : "WARN");
  }

  // --- 2. Density at the paper-scale torus point. ---
  {
    const std::string image = dir + "/bench_ckpt_io_torus.rrg";
    std::string error;
    RR_REQUIRE(MappedSubstrate::build("torus 256 256", image, &error),
               "torus image build failed");
    auto substrate = MappedSubstrate::open(image);
    RR_REQUIRE(substrate != nullptr, "torus image failed validation");
    const std::uint64_t n = substrate->num_nodes();
    RotorRouter engine(substrate, spread_agents(n, kAgents));
    engine.run(rr::sim::scaled(20000));
    Table t({"fmt", "bytes", "bytes/node"});
    double v2_density = 0;
    for (const CkptFormat format : {CkptFormat::kV1, CkptFormat::kV2}) {
      const std::string text =
          rr::sim::write_checkpoint(engine, substrate->descriptor(), format);
      const double density = static_cast<double>(text.size()) / n;
      if (format == CkptFormat::kV2) v2_density = density;
      json.add_metric(std::string("CkptIO/") + format_name(format) +
                          "/torus256_k64",
                      "bytes_per_node", density);
      t.add_row({format_name(format), Table::integer(text.size()),
                 Table::num(density, 2)});
    }
    t.print();
    std::printf("\nv2 density on torus 256^2, k=64: %.2f bytes/node"
                " (acceptance: <= 6) %s\n\n",
                v2_density, v2_density <= 6.0 ? "PASS" : "WARN");
    std::remove(image.c_str());
  }

  // --- 3. Out-of-core stepping through the mmap substrate. ---
  {
    const std::uint64_t n = rr::sim::scaled(100000000, 1u << 16);
    const std::string image = dir + "/bench_ckpt_io_ooc.rrg";
    std::string error;
    auto t0 = std::chrono::steady_clock::now();
    RR_REQUIRE(MappedSubstrate::build("ring " + std::to_string(n), image,
                                      &error),
               "out-of-core image build failed");
    const double build_s = now_minus(t0);
    auto substrate = MappedSubstrate::open(image);
    RR_REQUIRE(substrate != nullptr, "out-of-core image failed validation");
    const double image_gb =
        static_cast<double>(substrate->image_bytes()) / (1u << 30);

    t0 = std::chrono::steady_clock::now();
    RotorRouter engine(substrate, spread_agents(n, kAgents));
    substrate->advise_random();
    const double construct_s = now_minus(t0);

    const std::uint64_t rounds = rr::sim::scaled(20000);
    t0 = std::chrono::steady_clock::now();
    engine.run(rounds);
    const double step_s = now_minus(t0);
    const double rounds_per_s = static_cast<double>(rounds) / step_s;
    const std::uint64_t rss = peak_rss_bytes();

    Table t({"n", "image GB", "build s", "construct s", "rounds",
             "rounds/s", "peak RSS GB"});
    t.add_row({Table::integer(n), Table::num(image_gb, 2),
               Table::num(build_s, 1), Table::num(construct_s, 3),
               Table::integer(rounds), Table::sci(rounds_per_s),
               rss ? Table::num(static_cast<double>(rss) / (1u << 30), 2)
                   : "-"});
    t.print();
    json.add("CkptIO/ooc/rounds_per_s", rounds_per_s);
    if (rss > 0) {
      json.add_metric("CkptIO/ooc/peak_rss", "rss_bytes",
                      static_cast<double>(rss));
      std::printf("\npeak RSS %.2f GB vs %.2f GB image (acceptance: RSS"
                  " well below a resident image) %s\n\n",
                  static_cast<double>(rss) / (1u << 30), image_gb,
                  static_cast<double>(rss) < 0.5 * substrate->image_bytes()
                      ? "PASS"
                      : "WARN");
    }
    std::remove(image.c_str());
  }

  // --- 4. Resume latency: checkpoint file -> engine ready to step. ---
  //
  // The registry path every resume takes (rr_cli --resume, served
  // rehydration): parse the file, intern the substrate, restore. Cold
  // means no live engine holds the torus substrate, so the resume builds
  // it; warm means one live engine on the same descriptor does, so the
  // resume shares its adjacency and pays only for its own state arrays
  // plus decode.
  {
    const auto side = static_cast<NodeId>(rr::sim::scaled(2048, 64));
    const auto d = rr::graph::GraphDescriptor::torus(side, side);
    const std::uint64_t n = std::uint64_t{side} * side;
    const std::string path = dir + "/bench_ckpt_io_resume.ckpt";
    rr::sim::EngineConfig config;
    config.agents = spread_agents(n, static_cast<std::uint32_t>(n / 16));
    std::uint64_t want_hash = 0;
    {
      auto live = rr::sim::EngineRegistry::instance().create("rotor", d, config);
      RR_REQUIRE(live != nullptr, "resume lane engine failed to build");
      live->run(32);
      want_hash = live->config_hash();
      RR_REQUIRE(rr::sim::save_checkpoint_file(
                     path, rr::sim::write_checkpoint(*live, d.text(),
                                                     CkptFormat::kV2)),
                 "resume lane checkpoint write failed");
    }
    const auto resume_s = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      const auto engine = rr::sim::restore_checkpoint_file(path);
      const double dt = now_minus(t0);
      RR_REQUIRE(engine != nullptr && engine->config_hash() == want_hash,
                 "resume lane restore changed the configuration");
      return dt;
    };
    const std::string tag = "CkptIO/resume/torus_" + std::to_string(side);
    std::vector<double> cold, warm;
    for (int rep = 0; rep < kReps; ++rep) {
      RR_REQUIRE(!rr::graph::substrate_interned(d),
                 "cold resume found a live substrate");
      cold.push_back(resume_s());
      json.add(tag + "/cold_resumes_per_s", 1.0 / cold.back());
    }
    {
      auto live = rr::sim::EngineRegistry::instance().create("rotor", d, config);
      RR_REQUIRE(live != nullptr, "resume lane engine failed to build");
      for (int rep = 0; rep < kReps; ++rep) {
        warm.push_back(resume_s());
        json.add(tag + "/warm_resumes_per_s", 1.0 / warm.back());
      }
    }
    std::sort(cold.begin(), cold.end());
    std::sort(warm.begin(), warm.end());
    const unsigned cores = std::thread::hardware_concurrency();
    Table t({"torus", "nodes", "cores", "cold resume s", "warm resume s",
             "cold/warm"});
    t.add_row({std::to_string(side) + "^2", Table::integer(n),
               Table::integer(cores), Table::num(cold[kReps / 2], 3),
               Table::num(warm[kReps / 2], 3),
               Table::num(cold[kReps / 2] / warm[kReps / 2], 2)});
    t.print();
    std::printf("\n(median of %d resumes each, checkpoint file to an engine "
                "ready to step)\n",
                kReps);
    std::remove(path.c_str());
  }
  return 0;
}

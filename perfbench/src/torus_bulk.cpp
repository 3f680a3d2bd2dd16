// torus_bulk: one big rr_cli-run-style problem. k agents at seeded
// uniform random nodes of a W x H torus, stepped R rounds per job by two
// rotor engines built through the registry and wrapped for cycle leaping:
// a shard-parallel one (shards = threads) and the plain single-threaded
// baseline. The baseline's state is then saved as a v2 checkpoint file,
// parsed and restored, and the restored engine replaces the baseline.
// Checks: sharded == sequential config_hash after every run, and the
// resumed engine == sharded after a few more rounds.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"

namespace perfbench {
namespace {

using rr::sim::Engine;

class TorusBulk final : public Workload {
 public:
  explicit TorusBulk(const Options& opt) : opt_(opt) {
    side_ = opt.tiny ? 64 : 2048;
    k_ = opt.tiny ? 256 : (1u << 18);
    rounds_ = opt.tiny ? 16 : 32;
    chunk_ = rounds_ / 4;
    resumed_rounds_ = opt.tiny ? 4 : 8;
    path_ = opt.work_dir + "/torus_bulk.ckpt";
  }

  ~TorusBulk() override { std::remove(path_.c_str()); }

  void setup() override {
    descriptor_ = rr::graph::GraphDescriptor::torus(side_, side_);
    n_ = static_cast<double>(side_) * side_;
    {
      const auto graph = traced(tracer, "graph.build", side_ * side_,
                                [&] { return descriptor_.build(); });
      if (!graph) throw std::runtime_error("torus descriptor does not build");
      const auto csr = traced(tracer, "graph.csr", side_ * side_,
                              [&] { return rr::graph::CsrGraph(*graph); });
      arcs_ = static_cast<double>(csr.num_arcs());
    }
    rr::Rng rng(opt_.seed ^ 0x746f727573ULL);
    rr::sim::EngineConfig config;
    config.agents = rr::core::place_random(side_ * side_, k_, rng);
    sharded_ = create(config, opt_.threads);
    sequential_ = create(config, 1);
  }

  void rep() override {
    const auto t_job = Clock::now();
    // The rounds go in chunks, each timed on both engines, so that a run
    // holds several rate samples per job and their median passes over a
    // chunk that the host slowed down.
    for (std::uint64_t done = 0; done < rounds_; done += chunk_) {
      const auto t_sh = Clock::now();
      traced(tracer, "core.sharded.run", chunk_, [&] { sharded_->run(chunk_); });
      sharded_s_.push_back(seconds_since(t_sh));
      const auto t_seq = Clock::now();
      traced(tracer, "core.seq.run", chunk_, [&] { sequential_->run(chunk_); });
      seq_s_.push_back(seconds_since(t_seq));
      job_rates.push_back(2 * k_ * static_cast<double>(chunk_) /
                          (sharded_s_.back() + seq_s_.back()));
    }
    count(hash(*sharded_) == (hash(*sequential_) ^ corrupt()));

    // Save: encode plus atomic file write.
    const auto t_save = Clock::now();
    const std::string text = traced(tracer, "sim.ckpt.encode", 0, [&] {
      return rr::sim::write_checkpoint(*sequential_, descriptor_.text(),
                                       rr::sim::CkptFormat::kV2);
    });
    const bool saved =
        traced(tracer, "sim.ckpt.save", text.size(),
               [&] { return rr::sim::save_checkpoint_file_atomic(path_, text); });
    save_s_.push_back(seconds_since(t_save));
    count(saved);
    bytes_per_node_ = static_cast<double>(text.size()) / n_;

    // Resume: checkpoint file to a wrapped engine ready to step. The
    // baseline is freed first so at most two engines are resident.
    sequential_.reset();
    const auto t_resume = Clock::now();
    const auto parsed = traced(tracer, "sim.ckpt.parse", 0,
                               [&] { return rr::sim::parse_checkpoint_file(path_); });
    if (!parsed) throw std::runtime_error("cannot parse " + path_);
    auto restored = traced(tracer, "sim.ckpt.restore", 0,
                           [&] { return rr::sim::restore_checkpoint(*parsed); });
    if (!restored) throw std::runtime_error("cannot restore " + path_);
    sequential_ = wrap(std::move(restored));
    op_latencies["resume"].push_back(seconds_since(t_resume));

    traced(tracer, "core.seq.run", resumed_rounds_,
           [&] { sequential_->run(resumed_rounds_); });
    traced(tracer, "core.sharded.run", resumed_rounds_,
           [&] { sharded_->run(resumed_rounds_); });
    count(hash(*sharded_) == hash(*sequential_));
    job_times.push_back(seconds_since(t_job));
  }

  /// One untimed job: the first save creates the checkpoint file and the
  /// first resume is the first to fault in a restored engine's pages.
  void warm_up() override {
    rep();
    reset_samples();
  }

  void reset_samples() override {
    Workload::reset_samples();
    sharded_s_.clear();
    seq_s_.clear();
    save_s_.clear();
  }

  std::map<std::string, Figure> figures() const override {
    std::map<std::string, Figure> f;
    f["sharded_agent_steps_per_s"] = {
        k_ * static_cast<double>(chunk_) / median(sharded_s_), "1/s"};
    f["seq_agent_steps_per_s"] = {
        k_ * static_cast<double>(chunk_) / median(seq_s_), "1/s"};
    f["save_s"] = {median(save_s_), "s"};
    f["resume_s"] = {median(op_latencies.at("resume")), "s"};
    f["torus.nodes"] = {n_, "nodes"};
    f["torus.agents"] = {static_cast<double>(k_), "agents"};
    f["torus.rounds_per_job"] = {static_cast<double>(rounds_), "rounds"};
    f["torus.rounds_per_chunk"] = {static_cast<double>(chunk_), "rounds"};
    f["torus.shards"] = {static_cast<double>(opt_.threads), "shards"};
    f["jobs"] = {static_cast<double>(job_times.size()), "count"};
    return f;
  }

  void add_layers(std::map<std::string, double>& m) const override {
    m["graph.arcs"] = arcs_;
    const double seq_round = median(tracer.per_work("core.seq.run"));
    const double sharded_round = median(tracer.per_work("core.sharded.run"));
    m["core.round_s"] = seq_round;
    m["core.sharded.round_s"] = sharded_round;
    m["core.shard_efficiency"] =
        sharded_round > 0 ? seq_round / (sharded_round * opt_.threads) : 0;
    m["sim.ckpt.bytes_per_node"] = bytes_per_node_;
    CycleJumpTotals cj;
    Tracer untraced;  // reading counters here is not part of any job
    cj.add(untraced, *sharded_);
    cj.add(untraced, *sequential_);
    cj.put(m);
  }

  double state_bytes() const override { return rotor_state_bytes(n_, arcs_); }

 private:
  std::unique_ptr<Engine> create(const rr::sim::EngineConfig& base,
                                 std::uint32_t shards) {
    rr::sim::EngineConfig config = base;
    config.shards = shards;
    std::string error;
    auto engine = traced(tracer, "sim.registry.create", 0, [&] {
      return rr::sim::EngineRegistry::instance().create("rotor", descriptor_,
                                                        config, &error);
    });
    if (!engine) throw std::runtime_error("cannot create rotor: " + error);
    return wrap(std::move(engine));
  }

  std::unique_ptr<Engine> wrap(std::unique_ptr<Engine> engine) {
    return traced(tracer, "sim.cycle_jump.wrap", 0, [&] {
      return rr::sim::wrap_cycle_jump(std::move(engine),
                                      rr::sim::CycleJumpMode::kAuto);
    });
  }

  std::uint64_t hash(const Engine& e) {
    return traced(tracer, "core.config_hash", 0, [&] { return e.config_hash(); });
  }

  std::uint64_t corrupt() {
    if (!opt_.corrupt_check || corrupted_) return 0;
    corrupted_ = true;
    return 1;
  }

  Options opt_;
  std::uint32_t side_ = 0;
  std::uint32_t k_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t chunk_ = 0;  ///< rounds per timed run call
  std::uint64_t resumed_rounds_ = 0;
  std::string path_;
  rr::graph::GraphDescriptor descriptor_;
  double n_ = 0;
  double arcs_ = 0;
  double bytes_per_node_ = 0;
  bool corrupted_ = false;
  std::unique_ptr<Engine> sharded_;
  std::unique_ptr<Engine> sequential_;

  std::vector<double> sharded_s_, seq_s_, save_s_;
};

}  // namespace

std::unique_ptr<Workload> make_torus_bulk(const Options& opt) {
  return std::make_unique<TorusBulk>(opt);
}

}  // namespace perfbench

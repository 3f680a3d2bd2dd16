// ring_cover: the paper's experiment, sequentially. k agents start on one
// node v0 of an n-node ring with every pointer toward v0 (the Thm 1
// worst case); each configuration is built through the registry for the
// rotor, ring and lazy backends, wrapped for cycle leaping as rr_cli
// wraps it, run to cover, then run a fixed post-cover tail of as many
// rounds again. The same configuration is then served: resumed into an
// in-process serve::SessionService from a checkpoint of its start state
// and stepped to the same round in pumped quanta, as an rr_serverd
// session would be. The backends and the served session must agree on
// the cover round and on the final config_hash.

#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"

namespace perfbench {
namespace {

using rr::serve::Op;
using rr::serve::Reply;
using rr::serve::Request;
using rr::serve::SessionService;
using rr::sim::Engine;

constexpr std::array<const char*, 3> kBackends = {"rotor", "ring", "lazy"};
constexpr std::array<const char*, 3> kCoverSpans = {
    "core.rotor.run_until_covered", "core.ring.run_until_covered",
    "core.lazy.run_until_covered"};
constexpr std::array<const char*, 3> kTailSpans = {
    "core.rotor.run", "core.ring.run", "core.lazy.run"};

class RingCover final : public Workload {
 public:
  explicit RingCover(const Options& opt) : opt_(opt) {
    n_ = opt.tiny ? 256 : 1024;
    ks_ = {2, 8, 32};
  }

  void setup() override {
    rr::Rng rng(opt_.seed ^ 0x72696e67ULL);
    // The start node is seeded; the ring is vertex-transitive, so every
    // seed does the same work on a different slice of memory.
    v0_ = rng.bounded(n_);
    descriptor_ = rr::graph::GraphDescriptor::ring(n_);
    const auto graph = traced(tracer, "graph.build", n_,
                              [&] { return descriptor_.build(); });
    if (!graph) throw std::runtime_error("ring descriptor does not build");
    const auto csr = traced(tracer, "graph.csr", n_,
                            [&] { return rr::graph::CsrGraph(*graph); });
    arcs_ = static_cast<double>(csr.num_arcs());
    const auto toward = rr::core::pointers_toward(n_, v0_);
    pointers_.assign(toward.begin(), toward.end());
    // No pool and no eviction: the served solve stays sequential and off
    // the disk, so it measures the request path and the pumped stepping.
    rr::serve::ServiceOptions so;
    so.max_sessions = 4;
    so.max_live = 4;
    so.evict_after = 1u << 30;
    so.ckpt_dir = opt_.work_dir + "/ring_cover";
    std::filesystem::create_directories(so.ckpt_dir);
    service_ = std::make_unique<SessionService>(so);
    // Warm-up: one half-size configuration per backend faults in the
    // code and allocator pages before anything is timed.
    const auto warm = rr::graph::GraphDescriptor::ring(n_ / 2);
    const auto warm_ptr = rr::core::pointers_toward(n_ / 2, 0);
    for (const char* name : kBackends) {
      rr::sim::EngineConfig config;
      config.agents = rr::core::place_all_on_one(8, 0);
      config.pointers.assign(warm_ptr.begin(), warm_ptr.end());
      auto engine = create(name, warm, config);
      cpus_.advance();
      const std::uint64_t cover = engine->run_until_covered(kCap(n_ / 2));
      engine->run(cover);
    }
  }

  void rep() override {
    const auto t_job = Clock::now();
    std::uint64_t agent_rounds = 0;
    std::array<double, 4> solve{};
    last_cj_ = CycleJumpTotals{};
    for (std::uint32_t k : ks_) {
      std::uint64_t want_cover = 0, want_hash = 0;
      for (std::size_t b = 0; b < kBackends.size(); ++b) {
        rr::sim::EngineConfig config;
        config.agents = rr::core::place_all_on_one(k, v0_);
        config.pointers = pointers_;
        auto engine = create(kBackends[b], descriptor_, config);
        cpus_.advance();
        const auto t0 = Clock::now();
        const std::uint64_t cover =
            traced(tracer, kCoverSpans[b], 0,
                   [&] { return engine->run_until_covered(kCap(n_)); });
        traced(tracer, kTailSpans[b], cover, [&] { engine->run(cover); });
        const double dt = seconds_since(t0);
        const std::uint64_t hash = traced(tracer, "core.config_hash", 0,
                                          [&] { return engine->config_hash(); });
        last_cj_.add(tracer, *engine);
        solve[b] += dt;
        op_latencies[std::string(kBackends[b]) + ".k" + std::to_string(k)]
            .push_back(dt);
        agent_rounds += 2 * cover * k;
        if (b == 0) {
          want_cover = cover;
          want_hash = hash ^ corrupt();
          count(cover != rr::sim::kNotCovered);
          covers_[k] = cover;
        } else {
          count(cover == want_cover && hash == want_hash);
        }
      }
      cpus_.advance();
      const double dt = serve_solve(k, 2 * want_cover, want_hash);
      solve[3] += dt;
      op_latencies["served.k" + std::to_string(k)].push_back(dt);
      agent_rounds += 2 * want_cover * k;
    }
    job_times.push_back(seconds_since(t_job));
    job_rates.push_back(static_cast<double>(agent_rounds) /
                        (solve[0] + solve[1] + solve[2] + solve[3]));
    for (std::size_t b = 0; b < solve.size(); ++b) {
      solve_[b].push_back(solve[b]);
    }
  }

  void verify() override {
    stats_ = traced(tracer, "serve.stats", 0, [&] { return service_->stats(); });
  }

  void reset_samples() override {
    Workload::reset_samples();
    for (auto& s : solve_) s.clear();
  }

  std::map<std::string, Figure> figures() const override {
    std::map<std::string, Figure> f;
    for (std::size_t b = 0; b < kBackends.size(); ++b) {
      f[std::string("solve_s.") + kBackends[b]] = {median(solve_[b]), "s"};
    }
    f["solve_s.served"] = {median(solve_[3]), "s"};
    f["ring.n"] = {static_cast<double>(n_), "nodes"};
    f["ring.start_node"] = {static_cast<double>(v0_), "node"};
    for (const auto& [k, cover] : covers_) {
      f["cover_round.k" + std::to_string(k)] = {static_cast<double>(cover),
                                                 "rounds"};
    }
    f["sweeps"] = {static_cast<double>(job_times.size()), "count"};
    return f;
  }

  void add_layers(std::map<std::string, double>& m) const override {
    m["graph.arcs"] = arcs_;
    m["core.round_s"] = median(tracer.per_work("core.rotor.run"));
    const double sweeps = static_cast<double>(
        tracer.durations("core.rotor.run").size() / ks_.size());
    for (std::size_t b = 0; b < kBackends.size(); ++b) {
      const std::string name = kBackends[b];
      if (sweeps > 0) {
        m["core." + name + ".cover_s"] = tracer.total(kCoverSpans[b]) / sweeps;
        m["core." + name + ".tail_s"] = tracer.total(kTailSpans[b]) / sweeps;
      }
    }
    last_cj_.put(m);
    const double requests = static_cast<double>(requests_);
    m["serve.pumps_per_request"] = static_cast<double>(pumps_) / requests;
    m["serve.evictions"] = static_cast<double>(stats_.evictions);
    m["serve.rehydrations"] = static_cast<double>(stats_.rehydrations);
    m["serve.rehydrations_per_step"] =
        static_cast<double>(stats_.rehydrations) /
        static_cast<double>(stats_.step_requests);
    m["serve.busy_replies"] = static_cast<double>(stats_.busy_replies);
    m["serve.rounds_stepped"] = static_cast<double>(stats_.rounds_stepped);
    double wrapped = 0;
    for (const auto& q : stats_.qos) wrapped += static_cast<double>(q.cj_wrapped);
    m["serve.cj_wrapped"] = wrapped;
    m["serve.wait_pumps.interactive"] =
        static_cast<double>(stats_.qos[0].wait_pumps);
    m["serve.wait_pumps.batch"] = static_cast<double>(stats_.qos[1].wait_pumps);
    m["serve.wait_pumps.background"] =
        static_cast<double>(stats_.qos[2].wait_pumps);
  }

  double state_bytes() const override {
    return rotor_state_bytes(n_, arcs_);
  }

 private:
  static std::uint64_t kCap(std::uint64_t n) { return 64 * n * n; }

  std::unique_ptr<Engine> create(const char* name,
                                 const rr::graph::GraphDescriptor& d,
                                 const rr::sim::EngineConfig& config) {
    std::string error;
    auto engine = traced(tracer, "sim.registry.create", 0, [&] {
      return rr::sim::EngineRegistry::instance().create(name, d, config,
                                                        &error);
    });
    if (engine) {
      engine = traced(tracer, "sim.cycle_jump.wrap", 0, [&] {
        return rr::sim::wrap_cycle_jump(std::move(engine),
                                        rr::sim::CycleJumpMode::kAuto);
      });
    }
    if (!engine) {
      throw std::runtime_error(std::string("cannot create ") + name + ": " +
                               error);
    }
    return engine;
  }

  /// Serves configuration k to round `horizon`: the protocol's create
  /// carries placements but not pointers, so the worst-case start goes in
  /// as a resumed checkpoint. Returns the wall time from the resume
  /// request to the step reply; checks the reply against `want_hash`.
  double serve_solve(std::uint32_t k, std::uint64_t horizon,
                     std::uint64_t want_hash) {
    rr::sim::EngineConfig config;
    config.agents = rr::core::place_all_on_one(k, v0_);
    config.pointers = pointers_;
    const auto start = create("rotor", descriptor_, config);
    Request resume;
    resume.op = Op::kResume;
    resume.qos = rr::serve::QosClass::kBatch;
    resume.blob = traced(tracer, "sim.ckpt.encode", 0, [&] {
      return rr::sim::write_checkpoint(*start, descriptor_.text(),
                                       rr::sim::CkptFormat::kV2);
    });
    const auto t0 = Clock::now();
    const Reply created = call(resume);
    Request step;
    step.op = Op::kStep;
    step.session = created.session;
    step.rounds = horizon;
    const Reply stepped = call(step);
    const double dt = seconds_since(t0);
    Request destroy;
    destroy.op = Op::kDestroy;
    destroy.session = created.session;
    const Reply destroyed = call(destroy);
    count(created.status == rr::serve::Status::kOk &&
          stepped.status == rr::serve::Status::kOk &&
          destroyed.status == rr::serve::Status::kOk &&
          stepped.time == horizon && stepped.config_hash == want_hash);
    return dt;
  }

  /// Sends one request and pumps until its reply arrives.
  Reply call(Request req) {
    req.id = ++requests_;
    const std::string payload = traced(tracer, "serve.protocol.encode", 0, [&] {
      return rr::serve::encode_request(req);
    });
    traced(tracer, "serve.handle", 0, [&] {
      service_->handle(1, reinterpret_cast<const std::uint8_t*>(payload.data()),
                       payload.size(), out_);
    });
    while (out_.empty()) {
      traced(tracer, "serve.pump", 0, [&] { service_->pump(out_); });
      ++pumps_;
    }
    const std::string frame = std::move(out_.front().frame);
    out_.clear();
    const auto rep = traced(tracer, "serve.protocol.decode", 0, [&] {
      return rr::serve::decode_reply(
          reinterpret_cast<const std::uint8_t*>(frame.data()) + 4,
          frame.size() - 8);
    });
    if (!rep || rep->id != req.id) throw std::runtime_error("bad reply");
    return *rep;
  }

  /// XOR mask applied to the first expected hash when the check
  /// self-test asks for a corrupted expectation.
  std::uint64_t corrupt() {
    if (!opt_.corrupt_check || corrupted_) return 0;
    corrupted_ = true;
    return 1;
  }

  Options opt_;
  std::uint32_t n_ = 0;
  std::vector<std::uint32_t> ks_;
  std::uint32_t v0_ = 0;
  rr::graph::GraphDescriptor descriptor_;
  std::vector<std::uint32_t> pointers_;
  double arcs_ = 0;
  bool corrupted_ = false;

  std::unique_ptr<SessionService> service_;
  std::vector<SessionService::Outgoing> out_;
  std::uint64_t requests_ = 0;
  std::uint64_t pumps_ = 0;
  rr::serve::ServiceStats stats_;

  std::array<std::vector<double>, 4> solve_;  ///< per backend, then served
  std::map<std::uint32_t, std::uint64_t> covers_;
  CycleJumpTotals last_cj_;
  CpuRotation cpus_;  ///< each solve runs on the next CPU
};

}  // namespace

std::unique_ptr<Workload> make_ring_cover(const Options& opt) {
  return std::make_unique<RingCover>(opt);
}

}  // namespace perfbench

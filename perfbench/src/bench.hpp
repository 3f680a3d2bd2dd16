#pragma once

// Shared plumbing of the repository benchmark (rr_perfbench): the clock,
// the in-memory span tracer, sample statistics and the workload
// interface. Every layer is measured from outside: the
// workloads wrap their own calls into the library's public functions in
// spans, so nothing here reaches into src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder. A span is (name, start, end, parent); spans
/// nest through an explicit stack, so a layer's self time is its span's
/// duration minus the children recorded inside it. Disabled tracers cost
/// one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< static string, "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for roots
    std::uint64_t work = 0;    ///< rounds or bytes the call handled
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  std::int32_t open(const char* name);
  void close(std::int32_t id, std::uint64_t work);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Per-unit-of-work durations (duration / work) of spans called `name`.
  std::vector<double> per_work(const std::string& name) const;
  /// Sum of durations of spans called `name`.
  double total(const std::string& name) const;
  /// Self time per layer: each span's duration minus its children's,
  /// summed by layer (the longest known layer prefix of the span name).
  std::map<std::string, double> self_time_by_layer() const;

  /// Chrome trace-event JSON of every recorded span.
  bool write_json(const std::string& path) const;

 private:
  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// The layers the benchmark names, longest prefix first.
const std::vector<std::string>& layer_names();

/// Runs `f` inside a span called `name` when tracing is on.
template <class F>
decltype(auto) traced(Tracer& tr, const char* name, std::uint64_t work, F&& f) {
  if (!tr.on()) return f();
  struct Closer {
    Tracer& tr;
    std::int32_t id;
    std::uint64_t work;
    ~Closer() { tr.close(id, work); }
  } closer{tr, tr.open(name), work};
  return f();
}

/// Cycle-jump counters summed over the engines a workload ran.
struct CycleJumpTotals {
  double samples = 0, candidates = 0, rejects = 0, confirm_laps = 0,
         leaps = 0, leaped_rounds = 0, abandoned = 0;
  /// Adds `engine`'s CycleJumpEngine::stats() if it is wrapped.
  void add(Tracer& tr, const rr::sim::Engine& engine);
  void put(std::map<std::string, double>& m) const;
};

/// Engine-state bytes of a core::RotorRouter over n nodes and `arcs`
/// arcs, computed from its array sizes: NodeState 32 B + VisitStats 32 B
/// + initial pointer 4 B per node, CSR offsets 8 B per node, arc heads
/// and sorted ports 4 B + 4 B per arc.
double rotor_state_bytes(double n, double arcs);

double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// Typical operation latency: the median over operation kinds of each
/// kind's median latency. Pooling kinds of very different size would put
/// the median on the edge between two kinds, where it jumps between them
/// from run to run.
double op_median(const std::map<std::string, std::vector<double>>& ops);
/// Percentile `p` of every operation latency, all kinds pooled.
double op_percentile(const std::map<std::string, std::vector<double>>& ops,
                     double p);

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per advance(), and gives it back its whole set when destroyed. On
/// a shared host the CPUs differ in speed, and a sequential run would
/// otherwise be timed on whichever one the scheduler settled on; rotating
/// makes every run sample all of them alike. Only for single-threaded
/// work: threads started while pinned inherit the one-CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void advance();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();

/// Options shared by every workload.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           ///< test size: every workload in ~1 s
  bool corrupt_check = false;  ///< flip one expected hash (check self-test)
  std::string work_dir = ".bench_build/perfbench";  ///< ckpt files, traces
  unsigned threads = 4;        ///< min(nproc, 4)
};

/// A labelled number for the human-readable report.
struct Figure {
  double value = 0;
  std::string unit;
};

/// One workload of the benchmark. main() sets it up several times (the
/// median is setup_s), runs rep() until the time is up, then verify().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Untimed preparation after set-up, so timing starts in steady state.
  virtual void warm_up() {}
  virtual void rep() = 0;
  /// Untimed output checks after the timed phase.
  virtual void verify() {}
  /// Clears the timing samples (the traced run's two halves).
  virtual void reset_samples() {
    job_times.clear();
    job_rates.clear();
    op_latencies.clear();
  }

  /// The workload's own named figures (per-path metrics), counters and
  /// environment facts for the report.
  virtual std::map<std::string, Figure> figures() const = 0;
  /// Adds the workload's own per-layer metrics (counters, and timings
  /// that need its span names) to `m`; main() adds the shared ones.
  virtual void add_layers(std::map<std::string, double>& m) const = 0;
  /// Engine-state bytes computed from array sizes.
  virtual double state_bytes() const = 0;

  // End-to-end samples of the timed phase, one per job (rates: agent
  // steps per second of the job's stepping) or per operation, keyed by
  // operation kind (a job may run several kinds of very different size).
  std::vector<double> job_times;
  std::vector<double> job_rates;
  std::map<std::string, std::vector<double>> op_latencies;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tracer tracer;

 protected:
  /// Counts one operation; a false outcome counts as failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::unique_ptr<Workload> make_ring_cover(const Options& opt);
std::unique_ptr<Workload> make_torus_bulk(const Options& opt);

}  // namespace perfbench

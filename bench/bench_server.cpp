// Session-multiplexing server load: sessions/s, step latency, bounded
// RSS under eviction (serve::SessionService).
//
// Drives the service in-process — encoded requests through handle(),
// pump() between waves, replies decoded off the Outgoing frames — so the
// numbers measure the scheduler and the checkpoint-eviction machinery,
// not socket syscalls. Two lanes:
//
//   1. Evicting: scaled(10000) concurrent sessions over a 512-slot live
//      table. Every created session beyond the table forces a
//      pressure-eviction (rr-ckpt v2 to disk) and every step on an
//      evicted session a rehydration, so the lane sustains the full
//      create -> evict -> rehydrate -> step cycle. Acceptance: the live
//      table never exceeds its bound, and peak RSS stays within the RSS
//      before the lane plus max-live times one live session's measured
//      heap bytes plus a measured per-session slack — FAIL and exit status
//      1 otherwise, so a lane whose eviction stops bounding memory fails.
//   2. Resident: scaled(1000) sessions that all fit live — pure
//      multiplexed stepping throughput (rounds/s) with no disk churn.
//
//   3. Mixed QoS: a handful of interactive sessions issuing small steps
//      while saturating batch backlogs drain, run once under the kFifo
//      baseline and once under the kQos credit scheduler. The headline
//      number is per-class p99 step latency: FIFO pumps grant every
//      batch session a full quantum before any reply leaves, so the
//      interactive tail stretches with the batch population; the QoS
//      scheduler bounds each pump's batch work by the round budget.
//      Acceptance: interactive p99 improves >= 3x at equal aggregate
//      rounds/s, and the probe snapshots are bit-identical across
//      policies (scheduling changes order, never results).
//
// Samples publish through sim::BenchJsonWriter (RR_BENCH_JSON) for
// tools/bench_diff.py: *_per_s higher-is-better, p99_seconds and
// rss_bytes lower-is-better.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "analysis/table.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace {

using rr::analysis::Table;
using rr::serve::Op;
using rr::serve::Reply;
using rr::serve::Request;
using rr::serve::SessionService;
using rr::serve::Status;

using Clock = std::chrono::steady_clock;

double now_minus(const Clock::time_point& t0) {
  const std::chrono::duration<double> dt = Clock::now() - t0;
  return dt.count();
}

std::string tmp_dir() {
  if (const char* env = std::getenv("TMPDIR")) return env;
  return "/tmp";
}

/// Peak resident set (VmHWM) so far, bytes; 0 when /proc is unavailable.
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

/// Heap bytes in live allocations, arena and mmap'd chunks together.
std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Strips the frame header/trailer and decodes the reply payload.
Reply decode_outgoing(const SessionService::Outgoing& o) {
  RR_REQUIRE(o.frame.size() >= 8, "bench received a truncated frame");
  const auto rep = rr::serve::decode_reply(
      reinterpret_cast<const std::uint8_t*>(o.frame.data()) + 4,
      o.frame.size() - 8);
  RR_REQUIRE(rep.has_value(), "bench received an undecodable reply");
  return *rep;
}

struct Harness {
  SessionService service;
  std::vector<SessionService::Outgoing> out;
  std::uint64_t next_id = 1;

  explicit Harness(rr::serve::ServiceOptions opt)
      : service(std::move(opt)) {}

  /// Sends one request; returns its id (replies may be deferred).
  std::uint64_t send(Request req) {
    req.id = next_id++;
    const std::string payload = rr::serve::encode_request(req);
    service.handle(1, reinterpret_cast<const std::uint8_t*>(payload.data()),
                   payload.size(), out);
    return req.id;
  }

  /// Drains replies queued so far into `sink`.
  void drain(std::unordered_map<std::uint64_t, Reply>& sink) {
    for (const auto& o : out) {
      Reply rep = decode_outgoing(o);
      sink.emplace(rep.id, std::move(rep));
    }
    out.clear();
  }
};

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(p * (xs.size() - 1));
  return xs[idx];
}

// ---- mixed-QoS lane ----

struct MixedResult {
  double inter_p99 = 0;      ///< interactive step latency p99 (s)
  double batch_p99 = 0;      ///< batch step latency p99 (s; whole backlog)
  double rounds_per_s = 0;   ///< aggregate scheduled throughput
  std::uint64_t probe_time = 0;
  std::uint64_t probe_hash = 0;
  std::string probe_snapshot;  ///< rr-ckpt v2 bytes of interactive probe
  std::string batch_snapshot;  ///< rr-ckpt v2 bytes of batch session 0
};

/// Heap bytes one live session of the evicting lane holds: the in-use heap
/// growth from creating and stepping kProbes sessions on a service that
/// keeps them all live, divided by kProbes.
double live_session_bytes(rr::serve::ServiceOptions opt, const Request& create,
                          std::uint64_t rounds) {
  constexpr std::uint64_t kProbes = 16;
  opt.max_sessions = kProbes;
  opt.max_live = kProbes;
  Harness h(opt);
  std::unordered_map<std::uint64_t, Reply> replies;
  const std::uint64_t before = heap_in_use_bytes();
  std::vector<std::uint64_t> sessions;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const std::uint64_t id = h.send(create);
    h.drain(replies);
    RR_REQUIRE(replies.at(id).status == Status::kOk, "probe create failed");
    sessions.push_back(replies.at(id).session);
  }
  Request step;
  step.op = Op::kStep;
  step.rounds = rounds;
  for (const std::uint64_t s : sessions) {
    step.session = s;
    h.send(step);
  }
  while (replies.size() < 2 * kProbes) {
    const bool progress = h.service.pump(h.out);
    const bool any = !h.out.empty();
    h.drain(replies);
    RR_REQUIRE(progress || any, "probe scheduler stalled");
  }
  replies.clear();
  const std::uint64_t after = heap_in_use_bytes();
  return after > before ? static_cast<double>(after - before) / kProbes : 0;
}

/// Runs the mixed workload under one policy: every batch session gets one
/// deep pipelined step (the saturating backlog), then `waves` waves of
/// small interactive steps are measured send-to-reply while the backlog
/// drains, then the backlog is drained to completion (equal total work
/// under both policies). Ends with snapshots of the interactive probe and
/// one batch session for the caller's cross-policy byte comparison.
MixedResult run_mixed(rr::sim::ThreadPool& pool,
                      rr::serve::SchedPolicy policy, const std::string& graph,
                      std::uint64_t batch_sessions,
                      std::uint64_t inter_sessions, std::uint64_t waves,
                      std::uint64_t inter_rounds,
                      std::uint64_t batch_backlog) {
  rr::serve::ServiceOptions opt;
  opt.max_sessions = batch_sessions + inter_sessions;
  opt.max_live = opt.max_sessions;  // residency churn is lane 1's story
  opt.quantum = 64;
  opt.evict_after = 0;
  opt.policy = policy;
  opt.ckpt_dir = tmp_dir();
  opt.pool = &pool;
  Harness h(opt);
  std::unordered_map<std::uint64_t, Reply> replies;

  Request create;
  create.op = Op::kCreate;
  create.engine = "rotor";
  create.graph = graph;
  create.k = 4;
  std::vector<std::uint64_t> batch, inter;
  create.qos = rr::serve::QosClass::kBatch;
  for (std::uint64_t i = 0; i < batch_sessions; ++i) {
    const std::uint64_t id = h.send(create);
    h.drain(replies);
    RR_REQUIRE(replies.at(id).status == Status::kOk, "mixed create failed");
    batch.push_back(replies.at(id).session);
    replies.clear();
  }
  create.qos = rr::serve::QosClass::kInteractive;
  for (std::uint64_t i = 0; i < inter_sessions; ++i) {
    const std::uint64_t id = h.send(create);
    h.drain(replies);
    RR_REQUIRE(replies.at(id).status == Status::kOk, "mixed create failed");
    inter.push_back(replies.at(id).session);
    replies.clear();
  }

  std::unordered_map<std::uint64_t, Clock::time_point> batch_sent, inter_sent;
  std::vector<double> batch_lat, inter_lat;
  auto drain_latencies = [&]() {
    for (const auto& o : h.out) {
      const Reply rep = decode_outgoing(o);
      RR_REQUIRE(rep.status == Status::kOk, "mixed-QoS step failed");
      if (const auto it = batch_sent.find(rep.id); it != batch_sent.end()) {
        batch_lat.push_back(now_minus(it->second));
        batch_sent.erase(it);
      } else if (const auto it2 = inter_sent.find(rep.id);
                 it2 != inter_sent.end()) {
        inter_lat.push_back(now_minus(it2->second));
        inter_sent.erase(it2);
      }
    }
    h.out.clear();
  };

  const auto t0 = Clock::now();
  Request step;
  step.op = Op::kStep;
  step.rounds = batch_backlog;
  for (const std::uint64_t s : batch) {
    step.session = s;
    batch_sent.emplace(h.send(step), Clock::now());
  }
  for (std::uint64_t w = 0; w < waves; ++w) {
    step.rounds = inter_rounds;
    for (const std::uint64_t s : inter) {
      step.session = s;
      inter_sent.emplace(h.send(step), Clock::now());
    }
    while (!inter_sent.empty()) {
      h.service.pump(h.out);
      drain_latencies();
    }
  }
  while (!batch_sent.empty()) {
    const bool progress = h.service.pump(h.out);
    const bool any = !h.out.empty();
    drain_latencies();
    RR_REQUIRE(progress || any, "mixed-QoS scheduler stalled");
  }
  const double total_s = now_minus(t0);

  MixedResult r;
  r.inter_p99 = percentile(inter_lat, 0.99);
  r.batch_p99 = percentile(batch_lat, 0.99);
  const double total_rounds = static_cast<double>(
      batch_sessions * batch_backlog + inter_sessions * waves * inter_rounds);
  r.rounds_per_s = total_rounds / total_s;

  Request snap;
  snap.op = Op::kSnapshot;
  snap.session = inter.front();
  const std::uint64_t sid = h.send(snap);
  h.drain(replies);
  RR_REQUIRE(replies.at(sid).status == Status::kOk, "probe snapshot failed");
  r.probe_snapshot = replies.at(sid).blob;
  r.probe_hash = replies.at(sid).config_hash;
  r.probe_time = replies.at(sid).time;
  snap.session = batch.front();
  const std::uint64_t bid = h.send(snap);
  h.drain(replies);
  RR_REQUIRE(replies.at(bid).status == Status::kOk, "batch snapshot failed");
  r.batch_snapshot = replies.at(bid).blob;
  return r;
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Session-multiplexing server load (create/step under eviction)",
      "serving layer; rr_serverd scheduler + rr-ckpt v2 eviction");
  rr::sim::BenchJsonWriter json;
  rr::serve::pin_mmap_threshold();  // as rr_serverd does at startup
  rr::sim::ThreadPool pool;

  const std::string graph = "ring 4096";
  constexpr std::uint64_t kAgents = 4;
  constexpr std::uint64_t kRoundsPerStep = 64;

  // --- 1. Evicting lane: sessions >> live slots. ---
  const std::uint64_t kSessions = rr::sim::scaled(10000, 64);
  const std::uint64_t kMaxLive = std::min<std::uint64_t>(512, kSessions / 4);
  double create_s = 0, step_s = 0, p99 = 0;
  std::uint64_t peak_live = 0, rss = 0;
  rr::serve::ServiceOptions opt;
  opt.max_sessions = kSessions;
  opt.max_live = kMaxLive;
  opt.quantum = kRoundsPerStep;
  opt.evict_after = 4;
  opt.ckpt_dir = tmp_dir();
  opt.pool = &pool;
  Request create;
  create.op = Op::kCreate;
  create.engine = "rotor";
  create.graph = graph;
  create.k = kAgents;
  // The RSS bound's inputs, taken before the lane: the peak so far (the
  // probe's sessions are freed before the lane and their heap reused).
  const std::uint64_t rss_before = peak_rss_bytes();
  const double session_bytes = live_session_bytes(opt, create, kRoundsPerStep);
  {
    Harness h(opt);
    std::unordered_map<std::uint64_t, Reply> replies;

    auto t0 = Clock::now();
    std::vector<std::uint64_t> sessions;
    sessions.reserve(kSessions);
    for (std::uint64_t i = 0; i < kSessions; ++i) {
      const std::uint64_t id = h.send(create);
      h.drain(replies);
      const auto it = replies.find(id);
      RR_REQUIRE(it != replies.end() && it->second.status == Status::kOk,
                 "create rejected under eviction pressure");
      sessions.push_back(it->second.session);
      replies.erase(it);
      peak_live = std::max(peak_live, h.service.live_sessions());
    }
    create_s = now_minus(t0);
    RR_REQUIRE(h.service.total_sessions() == kSessions,
               "session table lost entries");

    // One pipelined step wave across every session; per-request latency
    // is send-to-reply (dominated by rehydration queueing — that is the
    // p99 the serving story cares about).
    std::unordered_map<std::uint64_t, Clock::time_point> sent;
    std::vector<double> latencies;
    latencies.reserve(kSessions);
    t0 = Clock::now();
    Request step;
    step.op = Op::kStep;
    step.rounds = kRoundsPerStep;
    for (const std::uint64_t s : sessions) {
      step.session = s;
      sent.emplace(h.send(step), Clock::now());
      peak_live = std::max(peak_live, h.service.live_sessions());
    }
    while (latencies.size() < kSessions) {
      const bool progress = h.service.pump(h.out);
      peak_live = std::max(peak_live, h.service.live_sessions());
      std::size_t got = 0;
      for (const auto& o : h.out) {
        const Reply rep = decode_outgoing(o);
        RR_REQUIRE(rep.status == Status::kOk, "step failed in evicting lane");
        const auto it = sent.find(rep.id);
        RR_REQUIRE(it != sent.end(), "unexpected reply id");
        latencies.push_back(now_minus(it->second));
        sent.erase(it);
        ++got;
      }
      h.out.clear();
      RR_REQUIRE(progress || got > 0, "scheduler stalled with work queued");
    }
    step_s = now_minus(t0);
    p99 = percentile(latencies, 0.99);
    rss = peak_rss_bytes();
    RR_REQUIRE(peak_live <= kMaxLive, "live table exceeded its bound");
  }

  Table t1({"sessions", "max live", "peak live", "create/s", "step req/s",
            "p99 step s", "peak RSS MB"});
  const double create_rate = static_cast<double>(kSessions) / create_s;
  const double step_rate = static_cast<double>(kSessions) / step_s;
  t1.add_row({Table::integer(kSessions), Table::integer(kMaxLive),
              Table::integer(peak_live), Table::num(create_rate, 0),
              Table::num(step_rate, 0), Table::num(p99, 4),
              rss ? Table::num(static_cast<double>(rss) / (1u << 20), 1)
                  : "-"});
  t1.print();
  json.add("Server/evicting/create_sessions_per_s", create_rate);
  json.add("Server/evicting/step_requests_per_s", step_rate);
  json.add("Server/evicting/step_rounds_per_s",
           step_rate * static_cast<double>(kRoundsPerStep));
  json.add_metric("Server/evicting/step", "p99_seconds", p99);
  if (rss > 0) {
    json.add_metric("Server/evicting/peak_rss", "rss_bytes",
                    static_cast<double>(rss));
  }
  // Eviction bounds memory if the lane's peak RSS stays within what the
  // live table can hold: the RSS before the lane plus kMaxLive sessions
  // of measured heap, plus a slack for what the live table does not
  // hold — the records of every session (evicted ones included), the
  // lane's own request maps, eviction encode buffers. Measured on a
  // 4-core Xeon, RSS beyond the first two terms was 0.9 / 3.0 / 30.5 MB
  // at 1000 / 2500 / 10000 sessions (scale 0.1 / 0.25 / 1), about 3 KB
  // per session, so the slack is 8 MB + 4 KB per session.
  constexpr double kMb = 1 << 20;
  const double slack_mb = 8.0 + static_cast<double>(kSessions) * 4096 / kMb;
  const double live_mb = static_cast<double>(kMaxLive) * session_bytes / kMb;
  const double before_mb = static_cast<double>(rss_before) / kMb;
  const double bound_mb = before_mb + live_mb + slack_mb;
  const double all_mb = static_cast<double>(kSessions) * session_bytes / kMb;
  const double rss_mb = static_cast<double>(rss) / kMb;
  const bool rss_ok = rss == 0 || rss_mb <= bound_mb;
  std::printf("\n%llu concurrent sessions over %llu live slots: peak RSS"
              " %.1f MB (%.1f MB beyond the first two terms); acceptance:"
              " <= %.1f MB before + %llu x %.0f KB live + %.0f MB slack ="
              " %.1f MB (all resident: ~%.0f MB) %s\n\n",
              static_cast<unsigned long long>(kSessions),
              static_cast<unsigned long long>(kMaxLive), rss_mb,
              rss_mb - before_mb - live_mb, before_mb,
              static_cast<unsigned long long>(kMaxLive), session_bytes / 1024,
              slack_mb, bound_mb, all_mb,
              rss == 0 ? "SKIP (no /proc)" : rss_ok ? "PASS" : "FAIL");

  // --- 2. Resident lane: everything fits live. ---
  const std::uint64_t kResident = rr::sim::scaled(1000, 16);
  constexpr std::uint64_t kWaves = 4;
  double resident_s = 0;
  {
    rr::serve::ServiceOptions opt;
    opt.max_sessions = kResident;
    opt.max_live = kResident;
    opt.quantum = kRoundsPerStep;
    opt.evict_after = 0;  // never evict
    opt.ckpt_dir = tmp_dir();
    opt.pool = &pool;
    Harness h(opt);
    std::unordered_map<std::uint64_t, Reply> replies;

    Request create;
    create.op = Op::kCreate;
    create.engine = "rotor";
    create.graph = graph;
    create.k = kAgents;
    std::vector<std::uint64_t> sessions;
    sessions.reserve(kResident);
    for (std::uint64_t i = 0; i < kResident; ++i) {
      const std::uint64_t id = h.send(create);
      h.drain(replies);
      RR_REQUIRE(replies.at(id).status == Status::kOk,
                 "resident create failed");
      sessions.push_back(replies.at(id).session);
      replies.clear();
    }

    const auto t0 = Clock::now();
    for (std::uint64_t wave = 0; wave < kWaves; ++wave) {
      Request step;
      step.op = Op::kStep;
      step.rounds = kRoundsPerStep;
      std::size_t expect = 0;
      for (const std::uint64_t s : sessions) {
        step.session = s;
        h.send(step);
        ++expect;
      }
      std::size_t got = 0;
      while (got < expect) {
        h.service.pump(h.out);
        for (const auto& o : h.out) {
          RR_REQUIRE(decode_outgoing(o).status == Status::kOk,
                     "resident step failed");
          ++got;
        }
        h.out.clear();
      }
    }
    resident_s = now_minus(t0);
  }
  const double resident_rounds =
      static_cast<double>(kResident * kWaves * kRoundsPerStep);
  Table t2({"sessions", "waves", "rounds/req", "total s", "rounds/s"});
  t2.add_row({Table::integer(kResident), Table::integer(kWaves),
              Table::integer(kRoundsPerStep), Table::num(resident_s, 3),
              Table::sci(resident_rounds / resident_s)});
  t2.print();
  json.add("Server/resident/step_rounds_per_s",
           resident_rounds / resident_s);

  // --- 3. Mixed-QoS lane: interactive p99 under saturating batch load. ---
  // Batch sessions don't scale below 64: the FIFO tail the lane exposes is
  // proportional to the batch population, and a tiny population would
  // flatten the contrast the acceptance ratio is measuring.
  const std::uint64_t kBatchSessions = rr::sim::scaled(128, 64);
  constexpr std::uint64_t kInterSessions = 4;
  constexpr std::uint64_t kInterWaves = 32;
  constexpr std::uint64_t kInterRounds = 8;
  constexpr std::uint64_t kBatchBacklog = 8192;
  const MixedResult fifo =
      run_mixed(pool, rr::serve::SchedPolicy::kFifo, graph, kBatchSessions,
                kInterSessions, kInterWaves, kInterRounds, kBatchBacklog);
  const MixedResult qos =
      run_mixed(pool, rr::serve::SchedPolicy::kQos, graph, kBatchSessions,
                kInterSessions, kInterWaves, kInterRounds, kBatchBacklog);
  // Scheduling must change latency only: the same sessions stepped the
  // same rounds under both policies land on byte-identical checkpoints.
  RR_REQUIRE(!fifo.probe_snapshot.empty() &&
                 fifo.probe_snapshot == qos.probe_snapshot,
             "probe snapshot differs across scheduling policies");
  RR_REQUIRE(!fifo.batch_snapshot.empty() &&
                 fifo.batch_snapshot == qos.batch_snapshot,
             "batch snapshot differs across scheduling policies");
  RR_REQUIRE(fifo.probe_hash == qos.probe_hash &&
                 fifo.probe_time == qos.probe_time,
             "probe summary differs across scheduling policies");

  Table t3({"policy", "batch sess", "inter p99 ms", "batch p99 s",
            "rounds/s"});
  t3.add_row({"fifo", Table::integer(kBatchSessions),
              Table::num(fifo.inter_p99 * 1e3, 3),
              Table::num(fifo.batch_p99, 3), Table::sci(fifo.rounds_per_s)});
  t3.add_row({"qos", Table::integer(kBatchSessions),
              Table::num(qos.inter_p99 * 1e3, 3),
              Table::num(qos.batch_p99, 3), Table::sci(qos.rounds_per_s)});
  t3.print();
  json.add_metric("Server/mixed/fifo/interactive_step", "p99_seconds",
                  fifo.inter_p99);
  json.add_metric("Server/mixed/qos/interactive_step", "p99_seconds",
                  qos.inter_p99);
  json.add_metric("Server/mixed/fifo/batch_step", "p99_seconds",
                  fifo.batch_p99);
  json.add_metric("Server/mixed/qos/batch_step", "p99_seconds",
                  qos.batch_p99);
  json.add("Server/mixed/fifo/step_rounds_per_s", fifo.rounds_per_s);
  json.add("Server/mixed/qos/step_rounds_per_s", qos.rounds_per_s);

  const double tail_ratio =
      qos.inter_p99 > 0 ? fifo.inter_p99 / qos.inter_p99 : 0;
  std::printf("\ninteractive p99 %.3f ms (fifo) -> %.3f ms (qos), %.1fx "
              "better; probe checkpoint bit-identical across policies "
              "(t=%llu, hash=%016llx) (acceptance: >= 3x) %s\n\n",
              fifo.inter_p99 * 1e3, qos.inter_p99 * 1e3, tail_ratio,
              static_cast<unsigned long long>(qos.probe_time),
              static_cast<unsigned long long>(qos.probe_hash),
              tail_ratio >= 3.0 ? "PASS" : "WARN");
  return rss_ok ? 0 : 1;
}

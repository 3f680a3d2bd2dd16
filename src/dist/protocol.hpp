#pragma once

// Wire protocol of the distributed rotor-router (dist layer).
//
// core::DistributedRotorRouter (dist/coordinator.hpp) drives N worker
// processes, each owning one contiguous arc-balanced shard of the CSR row
// space; this header is the messages they exchange. The framing is the
// serving layer's, reused verbatim (serve/protocol.hpp: u32le payload
// length | payload | u32le CRC32), so one framing discipline — and one
// tested FrameDecoder — covers every socket in the repository.
//
// Every message kind shares ONE generic shape, DistMsg: a kind byte,
// four scalar varints (round, shard, value, value2), a sparse pair list,
// a list-of-u64-lists, and a text blob. One codec means one total,
// fuzz-hardened decoder (tests/dist_protocol_test.cpp mirrors the
// serve_protocol lanes) instead of fifteen hand-rolled ones; kinds simply
// leave unused fields empty, which costs one zero byte each on the wire.
//
// Decoding is total: truncated or overlong varints, element counts
// exceeding the remaining payload (a crafted count can never force an
// allocation beyond the frame's own size), unknown kinds, and trailing
// bytes all yield nullopt — a worker socket carries whatever the peer
// process writes, and the never-abort contract of the checkpoint codecs
// extends to this layer.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/wire.hpp"

namespace rr::dist {

/// Frame helpers shared with the serving layer (identical wire form).
using serve::encode_frame;
using serve::FrameDecoder;
using serve::kMaxFramePayload;

/// Message kinds of one distributed round (see dist/coordinator.hpp for
/// the round protocol; field usage per kind is documented at each enum).
enum class MsgKind : std::uint8_t {
  /// coordinator -> worker, once: text = graph descriptor, shard = the
  /// worker's shard index, value = worker count, value2 = spill batch
  /// size, pairs = agent (site, count) multiset, lists[0] = initial
  /// pointer field (may be empty). Worker replies kOk.
  kInit = 1,
  /// coordinator -> worker: round = t, pairs = (node, held) for the
  /// worker's nodes with a nonzero delay hold this round (the delay
  /// schedule is evaluated at the coordinator; see kOccupiedQuery).
  kScan = 2,
  /// worker -> coordinator -> worker: round = t, shard = destination
  /// worker, pairs = (node, agents) cross-shard arrivals. The coordinator
  /// relays each batch to its destination on receipt; socket FIFO order
  /// guarantees every relayed batch for round t precedes kCommit(t).
  kSpill = 3,
  /// worker -> coordinator: round = t, value = spill bytes emitted this
  /// round, value2 = batches emitted, shard = batches flushed mid-scan
  /// (the comms/compute overlap measure).
  kScanDone = 4,
  /// coordinator -> worker: round = t. Commit all arrivals of round t.
  kCommit = 5,
  /// worker -> coordinator: round = t, value = nodes newly covered.
  kCommitDone = 6,
  /// coordinator -> worker: round = t (the upcoming round). Worker
  /// replies kOccupied so the coordinator can evaluate the delay schedule.
  kOccupiedQuery = 7,
  /// worker -> coordinator: pairs = (node, present) for occupied rows.
  kOccupied = 8,
  /// coordinator -> worker: value = running FNV-1a state. The worker
  /// continues the hash over its own rows' (pointer, count) and replies
  /// kHashReply; chaining worker 0..N-1 reproduces the sequential
  /// engine's config_hash exactly (FNV is a left fold).
  kHash = 9,
  /// worker -> coordinator: value = continued hash state.
  kHashReply = 10,
  /// coordinator -> worker: request the worker's full shard state.
  kGather = 11,
  /// worker -> coordinator: value = round, pairs = (node, count) occupied
  /// sites ascending, lists = {pointers, initial_pointers, visits, exits,
  /// first_visit, last_visit} over the shard's row range.
  kGathered = 12,
  /// coordinator -> worker: same shape as kGathered; the worker adopts
  /// the state for its row range (checkpoint-restore path, which is how
  /// a restart may change the worker count). Worker replies kOk.
  kScatter = 13,
  /// Generic acknowledgement.
  kOk = 14,
  /// coordinator -> worker: exit cleanly.
  kShutdown = 15,
};

/// The one message shape every kind shares (unused fields stay empty).
struct DistMsg {
  MsgKind kind = MsgKind::kOk;
  std::uint64_t round = 0;
  std::uint64_t shard = 0;
  std::uint64_t value = 0;
  std::uint64_t value2 = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  std::vector<std::vector<std::uint64_t>> lists;
  std::string text;
};

/// Encodes a message payload (frame it with encode_frame for the wire).
std::string encode_msg(const DistMsg& m);

/// Total decode; nullopt on any malformed payload (see header comment).
std::optional<DistMsg> decode_msg(const std::uint8_t* data, std::size_t size);

inline std::optional<DistMsg> decode_msg(const std::string& payload) {
  return decode_msg(reinterpret_cast<const std::uint8_t*>(payload.data()),
                    payload.size());
}

// ---- blocking socket helpers (worker side) ----
//
// Workers run a plain blocking read/dispatch/reply loop; only the
// coordinator multiplexes (poll + FrameDecoder per worker, the rr_serverd
// pump idiom). These helpers retry short writes and EINTR.

/// Writes one framed message; false on any socket error (peer gone).
bool send_msg(int fd, const DistMsg& m);

/// Reads until one full frame decodes; nullopt on EOF, socket error, or a
/// fatally malformed stream.
std::optional<DistMsg> recv_msg(int fd, FrameDecoder& dec);

}  // namespace rr::dist

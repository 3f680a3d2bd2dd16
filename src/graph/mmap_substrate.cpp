#include "graph/mmap_substrate.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#if defined(__unix__) || defined(__APPLE__)
#define RR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/hash.hpp"
#include "graph/descriptor.hpp"
#include "graph/row_source.hpp"

namespace rr::graph {

namespace {

// "RRGRAPH1" read as a little-endian u64.
constexpr std::uint64_t kImageMagic = 0x3148504152475252ull;
constexpr std::uint32_t kImageVersion = 1;
constexpr std::uint64_t kImagePage = 4096;

// The builder can exceed the descriptor build cap (that cap bounds
// *in-memory* construction), but not without limit: this bounds the
// image at ~64 GB of adjacency so a typo'd descriptor fails fast instead
// of filling the disk.
constexpr std::uint64_t kMaxImageArcs = 1ull << 33;

// CsrGraph's offsets view reinterprets the image's u64 section.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "rr-graph images require 64-bit std::size_t");
static_assert(sizeof(NodeState) == 32, "image node_state section layout");

struct ImageHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t descriptor_len = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_arcs = 0;
  std::uint64_t offsets_off = 0;
  std::uint64_t neighbors_off = 0;
  std::uint64_t ports_off = 0;
  std::uint64_t node_state_off = 0;
  std::uint64_t visit_stats_off = 0;
  std::uint64_t file_size = 0;
  std::uint64_t reserved = 0;
  std::uint64_t check = 0;  // FNV-1a over the fields above + descriptor
};
static_assert(sizeof(ImageHeader) == 96);

// The visit_stats section record: core::VisitStats's layout spelled at
// the graph layer (four u64: visits, exits, first_visit, last_visit),
// with first_visit pre-filled to the ~0 "never visited" sentinel.
struct ImageVisitStats {
  std::uint64_t visits = 0;
  std::uint64_t exits = 0;
  std::uint64_t first_visit = ~std::uint64_t{0};
  std::uint64_t last_visit = 0;
};
static_assert(sizeof(ImageVisitStats) == 32);

std::uint64_t header_check(const ImageHeader& h, const char* descriptor,
                           std::size_t descriptor_len) {
  Fnv1a f;
  f.mix(h.magic);
  f.mix(h.version);
  f.mix(h.descriptor_len);
  f.mix(h.num_nodes);
  f.mix(h.num_arcs);
  f.mix(h.offsets_off);
  f.mix(h.neighbors_off);
  f.mix(h.ports_off);
  f.mix(h.node_state_off);
  f.mix(h.visit_stats_off);
  f.mix(h.file_size);
  for (std::size_t i = 0; i < descriptor_len; ++i) {
    f.mix(static_cast<unsigned char>(descriptor[i]));
  }
  return f.value();
}

std::uint64_t align_page(std::uint64_t x) {
  return (x + kImagePage - 1) / kImagePage * kImagePage;
}

bool set_error(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

#if defined(RR_HAVE_MMAP)

bool write_at(std::FILE* f, std::uint64_t off, const void* data,
              std::size_t size) {
  if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) return false;
  return std::fwrite(data, 1, size, f) == size;
}

/// Appends through a chunk buffer so the many tiny rows become few large
/// fwrites.
template <typename T>
class ChunkWriter {
 public:
  ChunkWriter(std::FILE* f, std::uint64_t off) : f_(f), off_(off) {
    buf_.reserve(kChunk);
  }
  void push(const T& value) { buf_.push_back(value); }
  void append(const T* values, std::size_t count) {
    buf_.insert(buf_.end(), values, values + count);
  }
  bool maybe_flush() { return buf_.size() < kChunk || flush(); }
  bool flush() {
    if (buf_.empty()) return true;
    if (!write_at(f_, off_, buf_.data(), buf_.size() * sizeof(T))) {
      return false;
    }
    off_ += buf_.size() * sizeof(T);
    buf_.clear();
    return true;
  }

 private:
  static constexpr std::size_t kChunk = 1 << 16;
  std::FILE* f_;
  std::uint64_t off_;
  std::vector<T> buf_;
};

#endif  // RR_HAVE_MMAP

}  // namespace

#if defined(RR_HAVE_MMAP)

bool MappedSubstrate::build(const std::string& descriptor_text,
                            const std::string& path, std::string* error) {
  const auto d = GraphDescriptor::parse(descriptor_text);
  if (!d) return set_error(error, "malformed graph descriptor");
  if (descriptor_text.size() > kImagePage - sizeof(ImageHeader)) {
    return set_error(error, "descriptor text too long for the header page");
  }

  // Streamed generators for the lattice kinds; everything else builds in
  // memory under the descriptor layer's cost caps.
  std::optional<Graph> built;
  std::unique_ptr<RowSource> src;
  if (is_streamed_kind(d->kind)) {
    src = streamed_rows(*d, error);
    if (!src) return false;
  } else {
    built = d->build();
    if (!built) {
      return set_error(error,
                       "descriptor invalid or too large to build in memory");
    }
    if (!built->is_connected()) {
      return set_error(error, "substrate must be connected");
    }
    src = std::make_unique<GraphSource>(*built);
  }

  const std::uint64_t n = src->num_nodes();
  const std::uint64_t arcs = src->num_arcs();
  if (n == 0 || n > ~NodeId{0} || arcs > kMaxImageArcs) {
    return set_error(error, "graph too large for an rr-graph image");
  }

  ImageHeader h;
  h.magic = kImageMagic;
  h.version = kImageVersion;
  h.descriptor_len = static_cast<std::uint32_t>(descriptor_text.size());
  h.num_nodes = n;
  h.num_arcs = arcs;
  h.offsets_off = kImagePage;
  h.neighbors_off = align_page(h.offsets_off + 8 * (n + 1));
  h.ports_off = align_page(h.neighbors_off + 4 * arcs);
  h.node_state_off = align_page(h.ports_off + 4 * arcs);
  h.visit_stats_off = align_page(h.node_state_off + sizeof(NodeState) * n);
  h.file_size = align_page(h.visit_stats_off + sizeof(ImageVisitStats) * n);
  h.check = header_check(h, descriptor_text.data(), descriptor_text.size());

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return set_error(error, "cannot create image file");

  bool ok = true;
  std::vector<NodeId> nbr;
  std::vector<std::uint32_t> ports;
  {
    // offsets + node_state in one row pass over degrees...
    ChunkWriter<std::uint64_t> offsets(f, h.offsets_off);
    ChunkWriter<NodeState> states(f, h.node_state_off);
    std::uint64_t off = 0;
    for (std::uint64_t v = 0; ok && v < n; ++v) {
      offsets.push(off);
      NodeState ns;
      ns.degree = src->degree(static_cast<NodeId>(v));
      ns.row_begin = off;
      states.push(ns);
      off += ns.degree;
      ok = offsets.maybe_flush() && states.maybe_flush();
    }
    offsets.push(off);
    ok = ok && off == arcs && offsets.flush() && states.flush();
  }
  if (ok) {
    // ...neighbors and sorted ports in a second (rows are regenerated;
    // for the streamed kinds that is pure arithmetic)...
    ChunkWriter<NodeId> neighbors(f, h.neighbors_off);
    ChunkWriter<std::uint32_t> sorted(f, h.ports_off);
    for (std::uint64_t v = 0; ok && v < n; ++v) {
      const std::uint32_t degree = src->degree(static_cast<NodeId>(v));
      nbr.resize(degree);
      ports.resize(degree);
      src->row(static_cast<NodeId>(v), nbr.data());
      sort_row_ports(nbr.data(), degree, ports.data());
      neighbors.append(nbr.data(), nbr.size());
      sorted.append(ports.data(), ports.size());
      ok = neighbors.maybe_flush() && sorted.maybe_flush();
    }
    ok = ok && neighbors.flush() && sorted.flush();
  }
  if (ok) {
    // ...and the constant visit_stats pattern blockwise.
    const std::vector<ImageVisitStats> block(
        std::min<std::uint64_t>(n, 1 << 14));
    std::uint64_t off = h.visit_stats_off;
    for (std::uint64_t done = 0; ok && done < n; done += block.size()) {
      const std::uint64_t count = std::min<std::uint64_t>(block.size(),
                                                          n - done);
      ok = write_at(f, off, block.data(), count * sizeof(ImageVisitStats));
      off += count * sizeof(ImageVisitStats);
    }
  }
  if (ok) {
    // Header page last (a torn build never carries a valid magic), and
    // one byte at the end so the file spans exactly file_size.
    std::vector<std::uint8_t> page(kImagePage, 0);
    std::memcpy(page.data(), &h, sizeof h);
    std::memcpy(page.data() + sizeof h, descriptor_text.data(),
                descriptor_text.size());
    const std::uint8_t zero = 0;
    ok = write_at(f, h.file_size - 1, &zero, 1) &&
         write_at(f, 0, page.data(), page.size());
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "image write failed");
  }
  return true;
}

std::shared_ptr<MappedSubstrate> MappedSubstrate::open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<std::uint64_t>(st.st_size) < kImagePage) {
    ::close(fd);
    return nullptr;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  // Read-write PRIVATE: engine state sections are mutated in place, but
  // every write lands in this mapping's copy-on-write pages, never the
  // file — reopening always yields the pristine built state.
  void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) return nullptr;

  auto reject = [map, size]() -> std::shared_ptr<MappedSubstrate> {
    ::munmap(map, size);
    return nullptr;
  };
  ImageHeader h;
  std::memcpy(&h, map, sizeof h);
  if (h.magic != kImageMagic || h.version != kImageVersion ||
      h.reserved != 0) {
    return reject();
  }
  if (h.descriptor_len == 0 ||
      h.descriptor_len > kImagePage - sizeof(ImageHeader)) {
    return reject();
  }
  const char* desc = static_cast<const char*>(map) + sizeof(ImageHeader);
  if (h.check != header_check(h, desc, h.descriptor_len)) return reject();
  if (h.file_size != size || h.num_nodes == 0 || h.num_nodes > ~NodeId{0} ||
      h.num_arcs > kMaxImageArcs) {
    return reject();
  }
  // Section bounds: page-aligned, in order, each long enough for its
  // array. (All terms fit: num_nodes <= 2^32, num_arcs <= 2^33.)
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t offs[] = {h.offsets_off, h.neighbors_off, h.ports_off,
                                h.node_state_off, h.visit_stats_off};
  const std::uint64_t lens[] = {8 * (n + 1), 4 * h.num_arcs, 4 * h.num_arcs,
                                sizeof(NodeState) * n,
                                sizeof(ImageVisitStats) * n};
  std::uint64_t prev_end = kImagePage;
  for (int i = 0; i < 5; ++i) {
    if (offs[i] % kImagePage != 0 || offs[i] < prev_end ||
        lens[i] > size - offs[i]) {
      return reject();
    }
    prev_end = offs[i] + lens[i];
  }
  // The one content invariant cheap enough to check at open time.
  const auto* offsets = static_cast<const std::uint64_t*>(
      static_cast<const void*>(static_cast<const char*>(map) + h.offsets_off));
  if (offsets[0] != 0 || offsets[n] != h.num_arcs) return reject();

  auto sub = std::shared_ptr<MappedSubstrate>(new MappedSubstrate());
  sub->map_ = map;
  sub->map_size_ = size;
  sub->descriptor_.assign(desc, h.descriptor_len);
  sub->num_nodes_ = h.num_nodes;
  sub->num_arcs_ = h.num_arcs;
  sub->offsets_off_ = h.offsets_off;
  sub->neighbors_off_ = h.neighbors_off;
  sub->ports_off_ = h.ports_off;
  sub->node_state_off_ = h.node_state_off;
  sub->visit_stats_off_ = h.visit_stats_off;
  return sub;
}

MappedSubstrate::~MappedSubstrate() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

void MappedSubstrate::advise_random() const {
  if (map_ != nullptr) ::madvise(map_, map_size_, MADV_RANDOM);
}

void MappedSubstrate::advise_sequential() const {
  if (map_ != nullptr) ::madvise(map_, map_size_, MADV_SEQUENTIAL);
}

#else  // !RR_HAVE_MMAP

bool MappedSubstrate::build(const std::string&, const std::string&,
                            std::string* error) {
  return set_error(error, "rr-graph images require POSIX mmap");
}

std::shared_ptr<MappedSubstrate> MappedSubstrate::open(const std::string&) {
  return nullptr;
}

MappedSubstrate::~MappedSubstrate() = default;
void MappedSubstrate::advise_random() const {}
void MappedSubstrate::advise_sequential() const {}

#endif  // RR_HAVE_MMAP

CsrGraph MappedSubstrate::csr() {
  return CsrGraph(static_cast<const std::size_t*>(section(offsets_off_)),
                  static_cast<NodeId>(num_nodes_),
                  static_cast<const NodeId*>(section(neighbors_off_)),
                  static_cast<const std::uint32_t*>(section(ports_off_)),
                  shared_from_this());
}

MappedArray<NodeState> MappedSubstrate::node_state() {
  return MappedArray<NodeState>(
      static_cast<NodeState*>(section(node_state_off_)), num_nodes_,
      shared_from_this());
}

void* MappedSubstrate::visit_stats_raw(std::size_t record_size) {
  RR_REQUIRE(record_size == sizeof(ImageVisitStats),
             "visit-stats record size does not match the image layout");
  return section(visit_stats_off_);
}

}  // namespace rr::graph

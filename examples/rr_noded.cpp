// rr_noded: distributed rotor-router worker process (dist layer).
//
//   rr_noded --dist-fd N                 serve an inherited socketpair fd
//                                        (how the rr_cli coordinator
//                                        fork/execs its workers)
//   [--fail-after-scans N]               fault-injection: drop the
//                                        connection at the N-th kScan
//                                        (crash-recovery test lanes)
//
// The process is one blocking worker_serve loop: it receives its shard
// assignment in kInit and exits when the coordinator shuts down or the
// socket closes. Exit code 0 on a clean shutdown/EOF, 1 on protocol
// errors, 2 on usage errors or a rejected init (matching rr_cli's
// usage-error convention).

#include <cstdio>
#include <string>

#include "common/parse.hpp"
#include "dist/worker.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: rr_noded --dist-fd N [--fail-after-scans N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t dist_fd = ~std::uint64_t{0};
  std::uint64_t fail_after = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rr_noded: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--dist-fd") {
      const char* v = next("--dist-fd");
      // An fd is a small non-negative integer; 3 is the first value an
      // inherited descriptor can land on after stdio.
      if (!v || !rr::parse_flag_u64_range("rr_noded", "--dist-fd", v, 3,
                                          1u << 20, dist_fd)) {
        return 2;
      }
    } else if (a == "--fail-after-scans") {
      const char* v = next("--fail-after-scans");
      if (!v || !rr::parse_flag_u64("rr_noded", "--fail-after-scans", v,
                                    fail_after)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "rr_noded: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (dist_fd == ~std::uint64_t{0}) return usage();
  return rr::dist::worker_serve(static_cast<int>(dist_fd), fail_after);
}

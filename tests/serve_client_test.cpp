// serve::Client over a real AF_UNIX socket: a loopback server thread
// answers through an in-process SessionService (handle + pump), so the
// client's connect, framing, reply matching, pipelined-reply stash and
// EOF handling all run against the production codecs.

#include "serve/client.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "temp_path.hpp"

namespace rr::serve {
namespace {

/// Listens on `path` before the constructor returns, accepts one client
/// and serves it from a SessionService; after `max_frames` request
/// frames (0 = unlimited) it closes the connection.
class LoopbackServer {
 public:
  explicit LoopbackServer(std::string path, int max_frames = 0)
      : path_(std::move(path)), max_frames_(max_frames) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const bool fits = path_.size() < sizeof addr.sun_path;
    if (fits) std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ::unlink(path_.c_str());
    const bool listening =
        fits && listen_fd_ >= 0 &&
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) == 0 &&
        ::listen(listen_fd_, 1) == 0;
    EXPECT_TRUE(listening) << path_;
    if (listening) thread_ = std::thread([this] { serve(); });
  }

  ~LoopbackServer() {
    // Wakes an accept() still waiting because the test failed before
    // its client connected.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    ServiceOptions opt;
    opt.ckpt_dir = ::testing::TempDir();
    SessionService service(opt);
    FrameDecoder decoder;
    std::vector<SessionService::Outgoing> out;
    int handled = 0;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (const auto payload = decoder.next()) {
        service.handle(1,
                       reinterpret_cast<const std::uint8_t*>(payload->data()),
                       payload->size(), out);
        do {
          service.pump(out);
        } while (service.has_pending_work());
        bool sent = true;
        for (const auto& o : out) {
          sent = sent && ::send(fd, o.frame.data(), o.frame.size(),
                                MSG_NOSIGNAL) ==
                             static_cast<ssize_t>(o.frame.size());
        }
        EXPECT_TRUE(sent);
        out.clear();
        if (!sent || ++handled == max_frames_) {
          ::close(fd);
          return;
        }
      }
    }
    ::close(fd);
  }

  std::string path_;
  int max_frames_;
  int listen_fd_ = -1;
  std::thread thread_;
};

Request request(std::uint64_t id, Op op) {
  Request req;
  req.id = id;
  req.op = op;
  return req;
}

TEST(ServeClient, CallsMatchRepliesOverTheSocket) {
  const std::string path = rr::testing::unique_temp_path("c.sock");
  LoopbackServer server(path);
  Client client;
  ASSERT_TRUE(client.connect(path));
  EXPECT_TRUE(client.connected());

  Request create = request(1, Op::kCreate);
  create.engine = "rotor";
  create.graph = "ring 16";
  create.k = 2;
  const auto created = client.call(create);
  ASSERT_TRUE(created.has_value());
  EXPECT_EQ(created->id, 1u);
  ASSERT_EQ(created->status, Status::kOk) << created->message;
  EXPECT_EQ(created->nodes, 16u);

  // Step replies are deferred to the pump that finishes the rounds.
  Request step = request(2, Op::kStep);
  step.session = created->session;
  step.rounds = 40;
  const auto stepped = client.call(step);
  ASSERT_TRUE(stepped.has_value());
  EXPECT_EQ(stepped->id, 2u);
  EXPECT_EQ(stepped->status, Status::kOk);
  EXPECT_EQ(stepped->time, 40u);
  client.close();
  EXPECT_FALSE(client.connected());
}

TEST(ServeClient, PipelinedRepliesAreStashedForNextReply) {
  const std::string path = rr::testing::unique_temp_path("p.sock");
  LoopbackServer server(path);
  Client client;
  ASSERT_TRUE(client.connect(path));
  ASSERT_TRUE(client.send(request(7, Op::kInfo)));
  ASSERT_TRUE(client.send(request(8, Op::kInfo)));
  // call() reads past the two earlier replies to find its own...
  const auto mine = client.call(request(9, Op::kInfo));
  ASSERT_TRUE(mine.has_value());
  EXPECT_EQ(mine->id, 9u);
  // ...and next_reply() hands the stashed ones out in arrival order.
  const auto first = client.next_reply();
  const auto second = client.next_reply();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->id, 7u);
  EXPECT_EQ(second->id, 8u);
  EXPECT_EQ(first->status, Status::kOk);
}

TEST(ServeClient, ServerEofYieldsNullopt) {
  const std::string path = rr::testing::unique_temp_path("e.sock");
  LoopbackServer server(path, /*max_frames=*/1);
  Client client;
  ASSERT_TRUE(client.connect(path));
  ASSERT_TRUE(client.call(request(1, Op::kInfo)).has_value());
  // The server hung up after one frame.
  EXPECT_FALSE(client.next_reply().has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.call(request(2, Op::kInfo)).has_value());
}

TEST(ServeClient, ConnectFailuresReturnFalse) {
  Client client;
  // Longer than sockaddr_un::sun_path can hold.
  EXPECT_FALSE(client.connect("/tmp/" + std::string(200, 'x')));
  // Nobody listening.
  const std::string path = rr::testing::unique_temp_path("none.sock");
  ::unlink(path.c_str());
  EXPECT_FALSE(client.connect(path));
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.send(request(1, Op::kInfo)));
  EXPECT_FALSE(client.next_reply().has_value());
}

}  // namespace
}  // namespace rr::serve

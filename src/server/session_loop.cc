#include "server/session_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace anker::server {

namespace {

using Clock = std::chrono::steady_clock;

/// One epoll_wait tick: bounds how stale idle-timeout and shutdown checks
/// can get when no IO arrives.
constexpr int kTickMillis = 100;

void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SessionLoop::SessionLoop(Handler* handler, ThreadPool* workers,
                         SessionConfig config)
    : handler_(handler), workers_(workers), config_(std::move(config)) {
  ANKER_CHECK(handler_ != nullptr && workers_ != nullptr);
  if (config_.max_pipeline == 0) config_.max_pipeline = 1;
}

SessionLoop::~SessionLoop() { Shutdown(); }

Status SessionLoop::Start() {
  ANKER_CHECK_MSG(!running_.load(), "SessionLoop::Start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IoErrorFromErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  Status status = Status::OK();
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    status = Status::InvalidArgument("bad listen address: " + config_.host);
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
    status = Status::IoErrorFromErrno("bind");
  } else if (::listen(listen_fd_, 128) < 0) {
    status = Status::IoErrorFromErrno("listen");
  }
  if (!status.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    status = Status::IoErrorFromErrno("epoll/eventfd");
    Shutdown();
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  stopping_.store(false);
  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void SessionLoop::Shutdown() {
  if (running_.load()) {
    stopping_.store(true);
    WakeLoop();
    if (loop_.joinable()) loop_.join();
    running_.store(false);
  }
  // A dispatched worker's last act is decrementing inflight_ (after its
  // completion push); only then is it safe to tear down the fds and let
  // the loop die.
  while (inflight_.load() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

ServerStats SessionLoop::stats() const {
  ServerStats stats;
  stats.sessions_accepted = sessions_accepted_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return stats;
}

void SessionLoop::WakeLoop() {
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void SessionLoop::EventLoop() {
  std::vector<epoll_event> events(64);
  bool listener_open = true;
  Clock::time_point stopping_since{};
  while (true) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), kTickMillis);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      std::shared_ptr<Session> session = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseSession(session);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) FlushOutbox(session);
      if ((events[i].events & EPOLLIN) != 0 && !session->closed) {
        HandleReadable(session);
      }
    }

    // Dispatched-op completions: restore the session to the loop.
    std::vector<std::shared_ptr<Session>> completed;
    {
      std::lock_guard<std::mutex> guard(completed_mutex_);
      completed.swap(completed_);
    }
    for (const std::shared_ptr<Session>& session : completed) {
      session->busy = false;
      if (session->closed) {
        // The peer vanished while its op ran. CloseSession could not
        // release the session's state then (the worker owned it); do it
        // now, or an open transaction would pin the GC watermark forever.
        handler_->Closed(*session);
        continue;
      }
      session->outbox.append(session->dispatched_response);
      session->dispatched_response.clear();
      Settle(*session, session->dispatched_outcome);
      FlushOutbox(session);
      if (!session->closed) PumpSession(session);
    }

    // Idle-timeout sweep.
    if (config_.idle_timeout_millis > 0) {
      const auto deadline =
          Clock::now() - std::chrono::milliseconds(config_.idle_timeout_millis);
      std::vector<std::shared_ptr<Session>> idle;
      for (const auto& [sfd, session] : sessions_) {
        if (!session->busy && session->last_active < deadline) {
          idle.push_back(session);
        }
      }
      for (const std::shared_ptr<Session>& session : idle) {
        CloseSession(session);
      }
    }

    // Graceful shutdown: stop accepting, drain in-flight work, let every
    // queued response reach its socket (a durable COMMIT's ack must not
    // be discarded by the shutdown that raced it), leave when every
    // session is gone. A peer that stops reading cannot hold the loop
    // hostage: after a drain deadline its session is cut regardless.
    if (stopping_.load()) {
      if (listener_open) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listener_open = false;
        stopping_since = Clock::now();
      }
      const bool force =
          Clock::now() - stopping_since > std::chrono::seconds(5);
      std::vector<std::shared_ptr<Session>> drainable;
      for (const auto& [sfd, session] : sessions_) {
        if (!session->busy) drainable.push_back(session);
      }
      for (const std::shared_ptr<Session>& session : drainable) {
        FlushOutbox(session);
        if (session->closed) continue;
        if (session->outbox.empty() || force) {
          CloseSession(session);
        } else {
          session->close_after_flush = true;  // EPOLLOUT finishes the job.
        }
      }
      if (sessions_.empty() && inflight_.load() == 0) break;
    }
  }
}

void SessionLoop::HandleAccept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (stopping_.load() || sessions_.size() >= config_.max_sessions) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::shared_ptr<Session> session = handler_->NewSession();
    session->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    sessions_[fd] = std::move(session);
    Bump(sessions_accepted_);
  }
}

void SessionLoop::HandleReadable(const std::shared_ptr<Session>& session) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(session->fd, chunk, sizeof(chunk));
    if (n > 0) {
      session->inbox.append(chunk, static_cast<size_t>(n));
      session->last_active = Clock::now();
      continue;
    }
    if (n == 0) {  // Peer closed.
      CloseSession(session);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseSession(session);
    return;
  }
  IngestFrames(session);
  if (!session->closed) PumpSession(session);
}

void SessionLoop::IngestFrames(const std::shared_ptr<Session>& session) {
  size_t offset = 0;
  while (true) {
    std::string_view rest(session->inbox.data() + offset,
                          session->inbox.size() - offset);
    std::string_view payload;
    size_t consumed = 0;
    const FrameStatus status = DecodeFrame(rest, &payload, &consumed);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kCorrupt) {
      // The byte stream is no longer trustworthy; nothing can be framed,
      // so nothing can be answered. Close.
      Bump(protocol_errors_);
      CloseSession(session);
      return;
    }
    Bump(frames_received_);
    if (session->pending.size() >= config_.max_pipeline) {
      Settle(*session,
             ProtocolError("pipeline window exceeded", &session->outbox));
      break;
    }
    session->pending.emplace_back(payload);
    offset += consumed;
  }
  session->inbox.erase(0, offset);
}

void SessionLoop::PumpSession(const std::shared_ptr<Session>& session) {
  while (!session->busy && !session->closed && !session->close_after_flush &&
         !session->pending.empty()) {
    std::string payload = std::move(session->pending.front());
    session->pending.pop_front();
    session->last_active = Clock::now();
    ExecuteRequest(session, std::move(payload));
  }
  if (!session->closed) FlushOutbox(session);
}

void SessionLoop::ExecuteRequest(const std::shared_ptr<Session>& session,
                                 std::string payload) {
  if (payload.empty() || !IsRequestOp(static_cast<uint8_t>(payload[0]))) {
    AppendError(Op::kErr, WireError::kNotSupported,
                "unknown or non-request opcode", &session->outbox);
    return;
  }
  const Op op = static_cast<Op>(payload[0]);
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  Outcome outcome;
  if (!session->ready) {
    outcome = Handshake(*session, op, body);
  } else if (op == Op::kHello) {
    outcome = ProtocolError("HELLO must be the first frame, exactly once",
                            &session->outbox);
  } else {
    outcome = handler_->Inline(*session, op, body, &session->outbox);
  }
  if (outcome != Outcome::kDispatch) {
    Settle(*session, outcome);
    return;
  }

  // Admission control: dispatched work may fsync, scan or wait on a
  // backend for a while. Beyond the inflight budget the client gets an
  // explicit BUSY instead of an unbounded queue.
  if (inflight_.load() >= config_.max_inflight) {
    AppendError(Op::kBusy, WireError::kResourceBusy, "at max_inflight; retry",
                &session->outbox);
    Bump(busy_rejections_);
    return;
  }
  inflight_.fetch_add(1);
  session->busy = true;
  workers_->Submit([this, session, payload = std::move(payload)]() mutable {
    session->dispatched_response.clear();
    session->dispatched_outcome =
        handler_->Dispatched(*session, payload, &session->dispatched_response);
    {
      std::lock_guard<std::mutex> guard(completed_mutex_);
      completed_.push_back(std::move(session));
    }
    WakeLoop();
    // Last touch of `this`: Shutdown() spins on inflight_ before tearing
    // the loop down, so everything above stays valid.
    inflight_.fetch_sub(1);
  });
}

SessionLoop::Outcome SessionLoop::Handshake(Session& session, Op op,
                                            std::string_view body) {
  if (op != Op::kHello) {
    return ProtocolError("first frame must be HELLO", &session.outbox);
  }
  HelloMsg hello;
  const Status decoded = DecodeHello(body, &hello);
  if (!decoded.ok() || hello.version != kProtocolVersion ||
      hello.auth_token != config_.auth_token) {
    const char* why = !decoded.ok() ? "malformed HELLO"
                      : hello.version != kProtocolVersion
                          ? "unsupported protocol version"
                          : "authentication failed";
    AppendError(Op::kErr, WireError::kBadHandshake, why, &session.outbox);
    return Outcome::kProtocolError;
  }
  std::string response;
  EncodeHelloOk(handler_->HelloOk(), &response);
  EncodeFrame(response, &session.outbox);
  session.ready = true;
  return Outcome::kKeep;
}

void SessionLoop::Settle(Session& session, Outcome outcome) {
  if (outcome == Outcome::kProtocolError) Bump(protocol_errors_);
  if (outcome != Outcome::kKeep) session.close_after_flush = true;
}

SessionLoop::Outcome SessionLoop::ProtocolError(std::string_view message,
                                                std::string* out) {
  AppendError(Op::kErr, WireError::kProtocolError, message, out);
  return Outcome::kProtocolError;
}

void SessionLoop::AppendError(Op op, WireError code, std::string_view message,
                              std::string* out) {
  std::string payload;
  EncodeErr(op, {code, std::string(message)}, &payload);
  EncodeFrame(payload, out);
}

void SessionLoop::FlushOutbox(const std::shared_ptr<Session>& session) {
  while (!session->outbox.empty()) {
    const ssize_t n = ::send(session->fd, session->outbox.data(),
                             session->outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session->outbox.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!session->want_write) {
        session->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = session->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session->fd, &ev);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseSession(session);
    return;
  }
  if (session->want_write) {
    session->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = session->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session->fd, &ev);
  }
  if (session->close_after_flush) CloseSession(session);
}

void SessionLoop::CloseSession(const std::shared_ptr<Session>& session) {
  if (session->closed) return;
  session->closed = true;
  // While busy, the worker owns the handler's session state; the
  // completion handler sees closed == true and releases it then.
  if (!session->busy) handler_->Closed(*session);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, session->fd, nullptr);
  ::close(session->fd);
  sessions_.erase(session->fd);
  Bump(sessions_closed_);
}

int SessionLoop::Detach(Session& session, std::string* residual) {
  int fd = session.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  while (!session.outbox.empty()) {
    const ssize_t n = ::send(fd, session.outbox.data(), session.outbox.size(),
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      fd = -1;
      break;
    }
    session.outbox.erase(0, static_cast<size_t>(n));
  }
  for (const std::string& queued : session.pending) {
    EncodeFrame(queued, residual);
  }
  session.pending.clear();
  residual->append(session.inbox);
  session.inbox.clear();
  // Either way the loop no longer owns this fd.
  sessions_.erase(session.fd);
  session.closed = true;
  session.fd = -1;
  Bump(sessions_closed_);
  return fd;
}

}  // namespace anker::server

#ifndef ANKER_SHARD_BACKEND_POOL_H_
#define ANKER_SHARD_BACKEND_POOL_H_

// Per-shard connection pools for the router's backend side. Each shard
// keeps a small free-list of connected Clients; Acquire hands one out
// as a Lease (dialing a fresh connection when the list is empty). The
// lease returns itself: on destruction a healthy connection goes back
// to its shard's idle list, and one whose sticky transport status
// (Client::transport_status) records a failure is closed. Callers
// therefore never decide between "release" and "discard".
//
// BUSY policy: every connection is dialed with one retry policy, so
// Client::RoundTrip re-sends an admission BUSY (and only that opcode)
// with capped exponential backoff. RouterCore installs its
// RouterCoreConfig busy_* fields here (SetBusyPolicy) before serving;
// the policy replaces BackendPoolConfig::client's busy_* fields rather
// than stacking on them.
//
// Shard-down handling: a failed dial opens a capped-exponential-backoff
// window during which further Acquires fail fast with kResourceBusy —
// the router maps that to a BUSY wire response, so writes against a
// down shard surface as the same recoverable backpressure clients
// already retry on. The first dial after the window either heals the
// shard (backoff resets) or extends it.
//
// Thread safety: fully thread-safe; workers acquire concurrently (a
// scatter-gather holds one connection per shard at once). The dial
// itself runs outside the lock so a slow connect never blocks other
// shards' traffic.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "server/client.h"
#include "shard/shard_map.h"

namespace anker::shard {

struct BackendPoolConfig {
  /// Options for every backend connection (auth token, IO timeout). The
  /// busy_* fields are overridden by SetBusyPolicy.
  server::ClientOptions client;
  int backoff_initial_millis = 50;
  int backoff_max_millis = 2000;
  /// Idle connections kept per shard; extras are closed on return.
  size_t max_idle_per_shard = 8;
};

class BackendPool {
 public:
  /// A connection on loan from the pool. Move-only; returns itself (or
  /// closes a connection whose transport failed) when destroyed.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Return(); }

    explicit operator bool() const { return client_ != nullptr; }
    server::Client* get() const { return client_.get(); }
    server::Client* operator->() const { return client_.get(); }
    size_t shard() const { return shard_; }

   private:
    friend class BackendPool;
    Lease(BackendPool* pool, size_t shard,
          std::unique_ptr<server::Client> client)
        : pool_(pool), shard_(shard), client_(std::move(client)) {}
    void Return();

    BackendPool* pool_ = nullptr;
    size_t shard_ = 0;
    std::unique_ptr<server::Client> client_;
  };

  BackendPool(std::vector<ShardEndpoint> shards, BackendPoolConfig config);
  ANKER_DISALLOW_COPY_AND_MOVE(BackendPool);

  size_t num_shards() const { return shards_.size(); }
  const ShardEndpoint& endpoint(size_t shard) const { return shards_[shard]; }

  /// Sets the BUSY retry policy of every connection dialed from now on.
  /// Call before the pool serves traffic: connections already dialed
  /// keep the policy they were dialed with.
  void SetBusyPolicy(int retry_budget, int backoff_initial_millis,
                     int backoff_max_millis);

  /// A pooled connection or a fresh dial. kResourceBusy while the shard
  /// is inside its reconnect-backoff window or the dial fails (which
  /// opens/extends the window). One failure on an established
  /// connection does not open the window — the dial verdict does.
  Result<Lease> Acquire(size_t shard);

  /// Health probe: a pooled/fresh connection answering PING. Cheap when
  /// the shard is inside backoff (fails fast without touching the
  /// network).
  bool ProbeHealthy(size_t shard);

  /// Shards currently answering PING (drives ROUTER_STATUS).
  size_t CountHealthy();

 private:
  using Clock = std::chrono::steady_clock;

  struct Backend {
    std::mutex mutex;
    std::vector<std::unique_ptr<server::Client>> idle;
    int dial_failures = 0;          ///< Consecutive; resets on success.
    Clock::time_point retry_after;  ///< Backoff gate while failing.
  };

  /// A lease's way home: back onto the idle list, or closed.
  void Return(size_t shard, std::unique_ptr<server::Client> client);

  const std::vector<ShardEndpoint> shards_;
  BackendPoolConfig config_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

}  // namespace anker::shard

#endif  // ANKER_SHARD_BACKEND_POOL_H_

#include "shard/backend_pool.h"

#include <algorithm>
#include <string>
#include <utility>

namespace anker::shard {

BackendPool::BackendPool(std::vector<ShardEndpoint> shards,
                         BackendPoolConfig config)
    : shards_(std::move(shards)), config_(std::move(config)) {
  ANKER_CHECK(!shards_.empty());
  backends_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    backends_.push_back(std::make_unique<Backend>());
  }
}

BackendPool::Lease& BackendPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Return();
    pool_ = other.pool_;
    shard_ = other.shard_;
    client_ = std::move(other.client_);
  }
  return *this;
}

void BackendPool::Lease::Return() {
  if (client_ != nullptr) pool_->Return(shard_, std::move(client_));
}

void BackendPool::SetBusyPolicy(int retry_budget, int backoff_initial_millis,
                                int backoff_max_millis) {
  config_.client.busy_retry_budget = retry_budget;
  config_.client.busy_backoff_initial_millis = backoff_initial_millis;
  config_.client.busy_backoff_max_millis = backoff_max_millis;
}

Result<BackendPool::Lease> BackendPool::Acquire(size_t shard) {
  ANKER_CHECK(shard < backends_.size());
  Backend& backend = *backends_[shard];
  {
    std::lock_guard<std::mutex> guard(backend.mutex);
    if (!backend.idle.empty()) {
      Lease lease(this, shard, std::move(backend.idle.back()));
      backend.idle.pop_back();
      return lease;
    }
    if (backend.dial_failures > 0 && Clock::now() < backend.retry_after) {
      return Status::ResourceBusy(
          "shard " + std::to_string(shard) + " (" + shards_[shard].host +
          ":" + std::to_string(shards_[shard].port) +
          ") is down; reconnect backoff in effect");
    }
  }

  // Dial outside the lock: a slow or timing-out connect must not stall
  // other workers' traffic to this shard (they will dial their own).
  auto dialed = server::Client::Connect(shards_[shard].host,
                                        shards_[shard].port, config_.client);
  std::lock_guard<std::mutex> guard(backend.mutex);
  if (dialed.ok()) {
    backend.dial_failures = 0;
    return Lease(this, shard, std::move(dialed.value()));
  }
  ++backend.dial_failures;
  const int shift = std::min(backend.dial_failures - 1, 16);
  const int64_t backoff =
      std::min(static_cast<int64_t>(config_.backoff_initial_millis) << shift,
               static_cast<int64_t>(config_.backoff_max_millis));
  backend.retry_after = Clock::now() + std::chrono::milliseconds(backoff);
  return Status::ResourceBusy("shard " + std::to_string(shard) + " (" +
                              shards_[shard].host + ":" +
                              std::to_string(shards_[shard].port) +
                              ") unreachable: " + dialed.status().message());
}

void BackendPool::Return(size_t shard,
                         std::unique_ptr<server::Client> client) {
  Backend& backend = *backends_[shard];
  if (client->transport_status().ok()) {
    std::lock_guard<std::mutex> guard(backend.mutex);
    if (backend.idle.size() < config_.max_idle_per_shard) {
      backend.idle.push_back(std::move(client));
    }
  }
  // Anything still held here (a failed transport, a surplus idle
  // connection) closes outside the lock.
}

bool BackendPool::ProbeHealthy(size_t shard) {
  auto lease = Acquire(shard);
  return lease.ok() && lease.value()->Ping().ok();
}

size_t BackendPool::CountHealthy() {
  size_t healthy = 0;
  for (size_t shard = 0; shard < backends_.size(); ++shard) {
    if (ProbeHealthy(shard)) ++healthy;
  }
  return healthy;
}

}  // namespace anker::shard

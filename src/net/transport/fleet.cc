#include "net/transport/fleet.h"

#include <utility>

namespace ppgnn {

namespace {

/// Per-(shard, replica) seed perturbation for chaos schedules, so
/// proxied replicas' fault streams stay independent but replayable.
uint64_t PerturbSeed(uint64_t seed, int shard, int replica) {
  return seed + static_cast<uint64_t>(shard) +
         static_cast<uint64_t>(replica) * 1000003ULL;
}

}  // namespace

LoopbackShardFleet::LoopbackShardFleet(std::vector<Poi> pois,
                                       LoopbackFleetConfig config)
    : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.replicas < 1) config_.replicas = 1;
  std::vector<std::vector<Poi>> slices =
      PartitionPoisForShards(std::move(pois), config_.shards);
  const size_t total =
      static_cast<size_t>(config_.shards) * static_cast<size_t>(config_.replicas);
  dbs_.reserve(total);
  services_.reserve(total);
  servers_.reserve(total);
  proxies_.reserve(total);
  for (int s = 0; s < config_.shards; ++s) {
    for (int r = 0; r < config_.replicas; ++r) {
      // Each replica gets its own copy of the slice, like the cluster's
      // in-process layout: identical data is what makes failover answer
      // bits identical.
      dbs_.push_back(std::make_unique<LspDatabase>(slices[static_cast<size_t>(s)]));
      services_.push_back(
          std::make_unique<LspService>(*dbs_.back(), config_.shard_service));
      servers_.push_back(
          std::make_unique<TcpShardServer>(*services_.back(), config_.server));
      proxies_.push_back(nullptr);
    }
  }
}

LoopbackShardFleet::~LoopbackShardFleet() { Shutdown(); }

Status LoopbackShardFleet::Start() {
  if (started_) return Status::FailedPrecondition("fleet already started");
  started_ = true;
  for (int s = 0; s < config_.shards; ++s) {
    for (int r = 0; r < config_.replicas; ++r) {
      const size_t i = Index(s, r);
      Status status = servers_[i]->Start();
      if (!status.ok()) return status;
      if (config_.proxied && config_.proxied(s, r)) {
        ChaosProxy::Config proxy_config;
        proxy_config.upstream_port = servers_[i]->port();
        proxy_config.seed = PerturbSeed(config_.chaos_seed, s, r);
        proxy_config.rules = config_.chaos_rules;
        proxies_[i] = std::make_unique<ChaosProxy>(std::move(proxy_config));
        status = proxies_[i]->Start();
        if (!status.ok()) return status;
      }
    }
  }
  return Status::OK();
}

uint16_t LoopbackShardFleet::dial_port(int shard, int replica) const {
  const size_t i = Index(shard, replica);
  if (proxies_[i]) return proxies_[i]->port();
  return servers_[i]->port();
}

uint16_t LoopbackShardFleet::server_port(int shard, int replica) const {
  return servers_[Index(shard, replica)]->port();
}

std::function<std::unique_ptr<ServiceLink>(int, int)>
LoopbackShardFleet::LinkFactory() const {
  // The factory captures `this`; the fleet must outlive the cluster the
  // caller builds with it (test/bench scope guarantees that).
  return [this](int shard, int replica) -> std::unique_ptr<ServiceLink> {
    TcpLinkConfig link = config_.link;
    link.host = "127.0.0.1";
    link.port = dial_port(shard, replica);
    return std::make_unique<TcpLink>(std::move(link));
  };
}

void LoopbackShardFleet::Shutdown(double drain_deadline_seconds) {
  // Servers drain first (they still answer in-flight frames), then the
  // proxies sever whatever client connections remain.
  for (auto& server : servers_) {
    if (server) server->Shutdown(drain_deadline_seconds);
  }
  for (auto& proxy : proxies_) {
    if (proxy) proxy->Shutdown();
  }
}

}  // namespace ppgnn

// LoopbackShardFleet: the server side of a TCP-mode cluster, in one
// process.
//
// Builds the exact per-(shard, replica) layout a ShardedLspService with
// a TcpLink factory expects to dial: the POI space is partitioned with
// the same PartitionPoisForShards the coordinator uses, and every
// replica of shard j gets its own LspDatabase copy of slice j, its own
// LspService, and its own TcpShardServer on a loopback ephemeral port.
// Optionally, selected replicas are fronted by a seeded ChaosProxy so
// socket-level faults (RST, truncation, black holes, split writes) hit
// exactly the legs a test scripts — the link then dials the proxy, and
// each replica set's client ladder has to absorb whatever the schedule
// injects.
//
// This is the harness for transport_test, the `--transport=tcp` bench
// smoke, and the CLI's TCP cluster mode; production deployments run
// `ppgnn_cli --serve --listen` per replica instead (one process each)
// and point the coordinator at them with --connect-shard.

#ifndef PPGNN_NET_TRANSPORT_FLEET_H_
#define PPGNN_NET_TRANSPORT_FLEET_H_

#include <functional>
#include <memory>
#include <vector>

#include "net/transport/chaos_proxy.h"
#include "net/transport/tcp_link.h"
#include "net/transport/tcp_server.h"
#include "service/shard_coordinator.h"

namespace ppgnn {

struct LoopbackFleetConfig {
  int shards = 1;
  int replicas = 1;
  /// Per-replica shard service config (plaintext shard kGNN).
  ServiceConfig shard_service;
  TcpServerConfig server;
  /// Base link config; host/port are filled per replica by LinkFactory.
  TcpLinkConfig link;
  /// Which replicas sit behind a ChaosProxy; null = none.
  std::function<bool(int shard, int replica)> proxied;
  /// Fault schedule for proxied replicas; the seed is perturbed per
  /// (shard, replica) so schedules stay independent but replayable.
  std::vector<ChaosRule> chaos_rules;
  uint64_t chaos_seed = 0xfa117;
};

class LoopbackShardFleet {
 public:
  explicit LoopbackShardFleet(std::vector<Poi> pois,
                              LoopbackFleetConfig config);
  ~LoopbackShardFleet();

  LoopbackShardFleet(const LoopbackShardFleet&) = delete;
  LoopbackShardFleet& operator=(const LoopbackShardFleet&) = delete;

  /// Binds and starts every server (and proxy). Call once before
  /// building links.
  [[nodiscard]] Status Start();

  /// The port a coordinator link for (shard, replica) should dial — the
  /// proxy's port when the replica is proxied, the server's otherwise.
  uint16_t dial_port(int shard, int replica) const;
  /// The server's real port (behind any proxy).
  uint16_t server_port(int shard, int replica) const;

  /// A ShardClusterConfig::link_factory dialing this fleet.
  std::function<std::unique_ptr<ServiceLink>(int, int)> LinkFactory() const;

  int shards() const { return config_.shards; }
  int replicas() const { return config_.replicas; }
  TcpShardServer& server(int shard, int replica) {
    return *servers_[Index(shard, replica)];
  }
  LspService& service(int shard, int replica) {
    return *services_[Index(shard, replica)];
  }
  /// Null when the replica is not proxied.
  ChaosProxy* proxy(int shard, int replica) {
    return proxies_[Index(shard, replica)].get();
  }

  /// Drains and stops every server, then the proxies. Idempotent.
  void Shutdown(double drain_deadline_seconds = 0.0);

 private:
  size_t Index(int shard, int replica) const {
    return static_cast<size_t>(shard) *
               static_cast<size_t>(config_.replicas) +
           static_cast<size_t>(replica);
  }

  LoopbackFleetConfig config_;
  bool started_ = false;
  std::vector<std::unique_ptr<LspDatabase>> dbs_;
  std::vector<std::unique_ptr<LspService>> services_;
  std::vector<std::unique_ptr<TcpShardServer>> servers_;
  std::vector<std::unique_ptr<ChaosProxy>> proxies_;  ///< null when direct
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_FLEET_H_

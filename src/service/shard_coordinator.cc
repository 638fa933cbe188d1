#include "service/shard_coordinator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "geo/aggregate.h"
#include "net/cost.h"

namespace ppgnn {
namespace {

/// splitmix64 — derives the per-shard idempotency key from the parent
/// request's key so every retry/hedge of the same fan-out leg coalesces
/// at the shard, while different shards (and different parents) never
/// collide in practice.
uint64_t MixKey(uint64_t key, uint64_t shard) {
  uint64_t z = key + 0x9e3779b97f4a7c15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ShardReply {
  bool responded = false;
  /// The set's ladder had to work (a retry, failover or hedge) but the
  /// shard still answered exactly.
  bool recovered = false;
  ShardAnswerMessage answer;
};

}  // namespace

std::vector<std::vector<Poi>> PartitionPoisForShards(std::vector<Poi> pois,
                                                     int shards) {
  const size_t s = static_cast<size_t>(std::max(shards, 1));
  std::sort(pois.begin(), pois.end(), [](const Poi& a, const Poi& b) {
    if (a.location.x != b.location.x) return a.location.x < b.location.x;
    if (a.location.y != b.location.y) return a.location.y < b.location.y;
    return a.id < b.id;
  });
  std::vector<std::vector<Poi>> slices(s);
  const size_t total = pois.size();
  size_t begin = 0;
  for (size_t j = 0; j < s; ++j) {
    // Slice sizes differ by at most one: ceil for the first total % s.
    const size_t end = begin + total / s + (j < total % s ? 1 : 0);
    slices[j].assign(pois.begin() + static_cast<ptrdiff_t>(begin),
                     pois.begin() + static_cast<ptrdiff_t>(end));
    begin = end;
  }
  return slices;
}

ShardedLspService::ShardedLspService(std::vector<Poi> pois,
                                     ShardClusterConfig config)
    : config_(std::move(config)) {
  std::vector<std::vector<Poi>> slices =
      PartitionPoisForShards(std::move(pois), config_.shards);
  ReplicaSetConfig set_config;
  set_config.link_policy = config_.link_policy;
  set_config.link_policy.hedge = config_.hedge;
  set_config.link_policy.hedge_delay_seconds = config_.hedge_delay_seconds;
  set_config.health = config_.health;
  set_config.probe_timeout_seconds = config_.probe_timeout_seconds;
  sets_.reserve(slices.size());
  shard_mbrs_.reserve(slices.size());
  shard_sizes_.reserve(slices.size());
  for (size_t j = 0; j < slices.size(); ++j) {
    Rect mbr = Rect::Empty();
    for (const Poi& poi : slices[j]) mbr.ExpandToInclude(poi.location);
    shard_mbrs_.push_back(mbr);
    shard_sizes_.push_back(slices[j].size());
    const int shard = static_cast<int>(j);
    std::vector<std::unique_ptr<ServiceLink>> links;
    for (int r = 0; r < std::max(config_.replicas, 1); ++r) {
      if (config_.link_factory) {
        links.push_back(config_.link_factory(shard, r));
        continue;
      }
      // Each replica owns a full copy of the slice: replicas share no
      // state, so one replica's failure mode cannot leak into another.
      dbs_.push_back(std::make_unique<LspDatabase>(slices[j]));
      links.push_back(
          std::make_unique<LspService>(*dbs_.back(), config_.shard));
    }
    sets_.push_back(
        std::make_unique<ReplicaSet>(shard, std::move(links), set_config));
  }
  if (config_.background_prober &&
      config_.health.probe_interval_seconds > 0.0) {
    prober_ = std::thread([this] { ProberLoop(); });
  }
  front_ = std::make_unique<LspService>(
      LspService::Handler([this](const ServiceRequest& request,
                                 const LspService::HandlerContext& ctx) {
        return HandleQuery(request, ctx);
      }),
      config_.front);
}

ShardedLspService::~ShardedLspService() { Shutdown(); }

void ShardedLspService::ProberLoop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      config_.health.probe_interval_seconds));
  std::unique_lock<std::mutex> lock(prober_mu_);
  for (;;) {
    if (prober_cv_.wait_for(lock, interval, [this] { return prober_stop_; }))
      return;
    lock.unlock();
    for (auto& set : sets_) set->ProbeOnce();
    lock.lock();
  }
}

bool ShardedLspService::Submit(ServiceRequest request,
                               LspService::Callback done) {
  return front_->Submit(std::move(request), std::move(done));
}

std::vector<uint8_t> ShardedLspService::Call(ServiceRequest request) {
  return front_->Call(std::move(request));
}

ServiceStats ShardedLspService::Stats() const {
  ServiceStats stats = front_->Stats();
  stats.degraded_shards = degraded_shards_.load(std::memory_order_relaxed);
  stats.exact_despite_failures =
      exact_despite_failures_.load(std::memory_order_relaxed);
  for (const auto& set : sets_) {
    for (const ReplicaSetStats::Replica& replica : set->Stats().replicas) {
      stats.replica_failovers += replica.failed_over;
      stats.replica_hedge_wins += replica.hedge_won;
      stats.health_transitions += replica.transitions;
    }
  }
  return stats;
}

void ShardedLspService::Shutdown() {
  if (prober_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(prober_mu_);
      prober_stop_ = true;
    }
    prober_cv_.notify_all();
    prober_.join();
  }
  if (front_ != nullptr) front_->Shutdown();
  for (auto& set : sets_) set->Shutdown();
}

Result<std::vector<uint8_t>> ShardedLspService::HandleQuery(
    const ServiceRequest& request, const LspService::HandlerContext& ctx) {
  // Decoding sizes the sanitizer too, so a theta0 the front cannot
  // sanitize fails here, before any shard leg.
  PPGNN_ASSIGN_OR_RETURN(
      LspCandidates decoded,
      LspDecodeCandidates(request.query, request.uploads,
                          config_.front.test_config, config_.front.sanitize,
                          *ctx.info, ctx.deadline));
  const QueryMessage& query = decoded.query;
  const std::vector<std::vector<Point>>& candidates = decoded.candidates;

  const size_t shard_count = sets_.size();
  // Route: a shard holding >= k POIs bounds the global k-th cost by its
  // aggregate max-distance; a shard whose aggregate min-distance exceeds
  // the tightest such bound holds only strictly-worse POIs and is pruned
  // without affecting the merged answer (even under cost ties).
  std::vector<ShardQueryMessage> shard_queries(shard_count);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::vector<Point>& candidate = candidates[i];
    double bound = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < shard_count; ++j) {
      if (shard_sizes_[j] < static_cast<size_t>(query.k)) continue;
      bound = std::min(bound, AggregateMaxDistance(query.aggregate,
                                                   shard_mbrs_[j], candidate));
    }
    for (size_t j = 0; j < shard_count; ++j) {
      if (shard_sizes_[j] == 0) continue;
      if (AggregateMinDistance(query.aggregate, shard_mbrs_[j], candidate) >
          bound) {
        continue;
      }
      ShardQueryMessage::Candidate routed;
      routed.index = i;
      routed.locations = candidate;
      shard_queries[j].candidates.push_back(std::move(routed));
    }
  }

  // Remaining budget for the fan-out: it bounds each replica set's whole
  // call, and every shard leg carries it in the wire-v2 trailer.
  double remaining_seconds = 0.0;
  uint64_t remaining_ms = 0;
  if (ctx.deadline != kNoDeadline) {
    remaining_seconds = std::chrono::duration<double>(
                            ctx.deadline - LspService::Clock::now())
                            .count();
    if (remaining_seconds <= 0.0) {
      return Status::DeadlineExceeded("shard cluster: budget exhausted");
    }
    remaining_ms = std::max<uint64_t>(
        1, static_cast<uint64_t>(remaining_seconds * 1000.0));
  }
  const uint64_t parent_key = request.idempotency_key != 0
                                  ? request.idempotency_key
                                  : query.idempotency_key;

  std::vector<size_t> routed;
  for (size_t j = 0; j < shard_count; ++j) {
    if (shard_queries[j].candidates.empty()) continue;
    routed.push_back(j);
    ShardQueryMessage& sq = shard_queries[j];
    sq.k = query.k;
    sq.aggregate = query.aggregate;
    sq.deadline_ms = remaining_ms;
    sq.idempotency_key = parent_key != 0 ? MixKey(parent_key, j) : 0;
  }
  const size_t routed_shards = routed.size();

  // One leg per routed shard; the calling worker runs the first itself.
  std::vector<ShardReply> replies(shard_count);
  auto leg = [&](int w) {
    const size_t j = routed[static_cast<size_t>(w)];
    // The set-wide failpoint models losing the whole slice (every
    // replica at once) — a dead shard link, and the only way to reach
    // the degraded-merge tier when R > 1.
    const std::string point = "shard.link." + std::to_string(j);
    if (!FailpointCheck(point.c_str()).ok()) return;
    Result<std::vector<uint8_t>> encoded = shard_queries[j].Encode();
    if (!encoded.ok()) return;
    ServiceRequest sr;
    sr.query = std::move(encoded).value();
    sr.deadline_seconds = remaining_seconds;
    sr.idempotency_key = shard_queries[j].idempotency_key;
    const ClientCallOutcome outcome = sets_[j]->Call(std::move(sr));
    if (!outcome.answered) return;
    Result<ResponseFrame> frame = ResponseFrame::Decode(outcome.frame);
    if (!frame.ok() || frame.value().is_error) return;
    Result<ShardAnswerMessage> answer =
        ShardAnswerMessage::Decode(frame.value().answer);
    if (!answer.ok()) return;
    replies[j].answer = std::move(answer).value();
    replies[j].responded = true;
    replies[j].recovered = outcome.attempts + outcome.hedges > 1;
  };
  // FanOut runs task(0) even for zero workers, so skip it when nothing
  // is routed.
  if (routed_shards > 0) {
    FanOut(static_cast<int>(routed_shards), nullptr, leg);
  }

  size_t responded = 0;
  bool recovered = false;
  for (const ShardReply& reply : replies) {
    responded += reply.responded ? 1 : 0;
    recovered = recovered || reply.recovered;
  }
  if (routed_shards > 0 && responded == 0) {
    return Status::Internal("shard cluster: all routed shards unavailable");
  }
  if (responded < routed_shards) {
    // Last ladder tier: an entire replica set was unreachable, so this
    // merge is missing its slice.
    degraded_shards_.fetch_add(1, std::memory_order_relaxed);
  } else if (recovered) {
    // The ladder worked somewhere (failover, hedge, or extra legs) and
    // the merge still covers every routed shard: exact, despite failures.
    exact_despite_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  // Merge: concatenate per-candidate shard lists, order by (cost, poi id)
  // — the exact total order the single-node MBM emits — and truncate to k.
  std::vector<std::vector<RankedPoi>> merged(candidates.size());
  for (const ShardReply& reply : replies) {
    if (!reply.responded) continue;
    for (const ShardAnswerMessage::CandidateResult& result :
         reply.answer.candidates) {
      if (result.index >= merged.size())
        return Status::ProtocolError("shard answer for unknown candidate");
      for (const ShardAnswerMessage::Ranked& ranked : result.results) {
        merged[result.index].push_back(
            RankedPoi{Poi{ranked.poi_id, ranked.location}, ranked.cost});
      }
    }
  }
  for (std::vector<RankedPoi>& list : merged) {
    std::sort(list.begin(), list.end(),
              [](const RankedPoi& a, const RankedPoi& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.poi.id < b.poi.id;
              });
    if (list.size() > static_cast<size_t>(query.k)) {
      list.resize(static_cast<size_t>(query.k));
    }
  }

  // The rest is the single-node answer step, with the merged lists as its
  // kGNN source. The shards' MBM solver ranks under the Euclidean metric,
  // so sanitation attacks under it too (null oracle).
  return LspAnswerCandidates(
      decoded,
      [&merged](size_t index, const std::vector<Point>&) {
        return std::move(merged[index]);
      },
      /*oracle=*/nullptr, config_.front.lsp_threads, *ctx.info,
      ctx.deadline);
}

}  // namespace ppgnn

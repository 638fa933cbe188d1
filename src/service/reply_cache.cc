#include "service/reply_cache.h"

#include <algorithm>
#include <utility>

namespace ppgnn {

ReplyCache::ReplyCache(const Options& options)
    : grace_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::max(options.grace_seconds, 0.0)))),
      max_bytes_(options.max_bytes) {}

ReplyCache::Clock::time_point ReplyCache::GraceAfter(
    Clock::time_point t) const {
  if (t >= Clock::time_point::max() - grace_) return Clock::time_point::max();
  return t + grace_;
}

void ReplyCache::EraseLocked(Entries::iterator it) {
  if (it->second.completed) completed_bytes_ -= it->second.frame.size();
  by_expiry_.erase(it->second.expiry);
  entries_.erase(it);
}

ReplyCache::AdmitResult ReplyCache::AdmitOrAttach(uint64_t key, Waiter waiter,
                                                  Clock::time_point deadline) {
  AdmitResult result;
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  // The sweep: everything whose lifetime has run out goes, in expiry
  // order, whatever was admitted before it. An expired in-flight entry's
  // primary is presumed dead; its joiners are errored out by the caller,
  // and a retry of its key takes over below as a fresh primary.
  while (!by_expiry_.empty() && by_expiry_.begin()->first <= now) {
    auto it = entries_.find(by_expiry_.begin()->second);
    for (Waiter& w : it->second.waiters) {
      if (w) result.expired_waiters.push_back(std::move(w));
    }
    EraseLocked(it);
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.generation = next_generation_++;
    entry.expiry = by_expiry_.emplace(GraceAfter(deadline), key);
    result.generation = entry.generation;
    entries_.emplace(key, std::move(entry));
    result.admission = Admission::kPrimary;
    return result;
  }
  if (it->second.completed) {
    result.admission = Admission::kReplayed;
    result.frame = it->second.frame;
    return result;
  }
  it->second.waiters.push_back(std::move(waiter));
  result.admission = Admission::kJoined;
  return result;
}

std::vector<ReplyCache::Waiter> ReplyCache::Complete(
    uint64_t key, uint64_t generation, const std::vector<uint8_t>& frame,
    bool cache_for_replay) {
  std::vector<Waiter> waiters;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.completed ||
      it->second.generation != generation) {
    return waiters;
  }
  waiters = std::move(it->second.waiters);
  if (!cache_for_replay) {
    EraseLocked(it);
    return waiters;
  }
  Entry& entry = it->second;
  entry.completed = true;
  entry.frame = frame;
  entry.waiters.clear();
  completed_bytes_ += frame.size();
  if (entry.expiry->first == Clock::time_point::max()) {
    // No deadline: the reply is kept for the grace after completion.
    by_expiry_.erase(entry.expiry);
    entry.expiry = by_expiry_.emplace(GraceAfter(Clock::now()), key);
  }
  // Over the byte budget, the completed replies that expire soonest go.
  for (auto slot = by_expiry_.begin();
       completed_bytes_ > max_bytes_ && slot != by_expiry_.end();) {
    auto victim = entries_.find((slot++)->second);
    if (victim->second.completed) EraseLocked(victim);
  }
  return waiters;
}

std::vector<ReplyCache::Waiter> ReplyCache::Abort(uint64_t key,
                                                  uint64_t generation) {
  std::vector<Waiter> waiters;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.completed ||
      it->second.generation != generation) {
    return waiters;
  }
  waiters = std::move(it->second.waiters);
  EraseLocked(it);
  return waiters;
}

size_t ReplyCache::CompletedEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& kv : entries_) n += kv.second.completed ? 1 : 0;
  return n;
}

size_t ReplyCache::InFlightEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& kv : entries_) n += kv.second.completed ? 0 : 1;
  return n;
}

}  // namespace ppgnn

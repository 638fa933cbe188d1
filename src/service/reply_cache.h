// Idempotent reply coalescing for the LSP service.
//
// A hedged or retried duplicate carries the same client-chosen
// idempotency key as its original. Instead of re-running the crypto
// pipeline — doubling server load exactly when the server is slow —
// the duplicate either *joins* the in-flight original (its callback is
// fired with a copy of the original's frame when it completes) or
// *replays* the cached frame of an already-completed request.
//
// Every query is encrypted under a key pair its users just generated, so
// a reply can only ever serve a duplicate of the same request, and the
// client's whole call ends at that request's deadline. The request alone
// therefore decides how long its entry lives:
//   * An in-flight entry lives until its deadline plus the grace, then
//     counts as abandoned (worker gave up at the deadline, shard link
//     died mid-fan-out): it is purged and its joined waiters are handed
//     back, so the key does not replay as an "in-flight join" to every
//     future retry forever. Without a deadline it lives until its
//     primary Completes or Aborts it.
//   * A completed reply lives until its request's deadline plus the
//     grace; without a deadline, for the grace after completion.
// One expiry-ordered index holds every entry, and one sweep at each
// admission drops whatever has expired. Completed frames are also bounded
// by a byte budget: past it, the completed replies that expire soonest go
// first. In-flight entries are never evicted.
//
// Semantics, chosen so client-visible retry behavior stays honest:
//   * Only answers are cached for replay. An error completion is
//     delivered to any joiners (they were racing the same doomed
//     execution) and the entry is dropped, so a later retry with the
//     same key runs fresh rather than replaying a stale failure.
//   * The cached frame is the pre-transport one: corruption injected on
//     one delivery leg must not poison the cache.
//   * Each in-flight incarnation carries a generation token; a stale
//     primary that resurfaces after its entry was purged and re-admitted
//     cannot complete (or abort) the successor's entry.
//
// Thread-safe. Callbacks are never invoked under the internal lock —
// mutating calls return the waiters due and the caller delivers them.

#ifndef PPGNN_SERVICE_REPLY_CACHE_H_
#define PPGNN_SERVICE_REPLY_CACHE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ppgnn {

class ReplyCache {
 public:
  using Waiter = std::function<void(std::vector<uint8_t>)>;
  using Clock = std::chrono::steady_clock;

  enum class Admission {
    kPrimary,   ///< first sighting: caller must execute and later Complete
    kJoined,    ///< duplicate of an in-flight key: waiter was enqueued
    kReplayed,  ///< duplicate of a completed key: frame returned now
  };

  struct Options {
    /// How long an entry outlives its request's deadline (covers a worker
    /// that is still reaching its next deadline checkpoint, and a
    /// duplicate still in transit); for a deadline-less request, how
    /// long its completed reply is kept.
    double grace_seconds = 1.0;
    /// Budget for the bytes of completed frames. LspService keeps this
    /// default: far above what deadline-bounded lifetimes leave cached,
    /// it is a guard against a burst, not a tuning knob.
    size_t max_bytes = size_t{64} << 20;
  };

  struct AdmitResult {
    Admission admission = Admission::kPrimary;
    std::vector<uint8_t> frame;  ///< set iff kReplayed
    /// In-flight incarnation token, set iff kPrimary. The primary must
    /// pass it back to Complete/Abort; after a purge-and-readmit the key
    /// maps to a newer generation and the stale primary's calls no-op.
    uint64_t generation = 0;
    /// Waiters of *dead* in-flight entries purged during this admission
    /// (the successor's own key, or expired strangers swept in passing).
    /// The caller owes each a deadline-exceeded reply.
    std::vector<Waiter> expired_waiters;
  };

  explicit ReplyCache(const Options& options);

  /// Routes one request. kPrimary leaves `waiter` with the caller (the
  /// primary replies through its normal path); kJoined keeps it until the
  /// primary's Complete/Abort. `deadline` (time_point::max() = none) sets
  /// the entry's lifetime, as the header comment describes.
  AdmitResult AdmitOrAttach(
      uint64_t key, Waiter waiter,
      Clock::time_point deadline = Clock::time_point::max());

  /// Finishes the in-flight entry for `key`, provided `generation` still
  /// matches (a mismatch means the entry was purged as abandoned and the
  /// key re-admitted — the dead execution's frame must not reach the
  /// successor's waiters). Returns the joined waiters; the caller invokes
  /// each with its own copy of `frame`. When `cache_for_replay` is true
  /// (answers) the frame is kept for later kReplayed hits; otherwise
  /// (errors) the entry is dropped entirely.
  [[nodiscard]] std::vector<Waiter> Complete(uint64_t key, uint64_t generation,
                                             const std::vector<uint8_t>& frame,
                                             bool cache_for_replay);

  /// Drops an in-flight entry whose primary never executed (e.g. it lost
  /// the queue-capacity race after registration). Generation-checked like
  /// Complete. Returns any waiters that joined in the meantime so the
  /// caller can error them out.
  [[nodiscard]] std::vector<Waiter> Abort(uint64_t key, uint64_t generation);

  size_t CompletedEntries() const;
  size_t InFlightEntries() const;

 private:
  /// Expiry time -> key, soonest first; time_point::max() = never.
  using ExpiryIndex = std::multimap<Clock::time_point, uint64_t>;

  struct Entry {
    bool completed = false;
    std::vector<uint8_t> frame;   // valid when completed
    std::vector<Waiter> waiters;  // valid while in flight
    uint64_t generation = 0;
    ExpiryIndex::iterator expiry;  // this entry's slot in by_expiry_
  };
  using Entries = std::unordered_map<uint64_t, Entry>;

  /// `t` plus the grace, saturating at time_point::max().
  Clock::time_point GraceAfter(Clock::time_point t) const;

  /// Removes the entry from both containers. Requires mu_ held.
  // ppgnn: requires(mu_)
  void EraseLocked(Entries::iterator it);

  const Clock::duration grace_;
  const size_t max_bytes_;
  mutable std::mutex mu_;
  // ppgnn: guarded_by(entries_, mu_)
  Entries entries_;
  // ppgnn: guarded_by(by_expiry_, mu_)
  ExpiryIndex by_expiry_;
  // ppgnn: guarded_by(completed_bytes_, mu_)
  size_t completed_bytes_ = 0;
  // ppgnn: guarded_by(next_generation_, mu_)
  uint64_t next_generation_ = 1;
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_REPLY_CACHE_H_

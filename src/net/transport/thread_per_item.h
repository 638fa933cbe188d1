// ThreadPerItem: one thread per item — a TcpLink exchange, a
// TcpShardServer connection, a ChaosProxy session — joined once done.
//
// A finished thread keeps its stack, and through its item the item's
// sockets, until it is joined. Left to Shutdown, a long-lived server
// would run out of descriptors as its peers reconnect, so owners call
// Reap() from the loop that spawns: it moves the finished threads out
// under the lock and joins them outside it, destroying their items.

#ifndef PPGNN_NET_TRANSPORT_THREAD_PER_ITEM_H_
#define PPGNN_NET_TRANSPORT_THREAD_PER_ITEM_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace ppgnn {

template <typename Item>
class ThreadPerItem {
 public:
  ThreadPerItem() = default;
  ~ThreadPerItem() { JoinAll(); }

  ThreadPerItem(const ThreadPerItem&) = delete;
  ThreadPerItem& operator=(const ThreadPerItem&) = delete;

  /// Runs `body(*item)` on a new thread that owns `item` until reaped.
  void Spawn(std::unique_ptr<Item> item, std::function<void(Item&)> body) {
    std::list<Slot> fresh(1);  // spliced below; list nodes never move
    Slot& slot = fresh.front();
    slot.item = std::move(item);
    slot.thread = std::thread([&slot, body = std::move(body)] {
      body(*slot.item);
      slot.finished.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(slots_mu_);
    slots_.splice(slots_.end(), fresh);
  }

  /// Joins every thread that has finished and destroys its item.
  void Reap() {
    std::list<Slot> finished;
    {
      std::lock_guard<std::mutex> lock(slots_mu_);
      for (auto it = slots_.begin(); it != slots_.end();) {
        auto slot = it++;
        if (slot->finished.load(std::memory_order_acquire)) {
          finished.splice(finished.end(), slots_, slot);
        }
      }
    }
    for (Slot& slot : finished) slot.thread.join();
  }

  /// Calls `wake` on the item of every thread not yet reaped (to cut a
  /// blocking read short), then joins them all.
  void JoinAll(const std::function<void(Item&)>& wake = nullptr) {
    std::list<Slot> all;
    {
      std::lock_guard<std::mutex> lock(slots_mu_);
      all.swap(slots_);
    }
    if (wake) {
      for (Slot& slot : all) wake(*slot.item);
    }
    for (Slot& slot : all) slot.thread.join();
  }

 private:
  struct Slot {
    std::unique_ptr<Item> item;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  std::mutex slots_mu_;
  // ppgnn: guarded_by(slots_, slots_mu_)
  std::list<Slot> slots_;
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_THREAD_PER_ITEM_H_

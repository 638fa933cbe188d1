// Deadline: the instant a request's budget runs out.
//
// A blocked or long-running step checks its own deadline where it already
// pauses (between candidates, between selection rows, in a socket poll);
// no other thread watches the clock for it.

#ifndef PPGNN_COMMON_DEADLINE_H_
#define PPGNN_COMMON_DEADLINE_H_

#include <chrono>

namespace ppgnn {

/// An absolute steady_clock time point; kNoDeadline means none.
using Deadline = std::chrono::steady_clock::time_point;

inline constexpr Deadline kNoDeadline = Deadline::max();

/// True once `deadline` has passed. Reads no clock when there is none.
inline bool Expired(Deadline deadline) {
  return deadline != kNoDeadline &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace ppgnn

#endif  // PPGNN_COMMON_DEADLINE_H_

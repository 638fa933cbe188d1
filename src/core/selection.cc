#include "core/selection.h"

#include <algorithm>

#include "net/cost.h"

namespace ppgnn {
namespace {

bool Cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_acquire);
}

Status CancelledStatus() {
  return Status::DeadlineExceeded("selection abandoned past deadline");
}

}  // namespace

Status AnswerMatrix::Validate() const {
  if (columns.empty())
    return Status::InvalidArgument("answer matrix has no columns");
  const size_t rows = columns[0].size();
  if (rows == 0) return Status::InvalidArgument("answer matrix has no rows");
  for (const auto& col : columns) {
    if (col.size() != rows)
      return Status::InvalidArgument("ragged answer matrix");
  }
  return Status::OK();
}

Result<std::vector<Ciphertext>> PrivateSelect(
    const Encryptor& enc, const AnswerMatrix& matrix,
    const std::vector<Ciphertext>& indicator, int threads,
    double* worker_seconds, const std::atomic<bool>* cancel) {
  PPGNN_RETURN_IF_ERROR(matrix.Validate());
  if (indicator.size() != matrix.Cols())
    return Status::InvalidArgument(
        "indicator length != number of candidate answers");
  const size_t rows = matrix.Rows();
  const size_t cols = matrix.Cols();
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(threads, 1)), cols));

  // partial[w][r]: dot product of worker w's column chunk for row r.
  std::vector<std::vector<Result<Ciphertext>>> partial(
      workers,
      std::vector<Result<Ciphertext>>(rows, Status::Internal("unset")));
  const size_t chunk = (cols + workers - 1) / static_cast<size_t>(workers);

  FanOut(workers, worker_seconds, [&](int w) {
    const size_t begin = std::min(static_cast<size_t>(w) * chunk, cols);
    const size_t end = std::min(begin + chunk, cols);
    if (begin == end) {
      // Uneven split can leave trailing workers without columns; they
      // contribute the additive identity.
      for (size_t r = 0; r < rows; ++r) {
        partial[w][r] = enc.Zero(indicator[0].level);
      }
      return;
    }
    // One multi-exp engine per column chunk: the window tables over
    // [v_begin..v_end) are built once and reused by all m rows.
    std::vector<Ciphertext> ind_chunk(indicator.begin() + begin,
                                      indicator.begin() + end);
    Result<Encryptor::DotEngine> engine_or = enc.MakeDotEngine(ind_chunk);
    if (!engine_or.ok()) {
      for (size_t r = 0; r < rows; ++r) partial[w][r] = engine_or.status();
      return;
    }
    const Encryptor::DotEngine engine = std::move(engine_or).value();
    std::vector<BigInt> row_chunk(end - begin);
    for (size_t r = 0; r < rows; ++r) {
      if (Cancelled(cancel)) {
        partial[w][r] = CancelledStatus();
        break;
      }
      for (size_t c = begin; c < end; ++c) {
        row_chunk[c - begin] = matrix.columns[c][r];
      }
      partial[w][r] = engine.Dot(row_chunk);
    }
  });

  std::vector<Ciphertext> out;
  out.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    PPGNN_ASSIGN_OR_RETURN(Ciphertext acc, std::move(partial[0][r]));
    for (int w = 1; w < workers; ++w) {
      PPGNN_ASSIGN_OR_RETURN(Ciphertext part, std::move(partial[w][r]));
      PPGNN_ASSIGN_OR_RETURN(acc, enc.Add(acc, part));
    }
    out.push_back(std::move(acc));
  }
  return out;
}

Result<std::vector<Ciphertext>> PrivateSelectTwoPhase(
    const Encryptor& enc, const AnswerMatrix& matrix,
    const OptIndicator& indicator, int threads, double* worker_seconds,
    const std::atomic<bool>* cancel) {
  PPGNN_RETURN_IF_ERROR(matrix.Validate());
  const uint64_t omega = indicator.omega;
  const uint64_t block_size = indicator.block_size;
  if (indicator.v1.size() != block_size || indicator.v2.size() != omega)
    return Status::InvalidArgument("inconsistent OptIndicator shape");
  if (omega * block_size < matrix.Cols())
    return Status::InvalidArgument(
        "OptIndicator covers fewer columns than the answer matrix");
  const size_t rows = matrix.Rows();

  // Phase 1: per block b, select within the block using [v1]. Blocks that
  // run past delta' are implicitly zero-padded: missing columns simply
  // contribute nothing to the dot product. Blocks are independent, so
  // they fan out across workers.
  std::vector<std::vector<Result<Ciphertext>>> phase1(
      omega, std::vector<Result<Ciphertext>>(rows, Status::Internal("unset")));
  const int workers = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(std::max(threads, 1)), omega));

  // Every block dots against the same [v1], so one engine (window tables
  // in the Montgomery domain) is built up front and shared read-only by
  // all workers: Dot() is const and thread-safe.
  PPGNN_ASSIGN_OR_RETURN(Encryptor::DotEngine v1_engine,
                         enc.MakeDotEngine(indicator.v1));

  FanOut(workers, worker_seconds, [&](int w) {
    std::vector<BigInt> row(block_size);
    for (uint64_t b = static_cast<uint64_t>(w); b < omega;
         b += static_cast<uint64_t>(workers)) {
      const size_t col_begin = static_cast<size_t>(b * block_size);
      for (size_t r = 0; r < rows; ++r) {
        if (Cancelled(cancel)) {
          phase1[b][r] = CancelledStatus();
          break;
        }
        for (uint64_t i = 0; i < block_size; ++i) {
          size_t c = col_begin + static_cast<size_t>(i);
          row[i] = c < matrix.Cols() ? matrix.columns[c][r] : BigInt(0);
        }
        phase1[b][r] = v1_engine.Dot(row);
      }
    }
  });

  // Phase 2: select the block with [[v2]], treating the eps_1 ciphertext
  // values as eps_2 plaintexts. One engine over [[v2]] serves all m rows;
  // the scalars here are full 2*keysize-bit values, which is where the
  // shared square chain of the multi-exponentiation pays off most.
  PPGNN_ASSIGN_OR_RETURN(Encryptor::DotEngine v2_engine,
                         enc.MakeDotEngine(indicator.v2));
  std::vector<Ciphertext> out;
  out.reserve(rows);
  std::vector<BigInt> scalars(omega);
  for (size_t r = 0; r < rows; ++r) {
    if (Cancelled(cancel)) return CancelledStatus();
    for (uint64_t b = 0; b < omega; ++b) {
      PPGNN_RETURN_IF_ERROR(phase1[b][r].status());
      scalars[b] = phase1[b][r].value().value;
    }
    PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, v2_engine.Dot(scalars));
    out.push_back(std::move(ct));
  }
  return out;
}

}  // namespace ppgnn

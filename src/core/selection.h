// Private selection of the real query's answer from the answer matrix
// (Theorem 3.1) and the two-phase PPGNN-OPT variant (Section 6).
//
// The answer matrix A^{m x delta'} holds one packed-integer column per
// candidate query. Single-phase selection computes, for every row r,
//
//   [a_{*,r}] = (x_r,1 (x) [v_1]) (+) ... (+) (x_r,delta' (x) [v_delta'])
//
// yielding m eps_1 ciphertexts of the real answer. The two-phase variant
// first selects within each of the omega column blocks using [v1] (eps_1),
// then selects the right block by treating those eps_1 ciphertexts as
// eps_2 plaintexts and dotting with [[v2]], yielding m layered eps_2
// ciphertexts.

#ifndef PPGNN_CORE_SELECTION_H_
#define PPGNN_CORE_SELECTION_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/indicator.h"
#include "crypto/paillier.h"

namespace ppgnn {

/// Column-major answer matrix: columns[c] is candidate c's packed answer,
/// all columns the same height m.
struct AnswerMatrix {
  std::vector<std::vector<BigInt>> columns;

  size_t Cols() const { return columns.size(); }
  size_t Rows() const { return columns.empty() ? 0 : columns[0].size(); }
  Status Validate() const;
};

/// Theorem 3.1: A (x) [v]. Returns m eps_1 ciphertexts.
///
/// With threads > 1, the per-row dot product is computed as partial
/// products over column chunks in parallel and combined with homomorphic
/// Add — bit-identical to the serial result (ciphertext multiplication is
/// commutative and the math is exact). `worker_seconds`, when non-null,
/// receives the CPU time burnt by spawned workers (for cost accounting).
/// `deadline` is checked between per-row dot products; once it has passed
/// the call returns DeadlineExceeded instead of finishing the remaining
/// multi-exponentiations.
Result<std::vector<Ciphertext>> PrivateSelect(
    const Encryptor& enc, const AnswerMatrix& matrix,
    const std::vector<Ciphertext>& indicator, int threads = 1,
    double* worker_seconds = nullptr, Deadline deadline = kNoDeadline);

/// Two-phase selection (Fig 4b). Returns m eps_2 ciphertexts whose
/// plaintexts are eps_1 ciphertexts of the real answer. With threads > 1
/// the omega phase-1 blocks are processed in parallel. `deadline` is
/// checked between phase-1 block rows and phase-2 rows, as in
/// PrivateSelect.
Result<std::vector<Ciphertext>> PrivateSelectTwoPhase(
    const Encryptor& enc, const AnswerMatrix& matrix,
    const OptIndicator& indicator, int threads = 1,
    double* worker_seconds = nullptr, Deadline deadline = kNoDeadline);

}  // namespace ppgnn

#endif  // PPGNN_CORE_SELECTION_H_

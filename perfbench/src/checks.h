// Output checks of the benchmark. Each returns "" when the output is
// right and a one-line description of the first fault otherwise, so the
// workloads can collect every failure and tests/checks_test.cc can feed
// each one a deliberately wrong result. None compares against a stored
// copy of earlier output: every expected value is recomputed here from
// the generator's truth or from the program's own inputs.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <functional>
#include <string>
#include <vector>

#include "index/vector_index.h"

namespace perfbench::checks {

using sudowoodo::index::Neighbor;

/// F1 of the positive class recounted from 0/1 predictions and labels.
double RecountF1(const std::vector<int>& preds, const std::vector<int>& labels);

/// `reported_f1` must equal the F1 recounted from `preds` vs `labels`,
/// `preds` must be the 0.5-threshold of `probs`, and the F1 must beat the
/// all-positive predictor on the same labels.
std::string EmTestResult(const std::vector<float>& probs,
                         const std::vector<int>& preds,
                         const std::vector<int>& labels, double reported_f1,
                         const std::string& what);

/// Cleaning: right <= made, and P = right/made, R = right/true_errors and
/// their F1 match the reported values.
std::string CleaningCounts(int made, int right, int true_errors,
                           double precision, double recall, double f1,
                           const std::string& what);

/// Every id in [0, n) appears in exactly one cluster.
std::string Partition(const std::vector<std::vector<int>>& clusters, int n,
                      const std::string& what);

/// F1 must beat the all-positive predictor at positive ratio `pos_ratio`,
/// whose F1 is 2p / (1 + p).
std::string BeatsAllPositive(double f1, double pos_ratio,
                             const std::string& what);

/// Resolves an id returned by an index to its current stored row, or
/// nullptr when no item with that id may be returned (out of range, or
/// deleted at that point of the request stream).
using RowLookup = std::function<const float*(int id)>;

/// One top-k answer: `expected_size` entries, distinct ids that all
/// resolve, non-increasing sims, and each sim equal (within `tol`) to the
/// dot product of `query` with the id's current row. A row that is stale
/// after a replacement fails the last test.
std::string NeighborList(const std::vector<Neighbor>& got, int expected_size,
                         const float* query, int dim, const RowLookup& row,
                         double tol, const std::string& what);

/// Exact top-k ids by a double-precision scan over `n` rows (row i has id
/// ids[i]); ties break to the lower id.
std::vector<int> BruteForceTopK(const float* query, const float* rows,
                                const int* ids, int n, int dim, int k);

/// Shared ids between an answer and the brute-force truth, over |truth|.
double RecallAgainst(const std::vector<Neighbor>& got,
                     const std::vector<int>& truth);

/// Mean recall@k of `answers[q]` for each q in `which`, each against a
/// double-precision scan of `rows` (row i has id i) for `queries[q]`.
double BruteForceRecall(const std::vector<std::vector<float>>& queries,
                        const std::vector<std::vector<float>>& rows,
                        const std::vector<std::vector<Neighbor>>& answers,
                        const std::vector<size_t>& which, int k);

/// Bitwise equality of two probability vectors.
std::string SameProbs(const std::vector<float>& a, const std::vector<float>& b,
                      const std::string& what);

/// Bitwise equality of two sets of top-k lists (ids and sims).
std::string SameNeighbors(const std::vector<std::vector<Neighbor>>& a,
                          const std::vector<std::vector<Neighbor>>& b,
                          const std::string& what);

/// `got` must equal `want` exactly (a count the program reports against
/// the benchmark's own count of the same thing).
std::string SameCount(long long got, long long want, const std::string& what);

}  // namespace perfbench::checks

#endif  // PERFBENCH_CHECKS_H_

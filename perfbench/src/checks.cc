#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace perfbench::checks {

namespace {

std::string Fmt(const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

double RecountF1(const std::vector<int>& preds,
                 const std::vector<int>& labels) {
  long long tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < preds.size() && i < labels.size(); ++i) {
    if (preds[i] == 1 && labels[i] == 1) ++tp;
    if (preds[i] == 1 && labels[i] != 1) ++fp;
    if (preds[i] != 1 && labels[i] == 1) ++fn;
  }
  const double p = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  const double r = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

std::string EmTestResult(const std::vector<float>& probs,
                         const std::vector<int>& preds,
                         const std::vector<int>& labels, double reported_f1,
                         const std::string& what) {
  if (preds.size() != labels.size() || probs.size() != labels.size()) {
    return what + ": prediction count differs from the test set size";
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] != (probs[i] >= 0.5f ? 1 : 0)) {
      return what + ": test_preds is not the 0.5 threshold of test_probs";
    }
  }
  const double f1 = RecountF1(preds, labels);
  if (std::fabs(f1 - reported_f1) > 1e-12) {
    return what + Fmt(": reported F1 %.6f, recounted %.6f", reported_f1, f1);
  }
  long long pos = 0;
  for (int l : labels) pos += l == 1;
  return BeatsAllPositive(
      f1, labels.empty() ? 0.0 : static_cast<double>(pos) / labels.size(),
      what);
}

std::string CleaningCounts(int made, int right, int true_errors,
                           double precision, double recall, double f1,
                           const std::string& what) {
  if (right < 0 || right > made || right > true_errors) {
    return what + ": corrections_right exceeds corrections_made or true_errors";
  }
  const double p = made > 0 ? static_cast<double>(right) / made : 0.0;
  const double r =
      true_errors > 0 ? static_cast<double>(right) / true_errors : 0.0;
  const double f = p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
  if (std::fabs(p - precision) > 1e-9 || std::fabs(r - recall) > 1e-9) {
    return what + Fmt(": reported P %.6f / R %.6f, the counts give %.6f / %.6f",
                      precision, recall, p, r);
  }
  if (std::fabs(f - f1) > 1e-9) {
    return what + Fmt(": reported F1 %.6f, recounted %.6f", f1, f);
  }
  return "";
}

std::string Partition(const std::vector<std::vector<int>>& clusters, int n,
                      const std::string& what) {
  std::vector<int> seen(static_cast<size_t>(std::max(n, 0)), 0);
  for (const auto& c : clusters) {
    for (int id : c) {
      if (id < 0 || id >= n) return what + ": cluster member out of range";
      if (seen[static_cast<size_t>(id)]++ > 0) {
        return what + ": a column sits in two clusters";
      }
    }
  }
  for (int s : seen) {
    if (s == 0) return what + ": a column is in no cluster";
  }
  return "";
}

std::string BeatsAllPositive(double f1, double pos_ratio,
                             const std::string& what) {
  const double baseline = 2.0 * pos_ratio / (1.0 + pos_ratio);
  if (!(f1 > baseline)) {
    return what + Fmt(": F1 %.4f does not beat the all-positive %.4f", f1,
                      baseline);
  }
  return "";
}

std::string NeighborList(const std::vector<Neighbor>& got, int expected_size,
                         const float* query, int dim, const RowLookup& row,
                         double tol, const std::string& what) {
  if (static_cast<int>(got.size()) != expected_size) {
    return what + Fmt(": %zu neighbours, expected %d", got.size(),
                      expected_size);
  }
  std::unordered_set<int> ids;
  for (size_t j = 0; j < got.size(); ++j) {
    const Neighbor& nb = got[j];
    const float* r = row(nb.id);
    if (r == nullptr) {
      return what + Fmt(": returned id %d, which is not live (rank %zu)",
                        nb.id, j);
    }
    if (!ids.insert(nb.id).second) {
      return what + Fmt(": id %d returned twice", nb.id);
    }
    if (j > 0 && got[j].sim > got[j - 1].sim) {
      return what + Fmt(": sims increase at rank %zu", j);
    }
    double dot = 0.0;
    for (int d = 0; d < dim; ++d) {
      dot += static_cast<double>(query[d]) * static_cast<double>(r[d]);
    }
    if (!(std::fabs(dot - static_cast<double>(nb.sim)) <= tol)) {
      return what + Fmt(": sim %.7f, but the item's current row gives %.7f",
                        static_cast<double>(nb.sim), dot);
    }
  }
  return "";
}

std::vector<int> BruteForceTopK(const float* query, const float* rows,
                                const int* ids, int n, int dim, int k) {
  std::vector<std::pair<double, int>> scored(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const float* r = rows + static_cast<size_t>(i) * dim;
    double dot = 0.0;
    for (int d = 0; d < dim; ++d) {
      dot += static_cast<double>(query[d]) * static_cast<double>(r[d]);
    }
    scored[static_cast<size_t>(i)] = {dot, ids[i]};
  }
  const size_t kk = std::min<size_t>(static_cast<size_t>(std::max(k, 0)),
                                     scored.size());
  auto better = [](const std::pair<double, int>& a,
                   const std::pair<double, int>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(), better);
  std::vector<int> out;
  for (size_t i = 0; i < kk; ++i) out.push_back(scored[i].second);
  return out;
}

double RecallAgainst(const std::vector<Neighbor>& got,
                     const std::vector<int>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<int> want(truth.begin(), truth.end());
  int hit = 0;
  for (const Neighbor& nb : got) hit += want.count(nb.id) > 0;
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

double BruteForceRecall(const std::vector<std::vector<float>>& queries,
                        const std::vector<std::vector<float>>& rows,
                        const std::vector<std::vector<Neighbor>>& answers,
                        const std::vector<size_t>& which, int k) {
  if (which.empty() || rows.empty()) return 1.0;
  const int dim = static_cast<int>(rows[0].size());
  std::vector<float> flat;
  flat.reserve(rows.size() * static_cast<size_t>(dim));
  std::vector<int> ids(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    flat.insert(flat.end(), rows[i].begin(), rows[i].end());
    ids[i] = static_cast<int>(i);
  }
  double recall = 0.0;
  for (size_t q : which) {
    recall += RecallAgainst(
        answers[q], BruteForceTopK(queries[q].data(), flat.data(), ids.data(),
                                   static_cast<int>(rows.size()), dim, k));
  }
  return recall / static_cast<double>(which.size());
}

std::string SameProbs(const std::vector<float>& a, const std::vector<float>& b,
                      const std::string& what) {
  if (a.size() != b.size()) return what + ": different lengths";
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float))) {
    return what + ": probabilities differ bitwise";
  }
  return "";
}

std::string SameNeighbors(const std::vector<std::vector<Neighbor>>& a,
                          const std::vector<std::vector<Neighbor>>& b,
                          const std::string& what) {
  if (a.size() != b.size()) return what + ": different query counts";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return what + ": different list lengths";
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id ||
          std::memcmp(&a[i][j].sim, &b[i][j].sim, sizeof(float)) != 0) {
        return what + Fmt(": top-k lists differ at query %zu rank %zu", i, j);
      }
    }
  }
  return "";
}

std::string SameCount(long long got, long long want, const std::string& what) {
  if (got != want) {
    return what + Fmt(": program reports %lld, benchmark counted %lld", got,
                      want);
  }
  return "";
}

}  // namespace perfbench::checks

// Tests of the benchmark's own output checks. Each case feeds a check a
// deliberately wrong result and expects it to be rejected, next to the
// right result it must accept. Exits non-zero on the first surprise.
//
//   cmake --build .bench_build/perfbench --target perfbench_checks_test
//   .bench_build/perfbench/perfbench_checks_test

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using perfbench::checks::Neighbor;
namespace ck = perfbench::checks;

int failures = 0;

void ExpectPass(const std::string& err, const char* what) {
  if (!err.empty()) {
    std::fprintf(stderr, "FAIL %s: rejected a right result: %s\n", what,
                 err.c_str());
    ++failures;
  }
}

void ExpectReject(const std::string& err, const char* what) {
  if (err.empty()) {
    std::fprintf(stderr, "FAIL %s: accepted a wrong result\n", what);
    ++failures;
  }
}

void EmResults() {
  const std::vector<int> labels = {1, 0, 0, 1, 0, 0, 0, 0};
  const std::vector<float> probs = {0.9f, 0.1f, 0.2f, 0.7f, 0.4f, 0.3f, 0.1f,
                                    0.6f};
  const std::vector<int> preds = {1, 0, 0, 1, 0, 0, 0, 1};
  const double f1 = ck::RecountF1(preds, labels);  // P 2/3, R 1 -> 0.8
  ExpectPass(ck::EmTestResult(probs, preds, labels, f1, "em"), "em right");

  std::vector<int> flipped = preds;
  flipped[1] = 1;  // a flipped prediction, no longer the threshold of probs
  ExpectReject(ck::EmTestResult(probs, flipped, labels, f1, "em"),
               "em flipped prediction");
  ExpectReject(ck::EmTestResult(probs, preds, labels, f1 + 0.01, "em"),
               "em misreported F1");
  const std::vector<float> all_pos_probs(labels.size(), 0.9f);
  const std::vector<int> all_pos(labels.size(), 1);
  ExpectReject(ck::EmTestResult(all_pos_probs, all_pos, labels,
                                ck::RecountF1(all_pos, labels), "em"),
               "em all-positive predictor");
}

void CleaningResults() {
  // 8 made, 6 right, 10 true errors: P 0.75, R 0.6.
  const double p = 0.75, r = 0.6, f = 2 * p * r / (p + r);
  ExpectPass(ck::CleaningCounts(8, 6, 10, p, r, f, "clean"), "cleaning right");
  ExpectReject(ck::CleaningCounts(9, 6, 10, p, r, f, "clean"),
               "cleaning miscounted corrections_made");
  ExpectReject(ck::CleaningCounts(5, 6, 10, 1.2, r, f, "clean"),
               "cleaning right > made");
  ExpectReject(ck::CleaningCounts(8, 6, 10, p, r, f + 0.05, "clean"),
               "cleaning misreported F1");
}

void Partitions() {
  ExpectPass(ck::Partition({{0, 2}, {1}, {3}}, 4, "part"), "partition right");
  ExpectReject(ck::Partition({{0, 2}, {1}}, 4, "part"), "partition missing");
  ExpectReject(ck::Partition({{0, 2}, {1, 2}, {3}}, 4, "part"),
               "partition overlap");
  ExpectReject(ck::Partition({{0, 2}, {1}, {3, 4}}, 4, "part"),
               "partition out of range");
}

void NeighborLists() {
  // Three live items in 2-d; item 7 was deleted.
  const float rows[3][2] = {{1.0f, 0.0f}, {0.6f, 0.8f}, {0.0f, 1.0f}};
  const int ids[3] = {4, 5, 6};
  std::vector<float> current5 = {0.6f, 0.8f};
  const ck::RowLookup live = [&](int id) -> const float* {
    if (id == 5) return current5.data();
    return id == 4 || id == 6 ? rows[id - 4] : nullptr;
  };
  const float q[2] = {1.0f, 0.0f};
  const std::vector<Neighbor> right = {{4, 1.0f}, {5, 0.6f}};
  ExpectPass(ck::NeighborList(right, 2, q, 2, live, 1e-6, "nb"), "nb right");
  ExpectReject(ck::NeighborList({{4, 1.0f}, {7, 0.6f}}, 2, q, 2, live, 1e-6,
                                "nb"),
               "nb deleted id in a query answer");
  ExpectReject(ck::NeighborList({{4, 1.0f}, {4, 1.0f}}, 2, q, 2, live, 1e-6,
                                "nb"),
               "nb duplicate id");
  ExpectReject(ck::NeighborList({{5, 0.6f}, {4, 1.0f}}, 2, q, 2, live, 1e-6,
                                "nb"),
               "nb increasing sims");
  ExpectReject(ck::NeighborList({{4, 1.0f}}, 2, q, 2, live, 1e-6, "nb"),
               "nb short answer");
  // Item 5 is replaced; an answer still scored on its old row is stale.
  current5 = {0.0f, 1.0f};
  ExpectReject(ck::NeighborList(right, 2, q, 2, live, 1e-6, "nb"),
               "nb stale row after a replace");

  const std::vector<int> top = ck::BruteForceTopK(q, &rows[0][0], ids, 3, 2, 2);
  if (top != std::vector<int>{4, 5}) {
    std::fprintf(stderr, "FAIL brute force top-2\n");
    ++failures;
  }
  if (ck::RecallAgainst({{4, 1.0f}, {6, 0.0f}}, top) != 0.5) {
    std::fprintf(stderr, "FAIL recall against brute force\n");
    ++failures;
  }
}

void BitwiseEquality() {
  const std::vector<float> a = {0.25f, 0.5f};
  std::vector<float> b = a;
  ExpectPass(ck::SameProbs(a, b, "probs"), "probs equal");
  uint32_t bits = 0;
  std::memcpy(&bits, &b[1], sizeof(bits));
  bits ^= 1u;  // one ulp
  std::memcpy(&b[1], &bits, sizeof(bits));
  ExpectReject(ck::SameProbs(a, b, "probs"), "probs one ulp apart");

  const std::vector<std::vector<Neighbor>> x = {{{1, 0.5f}, {2, 0.25f}}};
  ExpectPass(ck::SameNeighbors(x, x, "topk"), "topk equal");
  std::vector<std::vector<Neighbor>> y = x;
  y[0][1].id = 3;
  ExpectReject(ck::SameNeighbors(x, y, "topk"), "topk different id");
  ExpectPass(ck::SameCount(5, 5, "count"), "count equal");
  ExpectReject(ck::SameCount(5, 4, "count"), "count off by one");
}

}  // namespace

int main() {
  EmResults();
  CleaningResults();
  Partitions();
  NeighborLists();
  BitwiseEquality();
  if (failures == 0) std::printf("perfbench checks: all cases behave\n");
  return failures == 0 ? 0 : 1;
}

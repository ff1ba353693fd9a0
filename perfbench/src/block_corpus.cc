// Workload `block_corpus`: blocking a large generated EM corpus (Table
// VII's cost at scale). Set-up builds the vocabulary and pre-trains
// (bounded by PretrainOptions::corpus_cap); one timed round encodes both
// tables, builds the default kAuto BlockingIndex (IVF above 8192 rows)
// over B and queries it with every A row at k = 10. No training runs in
// the timed part: batched inference, dense k-means and bulk index reads
// do the work.

#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "data/em_dataset.h"
#include "index/ivf_index.h"
#include "matcher/pair_matcher.h"
#include "pipeline/em_pipeline.h"
#include "text/vocab.h"

namespace perfbench {

namespace pl = sudowoodo::pipeline;
namespace sd = sudowoodo::data;
using checks::Neighbor;

namespace {

constexpr int kThreads = 2;
constexpr int kTopK = 10;
// Queries re-scored by the double-precision brute-force scan.
constexpr int kBruteSample = 256;
// The IVF answer must keep at least this share of the exact top-10 on the
// sample. It is a floor against a broken index, not a quality target.
constexpr double kRecallFloor = 0.75;
// Tolerance of a returned fp32 sim against the double dot product.
constexpr double kSimTol = 1e-4;

struct Corpus {
  sd::EmDataset ds;
  sudowoodo::text::Vocab vocab;
  std::unique_ptr<sudowoodo::nn::Encoder> encoder;
  std::vector<std::vector<int>> ids_a, ids_b;
  double pretrain_s = 0.0;
};

Corpus Setup(uint64_t seed, Tracer* tracer) {
  Corpus c;
  // AB (products) scaled to ~20k A rows and ~22k B rows.
  sd::EmSpec spec = sd::GetEmSpec("AB");
  spec.n_entities = 20000;
  spec.b_extra = 5000;
  spec.n_pairs = 200;
  spec.seed = MixSeed(seed, 101);
  c.ds = sd::GenerateEm(spec);
  const auto tok_a = SerializeTable(c.ds.table_a);
  const auto tok_b = SerializeTable(c.ds.table_b);
  std::vector<std::vector<std::string>> corpus = tok_a;
  corpus.insert(corpus.end(), tok_b.begin(), tok_b.end());
  PretrainedEncoder pe = PretrainEncoder(corpus, kThreads, tracer, "pretrain");
  c.vocab = std::move(pe.vocab);
  c.encoder = std::move(pe.encoder);
  c.pretrain_s = pe.pretrain_s;
  for (const auto& t : tok_a) c.ids_a.push_back(c.vocab.Encode(t));
  for (const auto& t : tok_b) c.ids_b.push_back(c.vocab.Encode(t));
  return c;
}

struct RoundOutput {
  std::vector<std::vector<float>> emb_a, emb_b;
  std::vector<std::vector<Neighbor>> topk;
  double encode_s = 0.0, build_s = 0.0, query_s = 0.0;
  size_t bytes_resident = 0;
  bool using_ivf = false;
  double total_s() const { return encode_s + build_s + query_s; }
};

RoundOutput RunRound(Corpus* c, int threads, Tracer* tracer) {
  RoundOutput out;
  c->encoder->set_num_threads(threads);
  auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "nn", "embed");
    out.emb_a = c->encoder->EmbedNormalized(c->ids_a);
    out.emb_b = c->encoder->EmbedNormalized(c->ids_b);
  }
  out.encode_s = SecondsSince(t0);
  t0 = Clock::now();
  sudowoodo::index::BlockingIndexOptions bo;
  bo.ivf.seed = 6151 * 7 + 3;  // as EmPipeline derives it from seed 7
  bo.ivf.num_threads = threads;
  const int build = tracer->Begin("index", "build");
  sudowoodo::index::BlockingIndex index(out.emb_b, bo);
  tracer->End(build);
  out.build_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "index", "query_batch");
    SUDO_CHECK_OK(index.QueryBatch(out.emb_a, kTopK, &out.topk, threads));
  }
  out.query_s = SecondsSince(t0);
  out.bytes_resident = index.bytes_resident();
  out.using_ivf = index.using_ivf();
  return out;
}

struct CheckOutput {
  double gold_recall = 0.0;
  double brute_recall = 0.0;
};

CheckOutput CheckRound(const Corpus& c, const RoundOutput& out, uint64_t seed,
                       Result* r) {
  CheckOutput co;
  const int dim = c.encoder->dim();
  const int n_b = static_cast<int>(out.emb_b.size());
  const checks::RowLookup row = [&](int id) -> const float* {
    return id >= 0 && id < n_b ? out.emb_b[static_cast<size_t>(id)].data()
                               : nullptr;
  };
  if (out.topk.size() != out.emb_a.size()) {
    r->Fail("block: one answer per A row expected");
    return co;
  }
  for (size_t a = 0; a < out.topk.size(); ++a) {
    const std::string err =
        checks::NeighborList(out.topk[a], std::min(kTopK, n_b),
                             out.emb_a[a].data(), dim, row, kSimTol,
                             "block query " + std::to_string(a));
    if (!err.empty()) {
      r->Fail(err);
      break;
    }
  }
  // Gold recall@10 from the generator's truth.
  int64_t hit = 0;
  for (const auto& [a, b] : c.ds.gold_matches) {
    for (const Neighbor& nb : out.topk[static_cast<size_t>(a)]) {
      if (nb.id == b) {
        ++hit;
        break;
      }
    }
  }
  co.gold_recall = c.ds.gold_matches.empty()
                       ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(c.ds.gold_matches.size());
  // Double-precision brute force over a seeded sample of queries.
  sudowoodo::Rng rng(MixSeed(seed, 202));
  std::vector<size_t> sample(kBruteSample);
  for (size_t& a : sample) {
    a = static_cast<size_t>(rng.UniformInt(static_cast<int>(out.emb_a.size())));
  }
  co.brute_recall =
      checks::BruteForceRecall(out.emb_a, out.emb_b, out.topk, sample, kTopK);
  if (co.brute_recall < kRecallFloor) {
    r->Fail("block: recall against the brute-force top-10 is " +
            std::to_string(co.brute_recall) + ", below the floor");
  }
  return co;
}

}  // namespace

Result RunBlockCorpus(const RunConfig& cfg, Tracer* tracer) {
  Result r;
  Corpus c = Setup(cfg.seed, tracer);
  const double setup_s = SecondsSince(ProcessStart());
  Tracer off(false);

  if (!cfg.trace) {
    std::vector<RoundOutput> rounds;
    std::vector<double> total, enc, build, query;
    const auto t0 = Clock::now();
    do {
      RoundOutput o = RunRound(&c, kThreads, &off);
      total.push_back(o.total_s());
      enc.push_back(o.encode_s);
      build.push_back(o.build_s);
      query.push_back(o.query_s);
      r.attempted += static_cast<int64_t>(c.ids_a.size());
      if (rounds.empty()) {
        rounds.push_back(std::move(o));
      } else {
        r.Check(checks::SameNeighbors(rounds[0].topk, o.topk,
                                      "block repeated round"));
      }
    } while (SecondsSince(t0) < cfg.seconds);
    const double rss_mb = PeakRssMb();
    const CheckOutput co = CheckRound(c, rounds[0], cfg.seed, &r);
    r.Add("setup_s", setup_s, "s");
    r.Add("round_s", Quantile(total, kRoundQuantile), "s");
    r.Add("quality", co.gold_recall, "ratio");
    r.Add("peak_rss_mb", rss_mb, "MB");
    r.Detail("block_recall_at_10", co.gold_recall, "ratio");
    r.Detail("recall_vs_bruteforce_at_10", co.brute_recall, "ratio");
    r.Detail("encode_s", Median(enc), "s");
    r.Detail("build_s", Median(build), "s");
    r.Detail("query_s", Median(query), "s");
    r.Detail("rows_a", static_cast<double>(c.ids_a.size()), "count");
    r.Detail("rows_b", static_cast<double>(c.ids_b.size()), "count");
    r.Detail("using_ivf", rounds[0].using_ivf ? 1.0 : 0.0, "bool");
    r.Detail("round_s.median", Median(total), "s");
    r.Detail("rounds", static_cast<double>(total.size()), "count");
    return r;
  }

  // The threaded round is the reference; the same round traced at one
  // thread must give the same top-k lists.
  const RoundOutput ref = RunRound(&c, kThreads, &off);
  const RoundOutput traced = RunRound(&c, 1, tracer);
  r.attempted = 2 * static_cast<int64_t>(c.ids_a.size());
  const CheckOutput co = CheckRound(c, ref, cfg.seed, &r);
  r.Check(checks::SameNeighbors(ref.topk, traced.topk,
                                "block top-k threads 2 vs 1"));
  const double rows = static_cast<double>(c.ids_a.size() + c.ids_b.size());
  r.Add("contrastive.pretrain_s", c.pretrain_s, "s");
  r.Add("nn.encode_s", traced.encode_s, "s");
  r.Add("nn.encode_rows_per_s", rows / traced.encode_s, "1/s");
  r.Add("index.build_s", traced.build_s, "s");
  r.Add("index.query_s", traced.query_s, "s");
  r.Add("index.queries_per_s",
        static_cast<double>(c.ids_a.size()) / traced.query_s, "1/s");
  r.Add("index.bytes_resident", static_cast<double>(traced.bytes_resident),
        "bytes");
  r.Add("index.recall_vs_bruteforce_at_10", co.brute_recall, "ratio");
  r.Detail("block_recall_at_10", co.gold_recall, "ratio");
  r.Detail("round_s.threads2", ref.total_s(), "s");
  r.Detail("round_s.threads1", traced.total_s(), "s");
  r.Detail("encode_s.threads2", ref.encode_s, "s");
  r.Detail("build_s.threads2", ref.build_s, "s");
  r.Detail("query_s.threads2", ref.query_s, "s");
  {
    // The step after blocking: score candidate pairs with the pair
    // matcher (untrained head; the cost does not depend on the weights).
    std::vector<sudowoodo::matcher::PairExample> pairs;
    const int n = std::min<int>(2000, static_cast<int>(ref.topk.size()));
    for (int a = 0; a < n; ++a) {
      if (ref.topk[static_cast<size_t>(a)].empty()) continue;
      pairs.push_back(pl::EmPipeline::MakeExample(
          c.ds, {a, ref.topk[static_cast<size_t>(a)][0].id, 0}));
    }
    sudowoodo::matcher::PairMatcher pm(c.encoder.get(), &c.vocab,
                                       sudowoodo::matcher::FinetuneOptions());
    Tracer::Scope span(tracer, "matcher", "predict_candidates");
    const auto t0 = Clock::now();
    const std::vector<float> probs = pm.PredictProba(pairs);
    r.Add("matcher.predict_us",
          SecondsSince(t0) * 1e6 / static_cast<double>(pairs.size()), "us");
    if (probs.size() != pairs.size()) r.Fail("block: matcher probe count");
  }
  AddGemmLayerMetrics(tracer, &r);
  AddTraceMetrics(*tracer, &r);
  return r;
}

}  // namespace perfbench

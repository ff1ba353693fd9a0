// Workload `paper_tasks`: the three paper pipelines at paper scale with
// the default Sudowoodo options and the FastBag encoder. One round runs
// EmPipeline on the five semi-supervised EM datasets, CleaningPipeline on
// a subset of the cleaning datasets and ColumnPipeline on the
// 1200-column corpus; training does nearly all the work.

#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "data/cleaning_dataset.h"
#include "data/column_corpus.h"
#include "data/em_dataset.h"
#include "index/ivf_index.h"
#include "matcher/pair_matcher.h"
#include "pipeline/cleaning_pipeline.h"
#include "pipeline/column_pipeline.h"
#include "pipeline/em_pipeline.h"
#include "text/vocab.h"

namespace perfbench {

namespace pl = sudowoodo::pipeline;
namespace sd = sudowoodo::data;

namespace {

// Threads of the timed rounds; the traced run repeats the work at 1.
constexpr int kThreads = 2;

// One cleaning run costs as much as all five EM runs, so the round takes
// one set: beers, whose 16% error rate gives the steadiest F1 of the four.
const char* const kCleaningSets[] = {"beers"};

struct Inputs {
  std::vector<sd::EmDataset> em;
  std::vector<sd::CleaningDataset> cleaning;
  sd::ColumnCorpus columns;
};

Inputs Generate(uint64_t seed) {
  Inputs in;
  uint64_t tag = 1;
  for (const std::string& code : sd::SemiSupEmCodes()) {
    sd::EmSpec spec = sd::GetEmSpec(code);
    spec.seed = MixSeed(seed, tag++);
    in.em.push_back(sd::GenerateEm(spec));
  }
  for (const char* name : kCleaningSets) {
    sd::CleaningSpec spec = sd::GetCleaningSpec(name);
    spec.seed = MixSeed(seed, tag++);
    in.cleaning.push_back(sd::GenerateCleaning(spec));
  }
  sd::ColumnCorpusSpec cspec;
  cspec.n_columns = 1200;
  cspec.seed = MixSeed(seed, tag++);
  in.columns = sd::GenerateColumnCorpus(cspec);
  return in;
}

struct RoundOutput {
  std::vector<pl::EmRunResult> em;
  std::vector<pl::CleaningRunResult> cleaning;
  pl::ColumnRunResult column;
  double em_s = 0.0, cleaning_s = 0.0, column_s = 0.0;
  std::vector<double> run_s;  // per pipeline run, in round order
  double total_s() const { return em_s + cleaning_s + column_s; }
};

RoundOutput RunRound(const Inputs& in, int threads, Tracer* tracer) {
  RoundOutput out;
  for (const sd::EmDataset& ds : in.em) {
    pl::EmPipelineOptions o;
    o.num_threads = threads;
    o.train_num_threads = threads;
    Tracer::Scope span(tracer, "pipeline", "em." + ds.code);
    const auto t0 = Clock::now();
    out.em.push_back(pl::EmPipeline(o).Run(ds));
    out.run_s.push_back(SecondsSince(t0));
    out.em_s += out.run_s.back();
    const pl::EmRunResult& r = out.em.back();
    tracer->Annotate(span.id(), "reported.pretrain_s", r.pretrain_seconds);
    tracer->Annotate(span.id(), "reported.blocking_s", r.blocking_seconds);
    tracer->Annotate(span.id(), "reported.finetune_s", r.finetune_seconds);
  }
  for (const sd::CleaningDataset& ds : in.cleaning) {
    pl::CleaningPipelineOptions o;
    o.num_threads = threads;
    o.train_num_threads = threads;
    Tracer::Scope span(tracer, "pipeline", "cleaning." + ds.name);
    const auto t0 = Clock::now();
    out.cleaning.push_back(pl::CleaningPipeline(o).Run(ds));
    out.run_s.push_back(SecondsSince(t0));
    out.cleaning_s += out.run_s.back();
    const pl::CleaningRunResult& r = out.cleaning.back();
    tracer->Annotate(span.id(), "reported.pretrain_s", r.pretrain_seconds);
    tracer->Annotate(span.id(), "reported.finetune_s", r.finetune_seconds);
  }
  {
    pl::ColumnPipelineOptions o;
    o.num_threads = threads;
    o.train_num_threads = threads;
    Tracer::Scope span(tracer, "pipeline", "column");
    const auto t0 = Clock::now();
    out.column = pl::ColumnPipeline(o).Run(in.columns);
    out.column_s = SecondsSince(t0);
    out.run_s.push_back(out.column_s);
    tracer->Annotate(span.id(), "reported.blocking_s",
                     out.column.blocking_seconds);
    tracer->Annotate(span.id(), "reported.matching_s",
                     out.column.matching_seconds);
  }
  return out;
}

void CheckRound(const Inputs& in, const RoundOutput& out, Result* r) {
  for (size_t i = 0; i < in.em.size(); ++i) {
    std::vector<int> labels;
    for (const auto& p : in.em[i].test) labels.push_back(p.label);
    const pl::EmRunResult& e = out.em[i];
    r->Check(checks::EmTestResult(e.test_probs, e.test_preds, labels,
                                  e.test.f1, "em." + in.em[i].code));
  }
  for (size_t i = 0; i < in.cleaning.size(); ++i) {
    const pl::CleaningRunResult& c = out.cleaning[i];
    const std::string what = "cleaning." + in.cleaning[i].name;
    r->Check(checks::CleaningCounts(
        c.corrections_made, c.corrections_right, c.true_errors,
        c.correction.precision, c.correction.recall, c.correction.f1, what));
    // true_errors counts the evaluation rows' errors (labeled rows are
    // held out), so it is bounded by the generator's error count.
    if (c.true_errors <= 0 ||
        c.true_errors > static_cast<int>(in.cleaning[i].errors.size())) {
      r->Fail(what + ": true_errors outside (0, injected errors]");
    }
    if (!(c.correction.f1 > 0.0)) r->Fail(what + ": F1 is 0");
  }
  const pl::ColumnRunResult& col = out.column;
  r->Check(checks::Partition(col.clusters,
                             static_cast<int>(in.columns.columns.size()),
                             "column clusters"));
  r->Check(checks::BeatsAllPositive(col.test.f1, col.candidate_pos_ratio,
                                    "column"));
}

// Bitwise comparison of two rounds' outputs (threads, or repetition).
void CheckSameRound(const RoundOutput& a, const RoundOutput& b,
                    const std::string& what, Result* r) {
  for (size_t i = 0; i < a.em.size(); ++i) {
    r->Check(checks::SameProbs(a.em[i].test_probs, b.em[i].test_probs,
                               what + " em test_probs"));
  }
  for (size_t i = 0; i < a.cleaning.size(); ++i) {
    r->Check(checks::SameCount(a.cleaning[i].corrections_right,
                               b.cleaning[i].corrections_right,
                               what + " cleaning corrections_right"));
    r->Check(checks::SameCount(a.cleaning[i].corrections_made,
                               b.cleaning[i].corrections_made,
                               what + " cleaning corrections_made"));
  }
  if (a.column.clusters != b.column.clusters) {
    r->Fail(what + ": column clusters differ");
  }
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Mean test F1 over the round's pipeline runs: the workload's quality.
double Quality(const RoundOutput& out, Result* r) {
  std::vector<double> em, all;
  for (const auto& e : out.em) em.push_back(e.test.f1);
  all = em;
  for (const auto& c : out.cleaning) all.push_back(c.correction.f1);
  all.push_back(out.column.test.f1);
  r->Detail("em_f1", Mean(em), "ratio");
  r->Detail("cleaning_f1", out.cleaning[0].correction.f1, "ratio");
  r->Detail("column_f1", out.column.test.f1, "ratio");
  return Mean(all);
}

// The layers under EmPipeline::Run, called one by one from here on the
// first EM dataset: pre-train, encode, build + query the blocking index,
// fine-tune, predict. Same options as the pipeline, one thread.
void LayerReplay(const sd::EmDataset& ds, Tracer* tracer, Result* r) {
  const pl::EmPipelineOptions o;
  const auto tok_a = SerializeTable(ds.table_a);
  const auto tok_b = SerializeTable(ds.table_b);
  std::vector<std::vector<std::string>> corpus = tok_a;
  corpus.insert(corpus.end(), tok_b.begin(), tok_b.end());
  PretrainedEncoder pe =
      PretrainEncoder(corpus, 1, tracer, "pretrain." + ds.code);
  r->Add("contrastive.pretrain_s", pe.pretrain_s, "s");
  const sudowoodo::text::Vocab& vocab = pe.vocab;
  sudowoodo::nn::Encoder* encoder = pe.encoder.get();
  std::vector<std::vector<int>> ids_a, ids_b;
  for (const auto& t : tok_a) ids_a.push_back(vocab.Encode(t));
  for (const auto& t : tok_b) ids_b.push_back(vocab.Encode(t));
  std::vector<std::vector<float>> emb_a, emb_b;
  {
    Tracer::Scope span(tracer, "nn", "embed." + ds.code);
    const auto t0 = Clock::now();
    emb_a = encoder->EmbedNormalized(ids_a);
    emb_b = encoder->EmbedNormalized(ids_b);
    const double sec = SecondsSince(t0);
    r->Add("nn.encode_s", sec, "s");
    r->Add("nn.encode_rows_per_s",
           static_cast<double>(ids_a.size() + ids_b.size()) / sec, "1/s");
  }
  std::vector<std::vector<checks::Neighbor>> topk;
  {
    const auto t0 = Clock::now();
    const int build = tracer->Begin("index", "build." + ds.code);
    sudowoodo::index::BlockingIndex index(emb_b, o.blocking_index);
    tracer->End(build);
    r->Add("index.build_s", SecondsSince(t0), "s");
    const auto t1 = Clock::now();
    {
      Tracer::Scope q(tracer, "index", "query_batch." + ds.code);
      if (!index.QueryBatch(emb_a, o.blocking_k, &topk, 1).ok()) {
        r->Fail("replay QueryBatch failed");
      }
    }
    const double qs = SecondsSince(t1);
    r->Add("index.query_s", qs, "s");
    r->Add("index.queries_per_s", static_cast<double>(emb_a.size()) / qs,
           "1/s");
    r->Add("index.bytes_resident", static_cast<double>(index.bytes_resident()),
           "bytes");
  }
  std::vector<size_t> all_a(emb_a.size());
  for (size_t a = 0; a < all_a.size(); ++a) all_a[a] = a;
  r->Add("index.recall_vs_bruteforce_at_10",
         checks::BruteForceRecall(emb_a, emb_b, topk, all_a, o.blocking_k),
         "ratio");
  // Fine-tune on the labeled train + valid pairs, score the test pairs.
  std::vector<sudowoodo::matcher::PairExample> train, valid, test;
  for (const auto& p : ds.train) {
    train.push_back(pl::EmPipeline::MakeExample(ds, p));
  }
  for (const auto& p : ds.valid) {
    valid.push_back(pl::EmPipeline::MakeExample(ds, p));
  }
  for (const auto& p : ds.test) {
    test.push_back(pl::EmPipeline::MakeExample(ds, p));
  }
  sudowoodo::matcher::PairMatcher pm(encoder, &vocab, o.finetune);
  {
    Tracer::Scope span(tracer, "matcher", "train." + ds.code);
    if (!pm.Train(train, valid).ok()) r->Fail("replay fine-tuning failed");
  }
  {
    Tracer::Scope span(tracer, "matcher", "predict." + ds.code);
    const auto t0 = Clock::now();
    const std::vector<float> probs = pm.PredictProba(test);
    r->Add("matcher.predict_us",
           SecondsSince(t0) * 1e6 / static_cast<double>(test.size()), "us");
    if (probs.size() != test.size()) r->Fail("replay predicted a wrong count");
  }
}

}  // namespace

Result RunPaperTasks(const RunConfig& cfg, Tracer* tracer) {
  Result r;
  const Inputs in = Generate(cfg.seed);
  const double setup_s = SecondsSince(ProcessStart());
  Tracer off(false);

  if (!cfg.trace) {
    std::vector<RoundOutput> rounds;
    const auto t0 = Clock::now();
    do {
      rounds.push_back(RunRound(in, kThreads, &off));
      r.attempted +=
          static_cast<int64_t>(in.em.size() + in.cleaning.size() + 1);
    } while (SecondsSince(t0) < cfg.seconds);
    const double rss_mb = PeakRssMb();
    std::vector<double> total, em, cl, col;
    for (const RoundOutput& o : rounds) {
      total.push_back(o.total_s());
      em.push_back(o.em_s);
      cl.push_back(o.cleaning_s);
      col.push_back(o.column_s);
    }
    CheckRound(in, rounds[0], &r);
    for (size_t i = 1; i < rounds.size(); ++i) {
      CheckSameRound(rounds[0], rounds[i], "repeated round", &r);
    }
    // A round holds seven pipeline runs of 1-5 s and a run only two
    // rounds, so the host-robust figure is taken per pipeline run: the
    // 10th percentile of each run's times, summed over the round.
    double round_s = 0.0;
    for (size_t i = 0; i < rounds[0].run_s.size(); ++i) {
      const std::string name =
          i < in.em.size() ? "em." + in.em[i].code
          : i < in.em.size() + in.cleaning.size()
              ? "cleaning." + in.cleaning[i - in.em.size()].name
              : std::string("column");
      std::vector<double> t;
      for (const RoundOutput& o : rounds) t.push_back(o.run_s[i]);
      round_s += Quantile(t, kRoundQuantile);
      r.Detail(name + "_s", Median(t), "s");
    }
    r.Add("setup_s", setup_s, "s");
    r.Add("round_s", round_s, "s");
    r.Add("quality", Quality(rounds[0], &r), "ratio");
    r.Add("peak_rss_mb", rss_mb, "MB");
    r.Detail("em_pipeline_s", Median(em), "s");
    r.Detail("cleaning_pipeline_s", Median(cl), "s");
    r.Detail("column_pipeline_s", Median(col), "s");
    r.Detail("round_s.median", Median(total), "s");
    r.Detail("rounds", static_cast<double>(rounds.size()), "count");
    return r;
  }

  // Traced run: the threaded round is the reference, then the same work
  // traced at one thread; the one-thread outputs must equal the threaded
  // ones.
  const RoundOutput ref = RunRound(in, kThreads, &off);
  const RoundOutput traced = RunRound(in, 1, tracer);
  r.attempted = 2 * static_cast<int64_t>(in.em.size() + in.cleaning.size() + 1);
  CheckRound(in, ref, &r);
  CheckSameRound(ref, traced, "threads 2 vs 1", &r);
  for (size_t i = 0; i < in.em.size(); ++i) {
    const pl::EmRunResult& e = traced.em[i];
    const std::string p = "pipeline.em." + in.em[i].code + ".";
    r.Detail(p + "pretrain_s", e.pretrain_seconds, "s");
    r.Detail(p + "blocking_s", e.blocking_seconds, "s");
    r.Detail(p + "finetune_s", e.finetune_seconds, "s");
    r.Detail(p + "other_s",
             e.total_seconds - e.pretrain_seconds - e.blocking_seconds -
                 e.finetune_seconds,
             "s");
  }
  for (size_t i = 0; i < in.cleaning.size(); ++i) {
    const pl::CleaningRunResult& c = traced.cleaning[i];
    const std::string p = "pipeline.cleaning." + in.cleaning[i].name + ".";
    r.Detail(p + "pretrain_s", c.pretrain_seconds, "s");
    r.Detail(p + "finetune_s", c.finetune_seconds, "s");
    r.Detail(p + "other_s",
             c.total_seconds - c.pretrain_seconds - c.finetune_seconds, "s");
  }
  r.Detail("pipeline.column.blocking_s", traced.column.blocking_seconds, "s");
  r.Detail("pipeline.column.matching_s", traced.column.matching_seconds, "s");
  r.Detail("pipeline.column.pretrain_and_other_s",
           traced.column.total_seconds - traced.column.blocking_seconds -
               traced.column.matching_seconds,
           "s");
  r.Detail("round_s.threads2", ref.total_s(), "s");
  r.Detail("round_s.threads1", traced.total_s(), "s");
  LayerReplay(in.em[0], tracer, &r);
  AddGemmLayerMetrics(tracer, &r);
  AddTraceMetrics(*tracer, &r);
  return r;
}

}  // namespace perfbench

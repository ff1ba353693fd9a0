// Workload `serve_mixed`: the online front door over a live corpus. One
// serving::Server with one replica serves a LiveBlockingIndex preloaded
// above the IVF threshold. One client thread keeps a fixed number of
// requests outstanding (a closed loop: the caller waits for replies, so
// a slower server gets less load and no backlog builds). Most requests
// are skewed kQuery draws, so the EmbeddingCache (smaller than the
// working set) hits; a minority are kUpsert (new items and replacements)
// and kDelete of live ids; a few are kMatch.
//
// One replica applies the requests in submission order, so a serial
// replay of the same stream on a fresh, identically preloaded index must
// give bitwise the same answers. The replay is the check oracle, and in
// the traced run it times each layer call.

#include <algorithm>
#include <deque>
#include <future>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "data/em_dataset.h"
#include "index/embedding_cache.h"
#include "index/live_index.h"
#include "matcher/pair_matcher.h"
#include "pipeline/em_pipeline.h"
#include "serving/server.h"
#include "text/vocab.h"

namespace perfbench {

namespace pl = sudowoodo::pipeline;
namespace sd = sudowoodo::data;
namespace sv = sudowoodo::serving;
namespace ix = sudowoodo::index;
using checks::Neighbor;

namespace {

constexpr int kPreload = 10000;     // above the 8192-row IVF threshold
constexpr int kQueryPool = 4096;    // distinct query serializations
constexpr size_t kCacheEntries = 1024;  // < the query working set
constexpr int kRoundRequests = 2000;
constexpr int kOutstanding = 32;    // = 2 flushes in flight
constexpr int kMaxBatch = 16;
constexpr int kTopK = 10;
constexpr int kBruteEvery = 32;     // brute-force every 32nd query
constexpr double kRecallFloor = 0.75;
constexpr double kSimTol = 1e-4;
// Request mix in percent. It is an assumption (a read-mostly front door),
// not a measured trace; the traced run reports each kind's share of the
// layer time so the figures can be reweighted. Upserts of new items and
// deletes balance, so the corpus size stays near kPreload.
constexpr int kPctUpsertNew = 5;
constexpr int kPctReplace = 5;
constexpr int kPctDelete = 5;
constexpr int kPctMatch = 3;  // the rest are queries

struct Corpus {
  std::vector<std::vector<int>> rows;  // token ids of every corpus row
  std::vector<sudowoodo::matcher::PairExample> pairs;  // for kMatch
  sudowoodo::text::Vocab vocab;
  std::unique_ptr<sudowoodo::nn::Encoder> encoder;
  std::unique_ptr<sudowoodo::matcher::PairMatcher> matcher;
  std::vector<int> query_pool;   // row indexes, most popular first
  std::vector<double> query_cdf;  // Zipf(1) over query_pool
  double pretrain_s = 0.0;
};

Corpus Setup(uint64_t seed, Tracer* tracer) {
  Corpus c;
  sd::EmSpec spec = sd::GetEmSpec("AB");
  spec.n_entities = 7000;
  spec.b_extra = 1500;
  spec.n_pairs = 600;
  spec.seed = MixSeed(seed, 301);
  const sd::EmDataset ds = sd::GenerateEm(spec);
  std::vector<std::vector<std::string>> tokens = SerializeTable(ds.table_a);
  const auto tok_b = SerializeTable(ds.table_b);
  tokens.insert(tokens.end(), tok_b.begin(), tok_b.end());
  for (const auto& p : ds.test) {
    c.pairs.push_back(pl::EmPipeline::MakeExample(ds, p));
  }
  PretrainedEncoder pe = PretrainEncoder(tokens, 1, tracer, "pretrain");
  c.vocab = std::move(pe.vocab);
  c.encoder = std::move(pe.encoder);
  c.pretrain_s = pe.pretrain_s;
  for (const auto& t : tokens) c.rows.push_back(c.vocab.Encode(t));
  sudowoodo::Rng rng(MixSeed(seed, 302));
  for (int i = 0; i < kQueryPool; ++i) {
    c.query_pool.push_back(rng.UniformInt(static_cast<int>(c.rows.size())));
  }
  double acc = 0.0;
  for (int i = 0; i < kQueryPool; ++i) {
    acc += 1.0 / (i + 1);
    c.query_cdf.push_back(acc);
  }
  for (double& x : c.query_cdf) x /= acc;
  return c;
}

// Client-side model of which items are live, so deletes and replacements
// only name live ids and every request succeeds.
struct StreamState {
  std::vector<int> live;                    // live item ids
  std::unordered_map<int, size_t> live_pos;  // id -> index in `live`
  int next_id = kPreload;
  int next_row = kPreload;  // content for upserts cycles over the rows
  long long replaces = 0;
};

void AddLive(StreamState* s, int id) {
  s->live_pos[id] = s->live.size();
  s->live.push_back(id);
}

void RemoveLive(StreamState* s, int id) {
  const size_t pos = s->live_pos[id];
  s->live[pos] = s->live.back();
  s->live_pos[s->live[pos]] = pos;
  s->live.pop_back();
  s->live_pos.erase(id);
}

// One request of the stream, by reference into the corpus: `row` is the
// token row of a query or upsert, `pair` the kMatch pair.
struct Op {
  sv::RequestKind kind = sv::RequestKind::kQuery;
  int row = -1;
  int item_id = -1;
  int pair = -1;
};

sv::Request ToRequest(const Corpus& c, const Op& op) {
  sv::Request q;
  q.kind = op.kind;
  q.item_id = op.item_id;
  q.k = kTopK;
  if (op.row >= 0) q.ids = c.rows[static_cast<size_t>(op.row)];
  if (op.pair >= 0) q.pair = c.pairs[static_cast<size_t>(op.pair)];
  return q;
}

std::vector<Op> MakeRound(const Corpus& c, uint64_t seed, int round,
                          StreamState* s) {
  sudowoodo::Rng rng(MixSeed(seed, 1000 + static_cast<uint64_t>(round)));
  std::vector<Op> reqs(kRoundRequests);
  const int n_rows = static_cast<int>(c.rows.size());
  for (Op& q : reqs) {
    const int roll = rng.UniformInt(100);
    if (roll < kPctUpsertNew + kPctReplace) {
      q.kind = sv::RequestKind::kUpsert;
      q.row = s->next_row++ % n_rows;
      if (roll < kPctUpsertNew) {
        q.item_id = s->next_id++;
        AddLive(s, q.item_id);
      } else {
        q.item_id = s->live[static_cast<size_t>(
            rng.UniformInt(static_cast<int>(s->live.size())))];
        ++s->replaces;
      }
    } else if (roll < kPctUpsertNew + kPctReplace + kPctDelete) {
      q.kind = sv::RequestKind::kDelete;
      q.item_id = s->live[static_cast<size_t>(
          rng.UniformInt(static_cast<int>(s->live.size())))];
      RemoveLive(s, q.item_id);
    } else if (roll < kPctUpsertNew + kPctReplace + kPctDelete + kPctMatch) {
      q.kind = sv::RequestKind::kMatch;
      q.pair = rng.UniformInt(static_cast<int>(c.pairs.size()));
    } else {
      q.kind = sv::RequestKind::kQuery;
      const double u = rng.Uniform();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(c.query_cdf.begin(), c.query_cdf.end(), u) -
          c.query_cdf.begin());
      q.row = c.query_pool[std::min<size_t>(rank, kQueryPool - 1)];
    }
  }
  return reqs;
}

// Loads the first kPreload rows as items 0..kPreload-1 and returns the
// seconds of the index insert alone (the encode is traced as `nn`).
double Preload(Corpus* c, ix::LiveBlockingIndex* live, Tracer* tracer) {
  const int dim = c->encoder->dim();
  std::vector<std::vector<int>> batch(c->rows.begin(),
                                      c->rows.begin() + kPreload);
  std::vector<float> emb(static_cast<size_t>(kPreload) * dim);
  {
    Tracer::Scope span(tracer, "nn", "preload_encode");
    c->encoder->EncodeNormalizedInto(batch, emb.data());
  }
  std::vector<ix::LiveItem> items(kPreload);
  for (int i = 0; i < kPreload; ++i) {
    items[static_cast<size_t>(i)].item_id = i;
    items[static_cast<size_t>(i)].token_key = batch[static_cast<size_t>(i)];
  }
  Tracer::Scope span(tracer, "index", "preload");
  const auto t0 = Clock::now();
  SUDO_CHECK_OK(live->Upsert(items.data(), emb.data(), kPreload, dim));
  return SecondsSince(t0);
}

// What the benchmark keeps of one response.
struct Answer {
  bool ok = false;
  int coalesced = 0;
  float prob = 0.0f;
  std::vector<Neighbor> neighbors;
};

struct Served {
  std::vector<Op> reqs;
  std::vector<Answer> resps;
  std::vector<double> latency_ms;
  std::vector<double> round_s;
  double submit_s = 0.0;  // client time spent inside Submit
  double wall_s = 0.0;    // sum of round_s
  long long final_live = 0;  // the client's count of live items at the end
  long long replaces = 0;    // upserts of an already live id
};

// The closed loop over whole rounds until `seconds` have passed.
Served Serve(const Corpus& c, const RunConfig& cfg, sv::Server* server,
             Tracer* tracer) {
  Served out;
  StreamState state;
  for (int i = 0; i < kPreload; ++i) AddLive(&state, i);
  const auto start = Clock::now();
  for (int round = 0; SecondsSince(start) < cfg.seconds; ++round) {
    std::vector<Op> reqs = MakeRound(c, cfg.seed, round, &state);
    const size_t base = out.reqs.size();
    out.resps.resize(base + reqs.size());
    out.latency_ms.resize(base + reqs.size());
    std::deque<std::pair<size_t, std::future<sv::Response>>> inflight;
    std::vector<Clock::time_point> sent(reqs.size());
    Tracer::Scope span(tracer, "serving", "round");
    const auto t0 = Clock::now();
    auto collect = [&] {
      auto& [i, fut] = inflight.front();
      sv::Response resp = fut.get();
      Answer& a = out.resps[base + i];
      a.ok = resp.status.ok();
      a.coalesced = resp.coalesced;
      a.prob = resp.prob;
      a.neighbors = std::move(resp.neighbors);
      out.latency_ms[base + i] =
          std::chrono::duration<double, std::milli>(Clock::now() - sent[i])
              .count();
      inflight.pop_front();
    };
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (inflight.size() == kOutstanding) collect();
      sent[i] = Clock::now();
      inflight.emplace_back(i, server->Submit(ToRequest(c, reqs[i])));
      out.submit_s += SecondsSince(sent[i]);
    }
    while (!inflight.empty()) collect();
    out.round_s.push_back(SecondsSince(t0));
    out.wall_s += out.round_s.back();
    out.reqs.insert(out.reqs.end(), reqs.begin(), reqs.end());
  }
  out.final_live = static_cast<long long>(state.live.size());
  out.replaces = state.replaces;
  return out;
}

// Dense mirror of the live corpus (swap-remove), for brute force and for
// resolving a returned id to its current row.
struct Shadow {
  int dim = 0;
  std::vector<float> rows;
  std::vector<int> ids;
  std::unordered_map<int, size_t> pos;
  void Put(int id, const float* row) {
    auto it = pos.find(id);
    if (it == pos.end()) {
      pos[id] = ids.size();
      ids.push_back(id);
      rows.insert(rows.end(), row, row + dim);
    } else {
      std::copy(row, row + dim, rows.begin() + it->second * dim);
    }
  }
  void Erase(int id) {
    const size_t p = pos[id];
    const size_t last = ids.size() - 1;
    std::copy(rows.begin() + last * dim, rows.begin() + (last + 1) * dim,
              rows.begin() + p * dim);
    ids[p] = ids[last];
    pos[ids[p]] = p;
    ids.pop_back();
    rows.resize(last * dim);
    pos.erase(id);
  }
  const float* Row(int id) const {
    auto it = pos.find(id);
    return it == pos.end() ? nullptr : rows.data() + it->second * dim;
  }
};

// Records only the first failure of a check over a long stream.
struct FirstError {
  Result* r;
  bool seen = false;
  void operator()(const std::string& err) {
    if (!err.empty() && !seen) {
      r->Fail(err);
      seen = true;
    }
  }
};

// Checks every served answer against a shadow of the corpus, walking the
// stream in submission order: a query may return only ids live at that
// point, each sim must match the item's current embedding (so a row left
// stale by a replace fails), and every 32nd query is re-answered by a
// double-precision brute-force scan of the shadow. Each match prob must
// equal a single-pair PredictProba bitwise. Returns the sampled recall.
double CheckStream(Corpus* c, const Served& served, Result* r) {
  const int dim = c->encoder->dim();
  Shadow shadow;
  shadow.dim = dim;
  std::vector<std::vector<int>> batch(c->rows.begin(),
                                      c->rows.begin() + kPreload);
  std::vector<float> emb(static_cast<size_t>(kPreload) * dim);
  c->encoder->EncodeNormalizedInto(batch, emb.data());
  for (int i = 0; i < kPreload; ++i) {
    shadow.Put(i, emb.data() + static_cast<size_t>(i) * dim);
  }
  // Embeddings of every query / upsert row, in stream order.
  batch.clear();
  for (const Op& q : served.reqs) {
    if (q.row >= 0) batch.push_back(c->rows[static_cast<size_t>(q.row)]);
  }
  emb.resize(batch.size() * static_cast<size_t>(dim));
  if (!batch.empty()) c->encoder->EncodeNormalizedInto(batch, emb.data());

  const checks::RowLookup lookup = [&](int id) { return shadow.Row(id); };
  FirstError answer{r}, match{r};
  size_t slot = 0;
  int64_t n_query = 0, brute = 0;
  double recall = 0.0;
  for (size_t i = 0; i < served.reqs.size(); ++i) {
    const Op& q = served.reqs[i];
    const Answer& got = served.resps[i];
    switch (q.kind) {
      case sv::RequestKind::kQuery: {
        const float* qrow = emb.data() + slot++ * dim;
        answer(checks::NeighborList(
            got.neighbors,
            std::min<int>(kTopK, static_cast<int>(shadow.ids.size())), qrow,
            dim, lookup, kSimTol, "serve query " + std::to_string(i)));
        if (n_query++ % kBruteEvery == 0) {
          recall += checks::RecallAgainst(
              got.neighbors,
              checks::BruteForceTopK(qrow, shadow.rows.data(),
                                     shadow.ids.data(),
                                     static_cast<int>(shadow.ids.size()), dim,
                                     kTopK));
          ++brute;
        }
        break;
      }
      case sv::RequestKind::kUpsert:
        shadow.Put(q.item_id, emb.data() + slot++ * dim);
        break;
      case sv::RequestKind::kDelete:
        shadow.Erase(q.item_id);
        break;
      case sv::RequestKind::kMatch:
        match(checks::SameProbs(
            {got.prob},
            c->matcher->PredictProba({c->pairs[static_cast<size_t>(q.pair)]}),
            "serve match vs single-pair call"));
        break;
      default:
        r->Fail("serve: unexpected request kind");
    }
  }
  recall = brute > 0 ? recall / static_cast<double>(brute) : 1.0;
  if (recall < kRecallFloor) {
    r->Fail("serve: recall against the brute-force shadow is " +
            std::to_string(recall) + ", below the floor");
  }
  return recall;
}

// Per-layer timings of the serial replay.
struct ReplayTimes {
  double encode_s = 0.0, query_s = 0.0, upsert_s = 0.0, remove_s = 0.0,
         match_s = 0.0, build_s = 0.0;
  int64_t flushes = 0, encode_rows = 0, queries = 0, upserts = 0,
          removes = 0, matches = 0;
  double layer_s() const {
    return encode_s + query_s + upsert_s + remove_s + match_s;
  }
};

// Replays the served stream serially, flush by flush (each response's
// `coalesced` gives its flush size), on a fresh index preloaded like the
// served one, timing each layer call. Every served query answer and match
// prob must equal the replay's bitwise.
ReplayTimes Replay(Corpus* c, const Served& served, Tracer* tracer,
                   Result* r) {
  ReplayTimes t;
  const int dim = c->encoder->dim();
  ix::EmbeddingCache cache(kCacheEntries);
  c->encoder->set_embedding_cache(&cache);
  ix::LiveBlockingIndex live(dim, ix::BlockingIndexOptions(), &cache);
  t.build_s = Preload(c, &live, tracer);
  std::vector<float> rows;
  std::vector<std::vector<int>> encode_batch;
  std::vector<sudowoodo::matcher::PairExample> pairs;
  std::vector<Neighbor> want;
  FirstError same{r}, status{r};
  const size_t n = served.reqs.size();
  for (size_t begin = 0; begin < n;) {
    const int flush = std::max(1, served.resps[begin].coalesced);
    const size_t end = std::min(n, begin + static_cast<size_t>(flush));
    Tracer::Scope flush_span(tracer, "serving", "flush");
    ++t.flushes;
    encode_batch.clear();
    pairs.clear();
    for (size_t i = begin; i < end; ++i) {
      const Op& q = served.reqs[i];
      if (q.row >= 0) {
        encode_batch.push_back(c->rows[static_cast<size_t>(q.row)]);
      }
      if (q.pair >= 0) pairs.push_back(c->pairs[static_cast<size_t>(q.pair)]);
    }
    if (!encode_batch.empty()) {
      rows.resize(encode_batch.size() * static_cast<size_t>(dim));
      Tracer::Scope span(tracer, "nn", "encode_flush");
      const auto t0 = Clock::now();
      c->encoder->EncodeNormalizedInto(encode_batch, rows.data());
      t.encode_s += SecondsSince(t0);
      t.encode_rows += static_cast<int64_t>(encode_batch.size());
    }
    size_t row_slot = 0;
    const int index_span = tracer->Begin("index", "flush_ops");
    for (size_t i = begin; i < end; ++i) {
      const Op& q = served.reqs[i];
      if (q.kind == sv::RequestKind::kQuery) {
        const float* qrow = rows.data() + row_slot++ * dim;
        const auto t0 = Clock::now();
        status(live.Query(qrow, dim, kTopK, &want).ok()
                   ? ""
                   : "serve: replay query failed");
        t.query_s += SecondsSince(t0);
        ++t.queries;
        same(checks::SameNeighbors({served.resps[i].neighbors}, {want},
                                   "serve query vs serial replay"));
      } else if (q.kind == sv::RequestKind::kUpsert) {
        ix::LiveItem item;
        item.item_id = q.item_id;
        item.token_key = c->rows[static_cast<size_t>(q.row)];
        const float* urow = rows.data() + row_slot++ * dim;
        const auto t0 = Clock::now();
        status(live.Upsert(&item, urow, 1, dim).ok()
                   ? ""
                   : "serve: replay upsert failed");
        t.upsert_s += SecondsSince(t0);
        ++t.upserts;
      } else if (q.kind == sv::RequestKind::kDelete) {
        const auto t0 = Clock::now();
        status(live.Remove(&q.item_id, 1).ok() ? ""
                                               : "serve: replay delete failed");
        t.remove_s += SecondsSince(t0);
        ++t.removes;
      }
    }
    tracer->End(index_span);
    if (!pairs.empty()) {
      Tracer::Scope span(tracer, "matcher", "predict");
      const auto t0 = Clock::now();
      const std::vector<float> probs = c->matcher->PredictProba(pairs);
      t.match_s += SecondsSince(t0);
      t.matches += static_cast<int64_t>(pairs.size());
      size_t slot = 0;
      for (size_t i = begin; i < end; ++i) {
        if (served.reqs[i].kind != sv::RequestKind::kMatch) continue;
        same(checks::SameProbs({served.resps[i].prob}, {probs[slot++]},
                               "serve match vs serial flush"));
      }
    }
    begin = end;
  }
  c->encoder->set_embedding_cache(nullptr);
  return t;
}

}  // namespace

Result RunServeMixed(const RunConfig& cfg, Tracer* tracer) {
  Result r;
  Corpus c = Setup(cfg.seed, tracer);
  // The matcher head is left untrained: a match costs the same whatever
  // its weights, and the checks compare it with itself. Made here, where
  // `c` lives, because it keeps a pointer to the vocabulary.
  c.matcher = std::make_unique<sudowoodo::matcher::PairMatcher>(
      c.encoder.get(), &c.vocab, sudowoodo::matcher::FinetuneOptions());
  const int dim = c.encoder->dim();
  ix::EmbeddingCache cache(kCacheEntries);
  c.encoder->set_embedding_cache(&cache);
  ix::LiveBlockingIndex live(dim, ix::BlockingIndexOptions(), &cache);
  Tracer off(false);
  Preload(&c, &live, &off);
  const ix::EmbeddingCacheStats cache_before = cache.stats();
  const double setup_s = SecondsSince(ProcessStart());

  sv::ServerOptions so;
  so.max_batch = kMaxBatch;
  so.max_wait_us = 500;
  so.live_index = &live;
  Served served;
  sv::ServerStats stats;
  {
    sv::Server server({{c.encoder.get(), c.matcher.get()}}, so);
    served = Serve(c, cfg, &server, tracer);
    server.Shutdown();
    stats = server.stats();
  }
  const double rss_mb = PeakRssMb();
  const ix::EmbeddingCacheStats cache_after = cache.stats();
  c.encoder->set_embedding_cache(nullptr);

  // Client-side counts of OK responses, against the program's own stats.
  int64_t ok_upserts = 0, ok_deletes = 0;
  std::vector<double> lat_by_kind[6];
  for (size_t i = 0; i < served.reqs.size(); ++i) {
    if (!served.resps[i].ok) {
      ++r.failed;
      continue;
    }
    const sv::RequestKind kind = served.reqs[i].kind;
    ok_upserts += kind == sv::RequestKind::kUpsert;
    ok_deletes += kind == sv::RequestKind::kDelete;
    lat_by_kind[static_cast<int>(kind)].push_back(served.latency_ms[i]);
  }
  r.attempted = static_cast<int64_t>(served.reqs.size());
  if (r.failed > 0) {
    r.Fail("serve: " + std::to_string(r.failed) + " requests failed");
  }
  const ix::LiveIndexStats ls = live.stats();
  r.Check(checks::SameCount(static_cast<long long>(ls.upserts),
                            kPreload + ok_upserts, "serve upserts"));
  r.Check(checks::SameCount(static_cast<long long>(ls.removes), ok_deletes,
                            "serve removes"));
  r.Check(checks::SameCount(static_cast<long long>(ls.replacements),
                            served.replaces, "serve replacements"));
  r.Check(checks::SameCount(live.size(), served.final_live,
                            "serve final size"));
  r.Check(checks::SameCount(static_cast<long long>(stats.completed),
                            r.attempted, "serve completed"));

  const double recall = CheckStream(&c, served, &r);

  const double qps = static_cast<double>(r.attempted) / served.wall_s;
  const uint64_t lookups = (cache_after.hits - cache_before.hits) +
                           (cache_after.misses - cache_before.misses);
  const char* kind_name[6] = {"encode", "match", "clean",
                              "query",  "upsert", "delete"};
  auto add_serving_details = [&] {
    r.Detail("serve_qps", qps, "1/s");
    r.Detail("serve_p50_ms", Median(served.latency_ms), "ms");
    r.Detail("serve_p99_ms", Quantile(served.latency_ms, 0.99), "ms");
    for (int k = 0; k < 6; ++k) {
      if (lat_by_kind[k].empty()) continue;
      r.Detail(std::string("serving.p50_ms.") + kind_name[k],
               Median(lat_by_kind[k]), "ms");
    }
    r.Detail("serving.flushes", static_cast<double>(stats.batches), "count");
    r.Detail("serving.mean_flush_size",
             stats.batches > 0 ? static_cast<double>(stats.coalesced) /
                                     static_cast<double>(stats.batches)
                               : 0.0,
             "count");
    r.Detail("serving.submit_block_us",
             served.submit_s * 1e6 / static_cast<double>(r.attempted), "us");
    r.Detail("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(cache_after.hits -
                                               cache_before.hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio");
    r.Detail("index.retrains", static_cast<double>(ls.retrains), "count");
    r.Detail("index.live_items", static_cast<double>(ls.live_items), "count");
    r.Detail("round_s.median", Median(served.round_s), "s");
    r.Detail("rounds", static_cast<double>(served.round_s.size()), "count");
  };

  if (!cfg.trace) {
    r.Add("setup_s", setup_s, "s");
    r.Add("round_s", Quantile(served.round_s, kRoundQuantile), "s");
    r.Add("quality", recall, "ratio");
    r.Add("peak_rss_mb", rss_mb, "MB");
    add_serving_details();
    return r;
  }

  // Traced: the serial replay of the served stream, timing each layer.
  const auto t0 = Clock::now();
  const ReplayTimes t = Replay(&c, served, tracer, &r);
  const double replay_s = SecondsSince(t0);
  const auto per_us = [](double sec, int64_t n) {
    return n > 0 ? sec * 1e6 / static_cast<double>(n) : 0.0;
  };
  r.Add("contrastive.pretrain_s", c.pretrain_s, "s");
  r.Add("nn.encode_s", t.encode_s, "s");
  r.Add("nn.encode_rows_per_s",
        static_cast<double>(t.encode_rows) / t.encode_s, "1/s");
  r.Add("index.build_s", t.build_s, "s");
  r.Add("index.query_s", t.query_s, "s");
  r.Add("index.queries_per_s", static_cast<double>(t.queries) / t.query_s,
        "1/s");
  r.Add("index.bytes_resident", static_cast<double>(ls.index_bytes_resident),
        "bytes");
  r.Add("index.recall_vs_bruteforce_at_10", recall, "ratio");
  r.Add("matcher.predict_us", per_us(t.match_s, t.matches), "us");
  add_serving_details();
  r.Detail("nn.encode_flush_us", per_us(t.encode_s, t.flushes), "us");
  r.Detail("index.live_query_us", per_us(t.query_s, t.queries), "us");
  r.Detail("index.live_upsert_us", per_us(t.upsert_s, t.upserts), "us");
  r.Detail("index.live_remove_us", per_us(t.remove_s, t.removes), "us");
  r.Detail("serving.overhead_s", served.wall_s - t.layer_s(), "s");
  const std::pair<const char*, double> parts[] = {
      {"encode", t.encode_s}, {"query", t.query_s}, {"upsert", t.upsert_s},
      {"remove", t.remove_s}, {"match", t.match_s}};
  for (const auto& [kind, sec] : parts) {
    r.Detail(std::string("serving.layer_share.") + kind, sec / t.layer_s(),
             "ratio");
  }
  r.Detail("replay_s", replay_s, "s");
  AddGemmLayerMetrics(tracer, &r);
  AddTraceMetrics(*tracer, &r);
  return r;
}

}  // namespace perfbench

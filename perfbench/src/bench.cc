#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "contrastive/pretrainer.h"
#include "pipeline/em_pipeline.h"
#include "tensor/kernels.h"

namespace perfbench {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void PrintResult(Result* r) {
  for (const Metric& m : r->metrics) {
    if (!std::isfinite(m.value)) r->Fail("non-finite metric " + m.name);
  }
  for (const Metric& m : r->details) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : r->errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string metrics;
  for (const Metric& m : r->metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               (std::isfinite(m.value) ? JsonNumber(m.value) : "null") +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      r->correct() ? "true" : "false", static_cast<long long>(r->attempted),
      static_cast<long long>(r->failed), metrics.c_str());
  std::fflush(stdout);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

int Tracer::Begin(const std::string& layer, const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = SecondsSince(t0_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_s = SecondsSince(t0_);
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Annotate(int span, const std::string& key, double value) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].notes.emplace_back(key, value);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child[i];
  }
  return self;
}

double Tracer::OverheadSeconds() const {
  // Median of 9 batches of 1000 Begin/End pairs, nested one deep like
  // most recorded spans.
  std::vector<double> per_pair;
  for (int rep = 0; rep < 9; ++rep) {
    Tracer scratch(true);
    scratch.spans_.reserve(1001);
    const int outer = scratch.Begin("bench", "outer");
    const auto t0 = Clock::now();
    for (int i = 0; i < 1000; ++i) scratch.End(scratch.Begin("bench", "pair"));
    per_pair.push_back(SecondsSince(t0) / 1000.0);
    scratch.End(outer);
  }
  return Median(per_pair) * static_cast<double>(spans_.size());
}

bool Tracer::WriteJson(const std::string& path,
                       const std::vector<Metric>& details) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string notes;
    for (const auto& [k, v] : s.notes) {
      if (!notes.empty()) notes += ", ";
      notes += JsonString(k) + ": " + JsonNumber(v);
    }
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %d, \"layer\": %s, \"name\": "
                 "%s, \"start_s\": %s, \"end_s\": %s, \"notes\": {%s}}%s\n",
                 i, s.parent, JsonString(s.layer).c_str(),
                 JsonString(s.name).c_str(), JsonNumber(s.start_s).c_str(),
                 JsonNumber(s.end_s).c_str(), notes.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_s\": {");
  bool first = true;
  for (const auto& [layer, sec] : SelfSeconds()) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(layer).c_str(),
                 JsonNumber(sec).c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"details\": {");
  first = true;
  for (const Metric& m : details) {
    std::fprintf(f, "%s%s: {\"value\": %s, \"unit\": %s}", first ? "" : ", ",
                 JsonString(m.name).c_str(),
                 std::isfinite(m.value) ? JsonNumber(m.value).c_str() : "null",
                 JsonString(m.unit).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

std::vector<std::vector<std::string>> SerializeTable(
    const sudowoodo::data::Table& table) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < table.num_rows(); ++i) {
    rows.push_back(sudowoodo::pipeline::EmPipeline::SerializeRow(table, i));
  }
  return rows;
}

PretrainedEncoder PretrainEncoder(
    const std::vector<std::vector<std::string>>& corpus, int threads,
    Tracer* tracer, const std::string& span) {
  namespace pl = sudowoodo::pipeline;
  const pl::EmPipelineOptions o;
  PretrainedEncoder out;
  out.vocab = sudowoodo::text::Vocab::Build(corpus, o.vocab_size);
  out.encoder = pl::MakeEncoder(o.encoder_kind, out.vocab.size(),
                                o.encoder_dim, o.max_len, o.seed, nullptr,
                                threads);
  Tracer::Scope scope(tracer, "contrastive", span);
  const auto t0 = Clock::now();
  sudowoodo::contrastive::PretrainOptions popts = o.pretrain;
  popts.num_threads = threads;
  sudowoodo::contrastive::Pretrainer pre(out.encoder.get(), &out.vocab, popts);
  SUDO_CHECK_OK(pre.Run(corpus));
  out.pretrain_s = SecondsSince(t0);
  return out;
}

void AddGemmLayerMetrics(Tracer* tracer, Result* r) {
  namespace ks = sudowoodo::tensor::kernels;
  // FastBag at encoder_dim 64: the MLP is 4*dim=256 -> hidden 128 -> 64.
  // fwd = an inference bucket through fc1, bwd_x / bwd_w = the fc1
  // input- and weight-gradient GEMMs of a 64-row training batch, score =
  // one 32-query index panel over 4096 rows.
  struct Shape {
    const char* name;
    int kind;  // 0 Gemm, 1 GemmBT, 2 GemmAT
    int m, n, k;
  };
  const Shape shapes[] = {{"fwd_256x128x256", 0, 256, 128, 256},
                          {"bwd_x_64x256x128", 1, 64, 256, 128},
                          {"bwd_w_256x128x64", 2, 256, 128, 64},
                          {"score_32x4096x64", 1, 32, 4096, 64}};
  sudowoodo::Rng rng(12345);
  for (const Shape& s : shapes) {
    Tracer::Scope span(tracer, "tensor", std::string("gemm.") + s.name);
    // Operand sizes cover all three layouts (A is m*k or k*m, B k*n or n*k).
    std::vector<float> a(static_cast<size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<size_t>(s.m) * s.n);
    for (float& x : a) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
    for (int threads : {1, 2}) {
      sudowoodo::ThreadPool* pool =
          threads > 1 ? &sudowoodo::ThreadPool::Global() : nullptr;
      auto call = [&] {
        if (s.kind == 0) {
          ks::Gemm(s.m, s.n, s.k, a.data(), b.data(), c.data(), pool, threads);
        } else if (s.kind == 1) {
          ks::GemmBT(s.m, s.n, s.k, a.data(), b.data(), c.data(), pool,
                     threads);
        } else {
          ks::GemmAT(s.m, s.n, s.k, a.data(), b.data(), c.data(), pool,
                     threads);
        }
      };
      call();  // warm caches and packing scratch
      // Median of 9 timed batches of 20 calls each.
      std::vector<double> rates;
      for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < 20; ++i) call();
        const double sec = SecondsSince(t0);
        rates.push_back(20.0 * 2.0 * s.m * s.n * s.k / sec / 1e9);
      }
      r->Add(std::string("tensor.gemm_gflops.") + s.name + ".t" +
                 std::to_string(threads),
             Median(rates), "GFLOP/s");
    }
  }
}

void AddTraceMetrics(const Tracer& tracer, Result* r) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  for (const char* layer :
       {"tensor", "contrastive", "nn", "index", "matcher"}) {
    const auto it = self.find(layer);
    if (it == self.end()) {
      r->Fail(std::string("traced run recorded no span of layer ") + layer);
    }
    r->Add(std::string("self_s.") + layer, it == self.end() ? 0.0 : it->second,
           "s");
  }
  for (const auto& [layer, sec] : self) {
    r->Detail("self_s." + layer, sec, "s");
  }
  r->Add("trace.overhead_s", tracer.OverheadSeconds(), "s");
  r->Detail("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench

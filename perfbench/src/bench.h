// Shared plumbing of the end-to-end benchmark: run configuration, the
// result line, bench-side tracing, and small statistics helpers.
//
// Spans are recorded only from this directory's code, around calls into
// the library's public functions; the library itself is not instrumented.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/table.h"
#include "nn/encoder.h"
#include "text/vocab.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Process start as seen by main(); set-up time is measured from here.
Clock::time_point ProcessStart();

double SecondsSince(Clock::time_point t0);

/// Peak resident set of this process so far (getrusage), in MiB.
double PeakRssMb();

/// Deterministic 64-bit mix of a run seed and a stream tag, so every
/// generated input is a function of --seed alone.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

double Median(std::vector<double> v);

/// What a run reports as `round_s`: the 10th percentile of its rounds.
/// Other tenants of the host only ever slow a round, in episodes of
/// seconds, so a low percentile follows the program's own cost where the
/// median follows the host's. The median is printed as a detail.
constexpr double kRoundQuantile = 0.1;
/// Linear-interpolated quantile q in [0, 1] of an unsorted sample.
double Quantile(std::vector<double> v, double q);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome. `errors` holds every failed check;
/// `correct` is false as soon as one is recorded. `details` are extra
/// per-layer figures printed as a table above the result line and kept
/// in the trace file, not in the result line's metric set.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::string> errors;

  bool correct() const { return errors.empty(); }
  void Fail(const std::string& what) { errors.push_back(what); }
  /// Records `err` when it is non-empty (the checks return "" on success).
  void Check(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

/// Records a non-finite metric as a failed check, then prints the detail
/// table and the errors, then the result line (one JSON object) as the
/// last line of stdout.
void PrintResult(Result* r);

/// Bench-side span recorder. Disabled, every call is a no-op, so the
/// untraced runs pay nothing. Spans are kept in memory and written out
/// once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span of `layer` (a src/ module name) nested in the innermost
  /// open span; returns its handle (-1 when disabled).
  int Begin(const std::string& layer, const std::string& name);
  void End(int span);
  /// Records a number on an open or closed span (e.g. a program-reported
  /// stage time, labelled as such by its key).
  void Annotate(int span, const std::string& key, double value);

  /// Per layer: summed span time minus the part covered by child spans.
  std::map<std::string, double> SelfSeconds() const;
  /// What recording these spans cost: their count times the median cost
  /// of one Begin/End pair, timed on a scratch tracer.
  double OverheadSeconds() const;
  size_t size() const { return spans_.size(); }

  /// Writes {"spans": [...], "self_s": {...}, "details": {...}}.
  bool WriteJson(const std::string& path,
                 const std::vector<Metric>& details) const;

  class Scope {
   public:
    Scope(Tracer* t, const std::string& layer, const std::string& name)
        : t_(t), id_(t->Begin(layer, name)) {}
    ~Scope() { t_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* t_;
    int id_;
  };

 private:
  struct Span {
    std::string layer;
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> notes;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Token rows of a table under the EM pipeline's serialization.
std::vector<std::vector<std::string>> SerializeTable(
    const sudowoodo::data::Table& table);

/// The EM pipeline's default encoder set up over `corpus`: vocabulary,
/// FastBag encoder and one pre-training run, traced as a `contrastive`
/// span named `span`. `threads` is its training and inference thread
/// count.
struct PretrainedEncoder {
  sudowoodo::text::Vocab vocab;
  std::unique_ptr<sudowoodo::nn::Encoder> encoder;
  double pretrain_s = 0.0;
};
PretrainedEncoder PretrainEncoder(
    const std::vector<std::vector<std::string>>& corpus, int threads,
    Tracer* tracer, const std::string& span);

/// Workload entry points (one process runs one workload).
Result RunPaperTasks(const RunConfig& cfg, Tracer* tracer);
Result RunBlockCorpus(const RunConfig& cfg, Tracer* tracer);
Result RunServeMixed(const RunConfig& cfg, Tracer* tracer);

/// The layer metrics every traced run reports, whatever its workload:
/// GEMM throughput at the shapes the FastBag pipelines run, at one and
/// two threads (the `tensor` layer).
void AddGemmLayerMetrics(Tracer* tracer, Result* r);

/// Adds the self time of the layers every traced run covers (tensor,
/// contrastive, nn, index, matcher) and the tracing overhead; the shared
/// tail of every traced run. A missing layer is a failed check.
void AddTraceMetrics(const Tracer& tracer, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

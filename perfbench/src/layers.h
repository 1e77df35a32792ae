// Outside-in layer timing for the benchmark: decorators installed through
// the library's public seams (AddDatabase, SetEstimator, SetProbingPolicy)
// that forward every call unchanged and add its wall time and work counts
// to a shared LayerSink. Nothing here reaches into the library's internals.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/hidden_web_database.h"
#include "core/probing.h"

namespace perfbench {

/// \brief Monotonic nanoseconds (steady_clock), the harness's one timebase.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Blocks until NowNs() >= deadline_ns: sleeps to within 2 ms of it
/// and spins the rest, so the host's wake-up jitter (often milliseconds on
/// a busy VM) does not add to a simulated wait.
void WaitUntil(std::uint64_t deadline_ns);

/// \brief What the decorators count, one slot each.
enum Field : std::size_t {
  kEstimatorCalls,
  kEstimatorNs,
  kPolicyCalls,
  kPolicyNs,
  kPolicyAtoms,  ///< Σ SupportOf(i).size() over unprobed i, per SelectDb.
  kProbeCalls,
  kProbeNs,
  kProbeFailed,
  kSearchCalls,
  kSearchNs,
  kBlocksDecoded,  ///< index::IndexCounters deltas around each Search.
  kWandBlocksSkipped,
  kSimdIntersections,
  kNumFields,
};

using LayerTotals = std::array<std::uint64_t, kNumFields>;

/// \brief Element-wise `after - before`.
LayerTotals Delta(const LayerTotals& after, const LayerTotals& before);

/// \brief Thread-safe accumulator the decorators share. Server workers run
/// concurrently through one installed policy and estimator, so every slot
/// is a relaxed atomic; readers take whole snapshots and diff them.
class LayerSink {
 public:
  void Add(Field field, std::uint64_t n) {
    slots_[field].fetch_add(n, std::memory_order_relaxed);
  }
  LayerTotals Snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumFields> slots_{};
};

/// \brief Times every Estimate call of the wrapped estimator.
class TimedEstimator : public metaprobe::core::RelevancyEstimator {
 public:
  TimedEstimator(std::unique_ptr<metaprobe::core::RelevancyEstimator> inner,
                 LayerSink* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::string name() const override { return inner_->name(); }
  double Estimate(const metaprobe::core::StatSummary& summary,
                  const metaprobe::core::Query& query) const override;

 private:
  std::unique_ptr<metaprobe::core::RelevancyEstimator> inner_;
  LayerSink* sink_;
};

/// \brief Times every SelectDb of the wrapped policy and counts the
/// candidate atoms it faces. Clones wrap the inner policy's clone and share
/// the sink.
class TimedPolicy : public metaprobe::core::ProbingPolicy {
 public:
  TimedPolicy(std::unique_ptr<metaprobe::core::ProbingPolicy> inner,
              LayerSink* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::string name() const override { return inner_->name(); }
  std::size_t SelectDb(metaprobe::core::TopKModel* model,
                       const std::vector<bool>& probed,
                       const metaprobe::core::ProbingContext& context) override;
  std::unique_ptr<metaprobe::core::ProbingPolicy> Clone() const override {
    return std::make_unique<TimedPolicy>(inner_->Clone(), sink_);
  }

 private:
  std::unique_ptr<metaprobe::core::ProbingPolicy> inner_;
  LayerSink* sink_;
};

/// \brief The result lists one Search call handed back, in call order:
/// `dbs[j]` is the database id behind `lists[j]`.
struct SearchLog {
  std::vector<std::size_t> dbs;
  std::vector<std::vector<metaprobe::core::SearchHit>> lists;
};

/// \brief Points the calling thread's database shims at `log` for the
/// scope's lifetime, so a caller can see which databases one
/// Metasearcher::Search dispatched to and what they returned.
class ScopedSearchLog {
 public:
  explicit ScopedSearchLog(SearchLog* log);
  ~ScopedSearchLog();

  ScopedSearchLog(const ScopedSearchLog&) = delete;
  ScopedSearchLog& operator=(const ScopedSearchLog&) = delete;

 private:
  SearchLog* previous_;
};

/// \brief Stands in for a remote hidden-web database: forwards every call
/// to the wrapped one, optionally waiting per CountMatches (the simulated
/// round trip) and, with a sink, timing CountMatches and Search. ProbeBatch
/// is forwarded as a batch, so training keeps the wrapped database's fused
/// path and learns exactly what it learns over the raw database.
class DbShim : public metaprobe::core::HiddenWebDatabase {
 public:
  /// \param id the database's registration index (reported in SearchLog)
  /// \param sink null for an untimed shim
  DbShim(std::shared_ptr<metaprobe::core::HiddenWebDatabase> inner,
         std::size_t id, LayerSink* sink)
      : inner_(std::move(inner)), id_(id), sink_(sink) {}

  /// \brief Wait this long per CountMatches from now on (0 = none).
  void set_probe_latency(std::chrono::microseconds latency) {
    latency_us_.store(latency.count(), std::memory_order_relaxed);
  }

  const std::string& name() const override { return inner_->name(); }
  std::uint32_t size() const override { return inner_->size(); }
  metaprobe::Result<std::uint64_t> CountMatches(
      const metaprobe::core::Query& query) const override;
  metaprobe::Result<std::vector<metaprobe::core::SearchHit>> Search(
      const metaprobe::core::Query& query, std::size_t k) const override;
  using HiddenWebDatabase::ProbeBatch;
  metaprobe::Result<std::vector<double>> ProbeBatch(
      const std::vector<const metaprobe::core::Query*>& queries,
      metaprobe::core::RelevancyDefinition definition,
      const metaprobe::core::Deadline& deadline) const override {
    return inner_->ProbeBatch(queries, definition, deadline);
  }
  std::uint64_t queries_served() const override {
    return inner_->queries_served();
  }

 private:
  std::shared_ptr<metaprobe::core::HiddenWebDatabase> inner_;
  std::size_t id_;
  LayerSink* sink_;
  std::atomic<std::chrono::microseconds::rep> latency_us_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

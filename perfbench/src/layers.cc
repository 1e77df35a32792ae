#include "layers.h"

#include <thread>

#include "index/index_metrics.h"

namespace perfbench {

namespace core = metaprobe::core;
using metaprobe::index::IndexCounters;

void WaitUntil(std::uint64_t deadline_ns) {
  constexpr std::uint64_t kSpinNs = 2'000'000;
  if (deadline_ns > NowNs() + kSpinNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns - kSpinNs)));
  }
  while (NowNs() < deadline_ns) {
  }
}

LayerTotals Delta(const LayerTotals& after, const LayerTotals& before) {
  LayerTotals delta{};
  for (std::size_t i = 0; i < kNumFields; ++i) delta[i] = after[i] - before[i];
  return delta;
}

LayerTotals LayerSink::Snapshot() const {
  LayerTotals totals{};
  for (std::size_t i = 0; i < kNumFields; ++i) {
    totals[i] = slots_[i].load(std::memory_order_relaxed);
  }
  return totals;
}

double TimedEstimator::Estimate(const core::StatSummary& summary,
                                const core::Query& query) const {
  const std::uint64_t start = NowNs();
  const double estimate = inner_->Estimate(summary, query);
  sink_->Add(kEstimatorNs, NowNs() - start);
  sink_->Add(kEstimatorCalls, 1);
  return estimate;
}

std::size_t TimedPolicy::SelectDb(core::TopKModel* model,
                                  const std::vector<bool>& probed,
                                  const core::ProbingContext& context) {
  // Counted before delegating: the policy conditions on these atoms.
  std::uint64_t atoms = 0;
  for (std::size_t i = 0; i < probed.size(); ++i) {
    if (!probed[i]) atoms += model->SupportOf(i).size();
  }
  const std::uint64_t start = NowNs();
  const std::size_t choice = inner_->SelectDb(model, probed, context);
  sink_->Add(kPolicyNs, NowNs() - start);
  sink_->Add(kPolicyCalls, 1);
  sink_->Add(kPolicyAtoms, atoms);
  return choice;
}

namespace {
thread_local SearchLog* current_search_log = nullptr;
}  // namespace

ScopedSearchLog::ScopedSearchLog(SearchLog* log)
    : previous_(current_search_log) {
  current_search_log = log;
}

ScopedSearchLog::~ScopedSearchLog() { current_search_log = previous_; }

metaprobe::Result<std::uint64_t> DbShim::CountMatches(
    const core::Query& query) const {
  const std::uint64_t start = NowNs();
  const auto latency_us = latency_us_.load(std::memory_order_relaxed);
  if (latency_us > 0) {
    WaitUntil(start + static_cast<std::uint64_t>(latency_us) * 1000);
  }
  metaprobe::Result<std::uint64_t> count = inner_->CountMatches(query);
  if (sink_ != nullptr) {
    sink_->Add(kProbeNs, NowNs() - start);
    sink_->Add(kProbeCalls, 1);
    if (!count.ok()) sink_->Add(kProbeFailed, 1);
  }
  return count;
}

metaprobe::Result<std::vector<core::SearchHit>> DbShim::Search(
    const core::Query& query, std::size_t k) const {
  metaprobe::Result<std::vector<core::SearchHit>> hits = [&] {
    if (sink_ == nullptr) return inner_->Search(query, k);
    // The index counters are process-wide; the deltas belong to this call
    // only while one thread searches at a time, which the closed-loop
    // workloads guarantee (the serving workload never calls Search).
    const auto load = [](const std::atomic<std::uint64_t>& counter) {
      return counter.load(std::memory_order_relaxed);
    };
    const std::uint64_t decoded = load(IndexCounters::blocks_decoded);
    const std::uint64_t wand = load(IndexCounters::wand_blocks_skipped);
    const std::uint64_t simd = load(IndexCounters::simd_intersections);
    const std::uint64_t start = NowNs();
    auto result = inner_->Search(query, k);
    sink_->Add(kSearchNs, NowNs() - start);
    sink_->Add(kSearchCalls, 1);
    sink_->Add(kBlocksDecoded, load(IndexCounters::blocks_decoded) - decoded);
    sink_->Add(kWandBlocksSkipped,
               load(IndexCounters::wand_blocks_skipped) - wand);
    sink_->Add(kSimdIntersections,
               load(IndexCounters::simd_intersections) - simd);
    return result;
  }();
  if (current_search_log != nullptr && hits.ok()) {
    current_search_log->dbs.push_back(id_);
    current_search_log->lists.push_back(*hits);
  }
  return hits;
}

}  // namespace perfbench

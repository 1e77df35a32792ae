#include "checks.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

namespace core = metaprobe::core;

namespace {

constexpr std::size_t kMaxMessages = 8;

bool DistinctBelow(const std::vector<std::size_t>& ids, std::size_t bound) {
  std::vector<std::size_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         (sorted.empty() || sorted.back() < bound);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void Mix(std::uint64_t* hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xff;
    *hash *= kFnvPrime;
  }
}

}  // namespace

void Checker::Fail(std::string message) {
  ++failures_;
  if (messages_.size() < kMaxMessages) messages_.push_back(std::move(message));
}

void CheckSelection(const core::SelectionReport& report, int k,
                    double threshold, std::size_t num_databases,
                    bool has_deadline, Checker* checker) {
  std::ostringstream problems;
  if (report.databases.size() != static_cast<std::size_t>(k) ||
      !DistinctBelow(report.databases, num_databases)) {
    problems << " selection is not " << k << " distinct database ids;";
  }
  const double certainty = report.expected_correctness;
  if (!(certainty >= 0.0 && certainty <= 1.0)) {
    problems << " certainty " << certainty << " outside [0,1];";
  }
  if (!DistinctBelow(report.probe_order, num_databases)) {
    problems << " probe_order repeats or names an unknown database;";
  }
  if (report.reached_threshold != (certainty >= threshold)) {
    problems << " reached_threshold=" << report.reached_threshold
             << " but E[Cor]=" << certainty << " vs t=" << threshold << ";";
  }
  if (report.degraded && !has_deadline) {
    problems << " degraded without a deadline;";
  }
  if (!problems.str().empty()) checker->Fail("select:" + problems.str());
}

void CheckFused(const std::vector<core::FusedHit>& hits, const SearchLog& log,
                int k, std::size_t num_databases, std::size_t max_results,
                const core::Metasearcher& searcher, Checker* checker) {
  std::ostringstream problems;
  if (log.dbs.size() != static_cast<std::size_t>(k) ||
      !DistinctBelow(log.dbs, num_databases)) {
    problems << " results were not fetched from " << k
             << " distinct databases;";
  }
  if (hits.size() > max_results) {
    problems << " " << hits.size() << " hits exceed max_results="
             << max_results << ";";
  }
  for (std::size_t h = 1; h < hits.size(); ++h) {
    if (hits[h].score > hits[h - 1].score) {
      problems << " hit " << h << " scores above its predecessor;";
      break;
    }
  }
  for (const core::FusedHit& hit : hits) {
    // FusedHit::database indexes the fetched lists, in fetch order.
    if (hit.database >= log.dbs.size() ||
        hit.database_name != searcher.database(log.dbs[hit.database]).name()) {
      problems << " hit from " << hit.database_name
               << " is not from a selected database;";
      break;
    }
  }
  if (!problems.str().empty()) checker->Fail("search:" + problems.str());
}

bool SameHits(const std::vector<core::FusedHit>& a,
              const std::vector<core::FusedHit>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::FusedHit& x, const core::FusedHit& y) {
                      return x.database == y.database &&
                             x.database_name == y.database_name &&
                             x.doc == y.doc && x.score == y.score &&
                             x.title == y.title;
                    });
}

void PickDigest::Record(std::size_t position,
                        const std::vector<std::size_t>& selected,
                        const std::vector<std::size_t>& probe_order) {
  if (position >= seen_.size() || seen_[position]) return;
  std::uint64_t hash = kFnvOffset;
  Mix(&hash, selected.size());
  for (std::size_t id : selected) Mix(&hash, id);
  Mix(&hash, probe_order.size());
  for (std::size_t id : probe_order) Mix(&hash, id);
  hashes_[position] = hash;
  seen_[position] = true;
}

std::size_t PickDigest::count() const {
  return static_cast<std::size_t>(
      std::count(seen_.begin(), seen_.end(), true));
}

std::uint64_t PickDigest::value() const {
  std::uint64_t digest = kFnvOffset;
  for (std::size_t p = 0; p < seen_.size(); ++p) {
    if (!seen_[p]) continue;
    Mix(&digest, p);
    Mix(&digest, hashes_[p]);
  }
  return digest;
}

}  // namespace perfbench

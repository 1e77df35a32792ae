// Output checks applied to every answer the benchmark receives, and the
// digest of picks that lets a policy change show bit-identical selections.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/fusion.h"
#include "core/metasearcher.h"
#include "layers.h"

namespace perfbench {

/// \brief Collects check failures; keeps the first few messages.
class Checker {
 public:
  void Fail(std::string message);
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// \brief A Select answer must name k distinct databases, carry a
/// certainty in [0, 1], probe each database at most once, claim the
/// threshold exactly when E[Cor] >= t, and be degraded only when the
/// request had a deadline.
void CheckSelection(const metaprobe::core::SelectionReport& report, int k,
                    double threshold, std::size_t num_databases,
                    bool has_deadline, Checker* checker);

/// \brief A Search answer must have been fetched from k distinct
/// databases (as the shims logged them), hold at most `max_results` hits
/// in descending score order, and take every hit from a fetched database.
void CheckFused(const std::vector<metaprobe::core::FusedHit>& hits,
                const SearchLog& log, int k, std::size_t num_databases,
                std::size_t max_results,
                const metaprobe::core::Metasearcher& searcher,
                Checker* checker);

/// \brief True when two fused lists are identical hit for hit.
bool SameHits(const std::vector<metaprobe::core::FusedHit>& a,
              const std::vector<metaprobe::core::FusedHit>& b);

/// \brief FNV-1a digest of the first pick recorded per trace position:
/// the selected set and the probe order. Equal digests over equal counts
/// mean bit-identical picks.
class PickDigest {
 public:
  explicit PickDigest(std::size_t trace_size)
      : hashes_(trace_size), seen_(trace_size, false) {}

  void Record(std::size_t position, const std::vector<std::size_t>& selected,
              const std::vector<std::size_t>& probe_order);
  std::size_t count() const;
  std::uint64_t value() const;

 private:
  std::vector<std::uint64_t> hashes_;
  std::vector<bool> seen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

// The benchmark's decorators and database shims must be invisible to the
// library: same picks, same trained model, batched training kept batched.
// And its output checks must catch the defects they name.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/metasearcher.h"
#include "core/relevancy_definition.h"
#include "eval/testbed.h"
#include "index/index_metrics.h"
#include "layers.h"

namespace perfbench {
namespace {

namespace core = metaprobe::core;
namespace eval = metaprobe::eval;

class TransparencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::TestbedOptions options;
    options.seed = 7;
    options.train_queries_per_term_count = 120;
    options.test_queries_per_term_count = 40;
    auto testbed = eval::BuildHealthTestbed(options);
    ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
    testbed_ = new eval::Testbed(std::move(testbed).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  // Over the raw databases, or over shims with every decorator installed.
  static std::unique_ptr<core::Metasearcher> Build(LayerSink* sink) {
    auto searcher = std::make_unique<core::Metasearcher>();
    for (std::size_t i = 0; i < testbed_->databases.size(); ++i) {
      std::shared_ptr<core::HiddenWebDatabase> db = testbed_->databases[i];
      if (sink != nullptr) db = std::make_shared<DbShim>(db, i, sink);
      EXPECT_TRUE(searcher->AddDatabase(db, testbed_->summaries[i]).ok());
    }
    if (sink != nullptr) {
      EXPECT_TRUE(searcher
                      ->SetEstimator(std::make_unique<TimedEstimator>(
                          std::make_unique<core::TermIndependenceEstimator>(),
                          sink))
                      .ok());
      searcher->SetProbingPolicy(std::make_unique<TimedPolicy>(
          std::make_unique<core::StoppingProbabilityPolicy>(), sink));
    }
    EXPECT_TRUE(searcher->Train(testbed_->train_queries).ok());
    return searcher;
  }

  static std::uint64_t SelectDigest(
      const std::vector<core::SelectionReport>& reports) {
    PickDigest digest(reports.size());
    for (std::size_t q = 0; q < reports.size(); ++q) {
      digest.Record(q, reports[q].databases, reports[q].probe_order);
    }
    EXPECT_EQ(digest.count(), reports.size());
    return digest.value();
  }

  static eval::Testbed* testbed_;
};

eval::Testbed* TransparencyTest::testbed_ = nullptr;

TEST_F(TransparencyTest, DecoratorsLeavePicksBitIdentical) {
  LayerSink sink;
  const auto plain = Build(nullptr);
  const auto decorated = Build(&sink);
  const std::vector<core::Query>& queries = testbed_->test_queries;

  std::vector<core::SelectionReport> plain_reports;
  std::vector<core::SelectionReport> decorated_reports;
  for (const core::Query& query : queries) {
    auto a = plain->Select(query, 3, 0.99);
    auto b = decorated->Select(query, 3, 0.99);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->expected_correctness, b->expected_correctness);
    plain_reports.push_back(*a);
    decorated_reports.push_back(*b);
  }
  EXPECT_EQ(SelectDigest(plain_reports), SelectDigest(decorated_reports));
  const LayerTotals totals = sink.Snapshot();
  EXPECT_GT(totals[kPolicyCalls], 0u);
  EXPECT_GT(totals[kProbeCalls], 0u);
  EXPECT_GT(totals[kEstimatorCalls], 0u);

  for (const core::Query& query : queries) {
    auto a = plain->Search(query, 3, 0.0, 10, 10);
    SearchLog log;
    ScopedSearchLog scope(&log);
    auto b = decorated->Search(query, 3, 0.0, 10, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(SameHits(*a, *b));
    EXPECT_EQ(log.dbs.size(), 3u);
  }
}

TEST_F(TransparencyTest, PolicyClonesShareTheSink) {
  LayerSink sink;
  const auto plain = Build(nullptr);
  const auto decorated = Build(&sink);
  metaprobe::ThreadPool pool(2);
  auto a = plain->SelectBatch(testbed_->test_queries, 3, 0.99, &pool);
  const LayerTotals before = sink.Snapshot();
  auto b = decorated->SelectBatch(testbed_->test_queries, 3, 0.99, &pool);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SelectDigest(*a), SelectDigest(*b));
  std::uint64_t probes = 0;
  for (const core::SelectionReport& report : *b) {
    probes += report.probe_order.size();
  }
  const LayerTotals delta = Delta(sink.Snapshot(), before);
  EXPECT_EQ(delta[kProbeCalls], probes);
  EXPECT_GE(delta[kPolicyCalls], probes);
}

TEST_F(TransparencyTest, TrainedModelBytesMatchThroughTheShim) {
  LayerSink sink;
  std::ostringstream plain_bytes;
  std::ostringstream shim_bytes;
  ASSERT_TRUE(Build(nullptr)->SaveTrainedModel(plain_bytes).ok());
  // Shims only: a decorated estimator cannot be saved, by design.
  auto searcher = std::make_unique<core::Metasearcher>();
  for (std::size_t i = 0; i < testbed_->databases.size(); ++i) {
    ASSERT_TRUE(searcher
                    ->AddDatabase(std::make_shared<DbShim>(
                                      testbed_->databases[i], i, &sink),
                                  testbed_->summaries[i])
                    .ok());
  }
  ASSERT_TRUE(searcher->Train(testbed_->train_queries).ok());
  ASSERT_TRUE(searcher->SaveTrainedModel(shim_bytes).ok());
  EXPECT_EQ(plain_bytes.str(), shim_bytes.str());
  // Training went through the batched path, not per-probe CountMatches.
  EXPECT_EQ(sink.Snapshot()[kProbeCalls], 0u);
}

TEST_F(TransparencyTest, ShimForwardsProbeBatch) {
  DbShim shim(testbed_->databases[0], 0, nullptr);
  const auto& calls = metaprobe::index::IndexCounters::batch_probe_calls;
  const std::uint64_t before = calls.load();
  auto counts = shim.ProbeBatch(testbed_->test_queries,
                                core::RelevancyDefinition::kDocumentFrequency);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(calls.load() - before, 1u);
  auto direct = testbed_->databases[0]->ProbeBatch(
      testbed_->test_queries, core::RelevancyDefinition::kDocumentFrequency);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*counts, *direct);
}

TEST_F(TransparencyTest, CheckFusedCatchesEachSearchDefect) {
  LayerSink sink;
  const auto searcher = Build(&sink);
  SearchLog log;
  std::vector<core::FusedHit> hits;
  for (const core::Query& query : testbed_->test_queries) {
    log = SearchLog();
    ScopedSearchLog scope(&log);
    auto result = searcher->Search(query, 3, 0.0, 10, 10);
    ASSERT_TRUE(result.ok());
    hits = *result;
    if (hits.size() >= 2 && hits.front().score > hits.back().score) break;
  }
  ASSERT_GE(hits.size(), 2u);
  const auto failures = [&](const std::vector<core::FusedHit>& h,
                            const SearchLog& l, std::size_t max_results) {
    Checker checker;
    CheckFused(h, l, 3, searcher->num_databases(), max_results, *searcher,
               &checker);
    return checker.failures();
  };
  EXPECT_EQ(failures(hits, log, 10), 0u);
  EXPECT_EQ(failures(hits, log, hits.size() - 1), 1u);
  std::vector<core::FusedHit> reversed(hits.rbegin(), hits.rend());
  EXPECT_EQ(failures(reversed, log, 10), 1u);
  std::vector<core::FusedHit> foreign = hits;
  foreign.front().database_name = "not-a-selected-database";
  EXPECT_EQ(failures(foreign, log, 10), 1u);
  SearchLog short_log = log;
  short_log.dbs.pop_back();
  short_log.lists.pop_back();
  EXPECT_GE(failures(hits, short_log, 10), 1u);
}

core::SelectionReport GoodReport() {
  core::SelectionReport report;
  report.databases = {1, 4, 7};
  report.expected_correctness = 0.995;
  report.reached_threshold = true;
  report.probe_order = {4, 2};
  return report;
}

TEST(ChecksTest, CatchesEachSelectionDefect) {
  const auto failures = [](const core::SelectionReport& report,
                           bool has_deadline) {
    Checker checker;
    CheckSelection(report, 3, 0.99, 20, has_deadline, &checker);
    return checker.failures();
  };
  EXPECT_EQ(failures(GoodReport(), false), 0u);

  core::SelectionReport report = GoodReport();
  report.databases = {1, 1, 7};
  EXPECT_EQ(failures(report, false), 1u);
  report = GoodReport();
  report.databases = {1, 4};
  EXPECT_EQ(failures(report, false), 1u);
  report = GoodReport();
  report.expected_correctness = 1.5;
  EXPECT_EQ(failures(report, false), 1u);
  report = GoodReport();
  report.probe_order = {4, 4};
  EXPECT_EQ(failures(report, false), 1u);
  report = GoodReport();
  report.reached_threshold = false;
  EXPECT_EQ(failures(report, false), 1u);
  report = GoodReport();
  report.degraded = true;
  EXPECT_EQ(failures(report, false), 1u);
  EXPECT_EQ(failures(report, true), 0u);
}

TEST(ChecksTest, DigestSeesProbeOrder) {
  PickDigest a(2);
  PickDigest b(2);
  a.Record(0, {1, 2, 3}, {2, 5});
  b.Record(0, {1, 2, 3}, {5, 2});
  EXPECT_NE(a.value(), b.value());
  b = PickDigest(2);
  b.Record(0, {1, 2, 3}, {2, 5});
  b.Record(0, {9, 9, 9}, {});  // only the first pick per position counts
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace perfbench

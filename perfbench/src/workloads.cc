#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <utility>

#include "checks.h"
#include "common/macros.h"
#include "core/metasearcher.h"
#include "eval/golden.h"
#include "eval/testbed.h"
#include "layers.h"
#include "obs/metric_registry.h"
#include "run_stats.h"
#include "serving/metasearch_server.h"
#include "stats/random.h"

namespace perfbench {
namespace {

namespace core = metaprobe::core;
namespace eval = metaprobe::eval;
namespace serving = metaprobe::serving;
using metaprobe::Result;
using metaprobe::Status;

// The workloads (README.md says why each value was chosen).
constexpr int kK = 3;
constexpr double kSelectThreshold = 0.99;  // select-cpu and serve-remote
constexpr double kSearchThreshold = 0.0;   // search-rd: RD-based, no probes
constexpr std::size_t kPerDatabase = 10;
constexpr std::size_t kMaxResults = 10;
constexpr double kArrivalQps = 25.0;  // ~40% of the 4-worker capacity
constexpr int kServeWorkers = 4;
constexpr std::chrono::microseconds kProbeLatency{10000};
constexpr double kDeadlineMs = 250.0;  // serve-remote deadline and SLO limit
// The world is fixed; --seed draws the inputs (query trace, arrivals). A
// seeded world moves every metric by tens of percent between seeds.
constexpr std::uint64_t kWorldSeed = 42;
constexpr std::size_t kTrainPerTermCount = 500;
constexpr std::size_t kPoolPerTermCount = 2000;  // test queries to draw from
constexpr std::size_t kTracePerTermCount = 500;
constexpr int kSetupRepetitions = 3;
constexpr std::size_t kWarmupQueries = 20;
// The traced run fails when the layers leave more than this share of the
// request time unexplained.
constexpr double kMaxUnattributedPct = 5.0;

enum class Kind { kSelectCpu, kSearchRd, kServeRemote };

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A trained metasearcher over shims of the testbed's databases. With a
// sink, the estimator and policy decorators are installed (before Train,
// as SetEstimator requires) and the shims time their calls.
struct Searcher {
  std::vector<std::shared_ptr<DbShim>> shims;
  std::unique_ptr<core::Metasearcher> searcher;

  void SetProbeLatency(std::chrono::microseconds latency) {
    for (const auto& shim : shims) shim->set_probe_latency(latency);
  }
};

Result<Searcher> BuildSearcher(const eval::Testbed& testbed, LayerSink* sink) {
  Searcher built;
  built.searcher = std::make_unique<core::Metasearcher>();
  for (std::size_t i = 0; i < testbed.databases.size(); ++i) {
    auto shim = std::make_shared<DbShim>(testbed.databases[i], i, sink);
    RETURN_NOT_OK(built.searcher->AddDatabase(shim, testbed.summaries[i]));
    built.shims.push_back(std::move(shim));
  }
  if (sink != nullptr) {
    RETURN_NOT_OK(built.searcher->SetEstimator(std::make_unique<TimedEstimator>(
        std::make_unique<core::TermIndependenceEstimator>(), sink)));
    built.searcher->SetProbingPolicy(std::make_unique<TimedPolicy>(
        std::make_unique<core::StoppingProbabilityPolicy>(), sink));
  }
  RETURN_NOT_OK(built.searcher->Train(testbed.train_queries));
  return built;
}

struct World {
  std::unique_ptr<eval::Testbed> testbed;
  Searcher plain;  // no decorators: what the end-to-end metrics measure
  std::vector<core::Query> trace;
  std::vector<std::vector<std::size_t>> golden_topk;  // per trace position
  // Medians over the set-up repetitions.
  double setup_s = 0.0;
  double testbed_s = 0.0;
  double train_s = 0.0;
};

// Set-up is eval::BuildHealthTestbed plus Metasearcher::Train, repeated
// kSetupRepetitions times for a steady median; the last one is kept and
// --seed draws the query trace from its test-query pool.
Result<World> SetUp(std::uint64_t seed) {
  eval::TestbedOptions options;
  options.scale = 1;
  options.seed = kWorldSeed;
  options.train_queries_per_term_count = kTrainPerTermCount;
  options.test_queries_per_term_count = kPoolPerTermCount;
  World world;
  std::vector<double> totals, testbeds, trains;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    // Release the previous set-up first, so peak RSS reflects one.
    world.plain = Searcher();
    world.testbed.reset();
    const std::uint64_t start = NowNs();
    ASSIGN_OR_RETURN(eval::Testbed testbed, eval::BuildHealthTestbed(options));
    const double testbed_s = Seconds(NowNs() - start);
    world.testbed = std::make_unique<eval::Testbed>(std::move(testbed));
    // Registering 20 databases is microseconds; this times Train.
    const std::uint64_t train_start = NowNs();
    ASSIGN_OR_RETURN(world.plain, BuildSearcher(*world.testbed, nullptr));
    const double train_s = Seconds(NowNs() - train_start);
    testbeds.push_back(testbed_s);
    trains.push_back(train_s);
    totals.push_back(testbed_s + train_s);
  }
  world.setup_s = Quantile(totals, 0.5);
  world.testbed_s = Quantile(testbeds, 0.5);
  world.train_s = Quantile(trains, 0.5);

  // The trace: kTracePerTermCount pool queries of each keyword count, in
  // a seeded order so that any prefix mixes 2- and 3-term queries.
  std::vector<core::Query> pool = world.testbed->test_queries;
  metaprobe::stats::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  rng.Shuffle(&pool);
  std::map<std::size_t, std::size_t> drawn;  // per keyword count
  for (core::Query& query : pool) {
    if (drawn[query.num_terms()]++ < kTracePerTermCount) {
      world.trace.push_back(std::move(query));
    }
  }
  ASSIGN_OR_RETURN(eval::GoldenStandard golden,
                   eval::GoldenStandard::Build(world.testbed->database_ptrs(),
                                               world.trace));
  for (std::size_t q = 0; q < world.trace.size(); ++q) {
    world.golden_topk.push_back(golden.TopK(q, kK));
  }
  return world;
}

// One closed-loop answer as the checks and the digest see it.
struct Call {
  bool ok = false;
  metaprobe::Status status;
  std::uint64_t ns = 0;  // wall time of the library call alone
  std::vector<std::size_t> selected;  // ascending
  core::SelectionReport report;       // Select
  std::vector<core::FusedHit> hits;   // Search
  SearchLog log;                      // Search: what the shims returned
};

Call Invoke(Kind kind, const core::Metasearcher& searcher,
            const core::Query& query) {
  Call call;
  if (kind == Kind::kSearchRd) {
    ScopedSearchLog scope(&call.log);
    const std::uint64_t start = NowNs();
    auto result = searcher.Search(query, kK, kSearchThreshold, kPerDatabase,
                                  kMaxResults);
    call.ns = NowNs() - start;
    call.ok = result.ok();
    if (!call.ok) {
      call.status = result.status();
      return call;
    }
    call.hits = std::move(result).ValueOrDie();
    call.selected = call.log.dbs;
    std::sort(call.selected.begin(), call.selected.end());
  } else {
    const std::uint64_t start = NowNs();
    auto result = searcher.Select(query, kK, kSelectThreshold);
    call.ns = NowNs() - start;
    call.ok = result.ok();
    if (!call.ok) {
      call.status = result.status();
      return call;
    }
    call.report = std::move(result).ValueOrDie();
    call.selected = call.report.databases;
  }
  return call;
}

void CheckCall(Kind kind, const Call& call, const core::Metasearcher& searcher,
               Checker* checker) {
  if (!call.ok) return;  // counted as failed, not as a wrong answer
  if (kind == Kind::kSearchRd) {
    CheckFused(call.hits, call.log, kK, searcher.num_databases(), kMaxResults,
               searcher, checker);
  } else {
    CheckSelection(call.report, kK, kSelectThreshold, searcher.num_databases(),
                   /*has_deadline=*/false, checker);
  }
}

bool SameAnswer(const Call& a, const Call& b) {
  return a.ok == b.ok && a.selected == b.selected &&
         a.report.probe_order == b.report.probe_order &&
         a.report.expected_correctness == b.report.expected_correctness &&
         SameHits(a.hits, b.hits);
}

// End-to-end tallies; latencies are of answered requests only (failures
// and refusals count against slo_ok_frac and failed instead).
struct Tally {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::uint64_t golden_sets = 0;
  std::uint64_t probes = 0;
  std::uint64_t within_slo = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }

  void AddAnswer(double latency_ms_value, const std::vector<std::size_t>& set,
                 const std::vector<std::size_t>& golden, std::size_t n_probes,
                 bool degraded) {
    latency_ms.push_back(latency_ms_value);
    ++answered;
    if (set == golden) ++golden_sets;
    probes += n_probes;
    if (!degraded && latency_ms_value <= kDeadlineMs) ++within_slo;
  }
};

void AddEndToEnd(const Tally& tally, double throughput_qps, const World& world,
                 RunReport* report) {
  const auto attempted = static_cast<double>(tally.attempted);
  const auto answered = static_cast<double>(tally.answered);
  report->attempted = tally.attempted;
  report->failed = tally.failed;
  report->first_error = tally.first_error;
  report->metrics = {
      {"latency_p50_ms", Quantile(tally.latency_ms, 0.50), "ms"},
      {"latency_p98_ms", Quantile(tally.latency_ms, 0.98), "ms"},
      {"throughput_qps", throughput_qps, "req/s"},
      {"slo_ok_frac", Ratio(static_cast<double>(tally.within_slo), attempted),
       "share"},
      {"cor_a", Ratio(static_cast<double>(tally.golden_sets), answered),
       "share"},
      {"setup_s", world.setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  report->notes = {
      {"requests", answered, "count"},
      {"failed_frac", Ratio(static_cast<double>(tally.failed), attempted),
       "share"},
      {"probes_per_query", Ratio(static_cast<double>(tally.probes), answered),
       "probes"},
  };
  // p99 has ten samples beyond it from 1000 requests on (the closed loops;
  // serve-remote sends fewer per run, so p98 is the shared tail metric).
  if (tally.latency_ms.size() >= 1000) {
    report->notes.insert(report->notes.begin(),
                         {"latency_p99_ms", Quantile(tally.latency_ms, 0.99),
                          "ms"});
  }
}

// --- Traced runs -----------------------------------------------------------

// The kernel-cache events a metasearcher's registry counts.
class KernelEvents {
 public:
  explicit KernelEvents(const core::Metasearcher& searcher) {
    const char* kEvents[] = {"full_rebuild", "row_repair", "fast_restore",
                             "dp_fallback"};
    for (std::size_t e = 0; e < counters_.size(); ++e) {
      counters_[e] = searcher.metrics().GetCounter(
          "metaprobe_kernel_cache_events_total",
          std::string("event=\"") + kEvents[e] + "\"");
    }
  }

  std::array<std::uint64_t, 4> Read() const {
    std::array<std::uint64_t, 4> values{};
    for (std::size_t e = 0; e < counters_.size(); ++e) {
      values[e] = counters_[e]->Value();
    }
    return values;
  }

 private:
  std::array<metaprobe::obs::Counter*, 4> counters_{};
};

// What a traced run measured over the decorated searcher's requests.
struct Attribution {
  std::uint64_t requests = 0;
  std::uint64_t service_ns = 0;  // Σ Select/Search time (worker time when
                                 // served: total minus queue wait)
  std::vector<double> service_ms;
  LayerTotals inside{};  // decorator totals inside those requests
  std::array<std::uint64_t, 4> kernel_events{};
  // Direct calls on the same queries, made outside the timed requests.
  std::uint64_t direct_calls = 0;
  std::uint64_t model_ns = 0;
  std::uint64_t model_estimator_ns = 0;  // estimator time inside BuildModel
  std::uint64_t best_set_ns = 0;
  std::uint64_t best_set_rounds_ns = 0;  // Σ rounds × that query's search
  std::uint64_t fusion_ns = 0;

  void AddInside(const LayerTotals& delta) {
    for (std::size_t f = 0; f < kNumFields; ++f) inside[f] += delta[f];
  }
  void AddKernelEvents(const std::array<std::uint64_t, 4>& after,
                       const std::array<std::uint64_t, 4>& before) {
    for (std::size_t e = 0; e < after.size(); ++e) {
      kernel_events[e] += after[e] - before[e];
    }
  }
};

// Times what no decorator sees, by direct calls on the request's query:
// BuildModel (its estimator calls belong to the estimator layer and are
// subtracted), one cold FindBestSet on the fresh model, charged once per
// APro round (the loop searches before the first probe and after each),
// and for Search the fusion of the lists the shims returned, whose output
// must equal the Search answer.
Status TimeDirect(const core::Metasearcher& searcher, const LayerSink& sink,
                  const core::Query& query, std::size_t rounds,
                  const Call* search_call, Attribution* attribution,
                  Checker* checker) {
  const LayerTotals before = sink.Snapshot();
  const std::uint64_t build_start = NowNs();
  ASSIGN_OR_RETURN(core::TopKModel model, searcher.BuildModel(query));
  const std::uint64_t build_ns = NowNs() - build_start;
  attribution->model_estimator_ns +=
      Delta(sink.Snapshot(), before)[kEstimatorNs];
  attribution->model_ns += build_ns;

  const std::uint64_t search_start = NowNs();
  const core::TopKModel::BestSet best = model.FindBestSet(
      kK, searcher.options().metric, searcher.options().search_width);
  const std::uint64_t search_ns = NowNs() - search_start;
  if (best.members.size() != static_cast<std::size_t>(kK)) {
    checker->Fail("direct FindBestSet returned a set of the wrong size");
  }
  ++attribution->direct_calls;
  attribution->best_set_ns += search_ns;
  attribution->best_set_rounds_ns += rounds * search_ns;

  if (search_call != nullptr) {
    const std::vector<double> estimates = searcher.EstimateAll(query);
    core::FusionOptions fusion = searcher.options().fusion;
    fusion.database_weights.clear();
    std::vector<std::string> names;
    for (std::size_t db : search_call->log.dbs) {
      names.push_back(searcher.database(db).name());
      fusion.database_weights.push_back(estimates[db]);
    }
    const std::uint64_t fuse_start = NowNs();
    const std::vector<core::FusedHit> fused =
        core::FuseResults(search_call->log.lists, names, kMaxResults, fusion);
    attribution->fusion_ns += NowNs() - fuse_start;
    if (!SameHits(fused, search_call->hits)) {
      checker->Fail("FuseResults over the shims' lists differs from Search");
    }
  }
  return Status::OK();
}

// Serving-layer observations of a traced open loop.
struct ServingLayer {
  std::vector<double> queue_ms;
  std::vector<double> submit_us;
  std::uint64_t refused = 0;
  std::uint64_t degraded = 0;
  std::uint64_t answered = 0;
  double busy_frac = 0.0;
};

void AddLayerMetrics(const Attribution& a, const ServingLayer& serving,
                     const World& world, double overhead_pct,
                     RunReport* report, Checker* checker) {
  const LayerTotals& in = a.inside;
  const auto get = [&in](Field field) {
    return static_cast<double>(in[field]);
  };
  const auto requests = static_cast<double>(a.requests);
  const auto direct = static_cast<double>(a.direct_calls);
  const auto service_ns = static_cast<double>(a.service_ns);
  const double model_self_ns = static_cast<double>(a.model_ns) -
                               static_cast<double>(a.model_estimator_ns);
  const double attributed =
      get(kEstimatorNs) + model_self_ns +
      static_cast<double>(a.best_set_rounds_ns) + get(kPolicyNs) +
      get(kProbeNs) + get(kSearchNs) + static_cast<double>(a.fusion_ns);
  const double unattributed_ns = service_ns - attributed;
  const double unattributed_pct = 100.0 * Ratio(unattributed_ns, service_ns);
  const auto kernel = [&](std::size_t e) {
    return Ratio(static_cast<double>(a.kernel_events[e]), requests);
  };
  report->metrics = {
      {"serving.queue_wait_ms_p50", Quantile(serving.queue_ms, 0.50), "ms"},
      {"serving.queue_wait_ms_p99", Quantile(serving.queue_ms, 0.99), "ms"},
      {"serving.submit_us_p99", Quantile(serving.submit_us, 0.99), "us"},
      {"serving.refused", static_cast<double>(serving.refused), "count"},
      {"serving.degraded_frac",
       Ratio(static_cast<double>(serving.degraded),
             static_cast<double>(serving.answered)),
       "share"},
      {"serving.worker_busy_frac", serving.busy_frac, "share"},
      {"metasearcher.select_ms_p50", Quantile(a.service_ms, 0.50), "ms"},
      {"metasearcher.self_ms_per_query",
       Ratio(unattributed_ns, requests) * 1e-6, "ms"},
      {"estimator.calls_per_query", Ratio(get(kEstimatorCalls), requests),
       "calls"},
      {"estimator.us_per_query", Ratio(get(kEstimatorNs), requests) * 1e-3,
       "us"},
      {"model.build_us_per_query",
       Ratio(static_cast<double>(a.model_ns), direct) * 1e-3, "us"},
      {"correctness.best_set_us_per_call",
       Ratio(static_cast<double>(a.best_set_ns), direct) * 1e-3, "us"},
      {"correctness.kernel_full_rebuilds_per_query", kernel(0), "events"},
      {"correctness.kernel_row_repairs_per_query", kernel(1), "events"},
      {"correctness.kernel_fast_restores_per_query", kernel(2), "events"},
      {"correctness.kernel_dp_fallbacks_per_query", kernel(3), "events"},
      {"probing.policy_calls_per_query", Ratio(get(kPolicyCalls), requests),
       "calls"},
      {"probing.policy_us_per_call",
       Ratio(get(kPolicyNs), get(kPolicyCalls)) * 1e-3, "us"},
      {"probing.policy_share", Ratio(get(kPolicyNs), service_ns), "share"},
      {"probing.candidate_atoms_per_call",
       Ratio(get(kPolicyAtoms), get(kPolicyCalls)), "atoms"},
      {"probe.calls_per_query", Ratio(get(kProbeCalls), requests), "calls"},
      {"probe.us_per_call", Ratio(get(kProbeNs), get(kProbeCalls)) * 1e-3,
       "us"},
      {"probe.wait_ms_per_query", Ratio(get(kProbeNs), requests) * 1e-6, "ms"},
      {"probe.failed", get(kProbeFailed), "count"},
      {"index.search_calls_per_query", Ratio(get(kSearchCalls), requests),
       "calls"},
      {"index.search_us_per_call",
       Ratio(get(kSearchNs), get(kSearchCalls)) * 1e-3, "us"},
      {"index.blocks_decoded_per_call",
       Ratio(get(kBlocksDecoded), get(kSearchCalls)), "blocks"},
      {"index.wand_blocks_skipped_per_call",
       Ratio(get(kWandBlocksSkipped), get(kSearchCalls)), "blocks"},
      {"index.simd_intersections_per_call",
       Ratio(get(kSimdIntersections), get(kSearchCalls)), "calls"},
      {"fusion.us_per_query",
       Ratio(static_cast<double>(a.fusion_ns), requests) * 1e-3, "us"},
      {"setup.testbed_s", world.testbed_s, "s"},
      {"setup.train_s", world.train_s, "s"},
      {"loadgen.late_ms_p99", report->late_ms_p99, "ms"},
      {"loadgen.late_ms_max", report->late_ms_max, "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.unattributed_pct", unattributed_pct, "%"},
  };
  if (a.requests == 0) {
    checker->Fail("trace: no request was answered");
  } else if (std::abs(unattributed_pct) > kMaxUnattributedPct) {
    checker->Fail("trace: the layers leave " +
                  std::to_string(unattributed_pct) +
                  "% of request time unattributed (limit " +
                  std::to_string(kMaxUnattributedPct) + "%)");
  }
}

// --- Closed loops: select-cpu and search-rd --------------------------------

void WarmUp(Kind kind, const core::Metasearcher& searcher, const World& world) {
  const std::size_t n = std::min(kWarmupQueries, world.trace.size());
  for (std::size_t q = 0; q < n; ++q) Invoke(kind, searcher, world.trace[q]);
}

void Finish(const Checker& checker, const PickDigest& picks,
            RunReport* report) {
  report->check_failures = checker.failures();
  report->check_messages = checker.messages();
  report->digest = picks.value();
  report->digest_picks = picks.count();
}

// One caller thread, next request as soon as the previous one returns.
RunReport RunClosedLoop(Kind kind, const World& world, double seconds) {
  const core::Metasearcher& searcher = *world.plain.searcher;
  const std::size_t n = world.trace.size();
  WarmUp(kind, searcher, world);
  Checker checker;
  PickDigest picks(n);
  Tally tally;
  const std::uint64_t start = NowNs();
  const std::uint64_t stop = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; NowNs() < stop; ++i) {
    const std::size_t pos = i % n;
    const Call call = Invoke(kind, searcher, world.trace[pos]);
    ++tally.attempted;
    if (!call.ok) {
      tally.Fail(call.status.ToString());
      continue;
    }
    tally.AddAnswer(Millis(call.ns), call.selected, world.golden_topk[pos],
                    call.report.probe_order.size(), call.report.degraded);
    CheckCall(kind, call, searcher, &checker);
    picks.Record(pos, call.selected, call.report.probe_order);
  }
  const double elapsed_s = Seconds(NowNs() - start);
  RunReport report;
  AddEndToEnd(tally, static_cast<double>(tally.answered) / elapsed_s, world,
              &report);
  Finish(checker, picks, &report);
  return report;
}

// Every trace query goes to the plain and the decorated searcher in turn
// (alternating which goes first, so neither always finds the other's warm
// caches): the answers must agree, the plain latencies give the tracing
// overhead, and the decorated call is attributed layer by layer.
Result<RunReport> RunClosedLoopTraced(Kind kind, const World& world,
                                      double seconds) {
  LayerSink sink;
  ASSIGN_OR_RETURN(Searcher traced, BuildSearcher(*world.testbed, &sink));
  const core::Metasearcher& plain = *world.plain.searcher;
  const core::Metasearcher& decorated = *traced.searcher;
  WarmUp(kind, plain, world);
  WarmUp(kind, decorated, world);
  const KernelEvents kernel(decorated);
  const std::size_t n = world.trace.size();
  Checker checker;
  PickDigest picks(n);
  Attribution attribution;
  std::vector<double> plain_ms;
  RunReport report;
  const std::uint64_t stop =
      NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; NowNs() < stop; ++i) {
    const std::size_t pos = i % n;
    const core::Query& query = world.trace[pos];
    Call plain_call;
    Call traced_call;
    const auto run_traced = [&] {
      const LayerTotals before = sink.Snapshot();
      const auto events_before = kernel.Read();
      traced_call = Invoke(kind, decorated, query);
      attribution.AddInside(Delta(sink.Snapshot(), before));
      attribution.AddKernelEvents(kernel.Read(), events_before);
    };
    if (i % 2 == 0) {
      plain_call = Invoke(kind, plain, query);
      run_traced();
    } else {
      run_traced();
      plain_call = Invoke(kind, plain, query);
    }
    report.attempted += 2;
    if (!plain_call.ok || !traced_call.ok) {
      report.failed += (plain_call.ok ? 0 : 1) + (traced_call.ok ? 0 : 1);
      report.first_error =
          (plain_call.ok ? traced_call : plain_call).status.ToString();
      continue;
    }
    CheckCall(kind, plain_call, plain, &checker);
    CheckCall(kind, traced_call, decorated, &checker);
    if (!SameAnswer(plain_call, traced_call)) {
      checker.Fail("the decorated searcher answered differently");
    }
    picks.Record(pos, plain_call.selected, plain_call.report.probe_order);
    plain_ms.push_back(Millis(plain_call.ns));
    ++attribution.requests;
    attribution.service_ns += traced_call.ns;
    attribution.service_ms.push_back(Millis(traced_call.ns));
    RETURN_NOT_OK(TimeDirect(
        decorated, sink, query, traced_call.report.probe_order.size() + 1,
        kind == Kind::kSearchRd ? &traced_call : nullptr, &attribution,
        &checker));
  }
  const double overhead_pct =
      100.0 * (Ratio(Quantile(attribution.service_ms, 0.5),
                     Quantile(plain_ms, 0.5)) -
               1.0);
  AddLayerMetrics(attribution, ServingLayer(), world, overhead_pct, &report,
                  &checker);
  Finish(checker, picks, &report);
  return report;
}

// --- Open loop: serve-remote -----------------------------------------------

// Arrival offsets of a seeded Poisson process at kArrivalQps over
// [0, seconds), conditioned on its expected count: given the count,
// Poisson arrival times are independent and uniform, and fixing the count
// keeps the offered load the same for every seed.
std::vector<double> PoissonArrivals(std::uint64_t seed, double seconds) {
  metaprobe::stats::Rng rng(seed * 6364136223846793005ULL +
                            1442695040888963407ULL);
  std::vector<double> due(
      static_cast<std::size_t>(std::lround(kArrivalQps * seconds)));
  for (double& t : due) t = rng.Uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

struct OpenLoopRun {
  Tally tally;  // latency counted from each request's scheduled send time
  ServingLayer serving;
  std::vector<double> late_ms;  // actual Submit vs due time
  std::uint64_t service_ns = 0;
  std::vector<double> service_ms;
  // (trace position, APro rounds) per answer, for the direct calls.
  std::vector<std::pair<std::size_t, std::size_t>> served;
  double wall_s = 0.0;  // first due time to last completion
};

// One dispatcher sends at the due times whatever the server is doing;
// responses are collected after the last send.
OpenLoopRun RunOpenLoop(const core::Metasearcher& searcher, const World& world,
                        const std::vector<double>& due_s, Checker* checker,
                        PickDigest* picks) {
  serving::MetasearchServerOptions options;
  options.num_workers =
      std::min(kServeWorkers, static_cast<int>(NumCpus()));
  options.default_k = kK;
  options.default_threshold = kSelectThreshold;
  options.default_deadline_ns = static_cast<std::uint64_t>(kDeadlineMs * 1e6);
  serving::MetasearchServer server(&searcher, options);

  struct InFlight {
    std::size_t pos;
    std::uint64_t due_ns;
    std::uint64_t submitted_ns;
    std::future<serving::ServeResponse> response;
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(due_s.size());
  OpenLoopRun run;
  // Start a little ahead so the workers are parked before the first send.
  const std::uint64_t start = NowNs() + 20'000'000;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const std::size_t pos = i % world.trace.size();
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(due_s[i] * 1e9);
    WaitUntil(due);
    serving::ServeRequest request;
    request.query = world.trace[pos];
    const std::uint64_t before = NowNs();
    serving::Ticket ticket = server.Submit(std::move(request));
    const std::uint64_t after = NowNs();
    run.late_ms.push_back(before > due ? Millis(before - due) : 0.0);
    run.serving.submit_us.push_back(static_cast<double>(after - before) * 1e-3);
    ++run.tally.attempted;
    if (!ticket.accepted()) {
      ++run.serving.refused;
      run.tally.Fail(std::string("refused: ") +
                     serving::AdmitResultName(ticket.admit));
      continue;
    }
    in_flight.push_back({pos, due, after, std::move(ticket.response)});
  }

  std::uint64_t last_done = start;
  for (InFlight& request : in_flight) {
    const serving::ServeResponse response = request.response.get();
    // Counted from the due time; total_seconds starts at enqueue, inside
    // Submit, so this over-counts by at most the tail of one Submit call.
    const double latency_ms = Millis(request.submitted_ns - request.due_ns) +
                              response.total_seconds * 1e3;
    last_done = std::max(
        last_done, request.submitted_ns + static_cast<std::uint64_t>(
                                              response.total_seconds * 1e9));
    if (!response.status.ok()) {
      run.tally.Fail(response.status.ToString());
      continue;
    }
    const core::SelectionReport& report = response.report;
    CheckSelection(report, kK, kSelectThreshold, searcher.num_databases(),
                   /*has_deadline=*/true, checker);
    if (response.degraded != report.degraded) {
      checker->Fail("serve: response.degraded disagrees with its report");
    }
    run.tally.AddAnswer(latency_ms, report.databases,
                        world.golden_topk[request.pos],
                        report.probe_order.size(), response.degraded);
    ++run.serving.answered;
    if (response.degraded) {
      ++run.serving.degraded;
    } else {
      // Degraded picks depend on timing; full answers are deterministic.
      picks->Record(request.pos, report.databases, report.probe_order);
    }
    run.serving.queue_ms.push_back(response.queue_seconds * 1e3);
    const double service_s =
        std::max(0.0, response.total_seconds - response.queue_seconds);
    run.service_ns += static_cast<std::uint64_t>(service_s * 1e9);
    run.service_ms.push_back(service_s * 1e3);
    run.served.emplace_back(request.pos, report.probe_order.size() + 1);
  }
  server.Shutdown();
  run.wall_s = Seconds(last_done - start);
  run.serving.busy_frac =
      Ratio(Seconds(run.service_ns), options.num_workers * run.wall_s);
  return run;
}

Result<RunReport> RunServeRemote(World& world, const RunOptions& options) {
  const std::vector<double> arrivals =
      PoissonArrivals(options.seed, options.seconds);
  const std::size_t n = world.trace.size();
  Checker checker;
  PickDigest picks(n);
  RunReport report;
  // Warm up before the simulated round trip starts; Train ran without it.
  WarmUp(Kind::kServeRemote, *world.plain.searcher, world);
  world.plain.SetProbeLatency(kProbeLatency);

  if (!options.trace) {
    const OpenLoopRun run =
        RunOpenLoop(*world.plain.searcher, world, arrivals, &checker, &picks);
    AddEndToEnd(run.tally,
                Ratio(static_cast<double>(run.tally.answered), run.wall_s),
                world, &report);
    report.late_ms_p99 = Quantile(run.late_ms, 0.99);
    report.late_ms_max = Quantile(run.late_ms, 1.0);
    Finish(checker, picks, &report);
    return report;
  }

  // Traced: the plain searcher, then the decorated one, each serves the
  // same first half of the schedule, so their latencies compare paired.
  LayerSink sink;
  ASSIGN_OR_RETURN(Searcher traced, BuildSearcher(*world.testbed, &sink));
  WarmUp(Kind::kServeRemote, *traced.searcher, world);
  traced.SetProbeLatency(kProbeLatency);
  const std::vector<double> half(
      arrivals.begin(), std::lower_bound(arrivals.begin(), arrivals.end(),
                                         options.seconds / 2.0));
  const OpenLoopRun plain_run =
      RunOpenLoop(*world.plain.searcher, world, half, &checker, &picks);
  const KernelEvents kernel(*traced.searcher);
  const LayerTotals before = sink.Snapshot();
  const auto events_before = kernel.Read();
  const OpenLoopRun traced_run =
      RunOpenLoop(*traced.searcher, world, half, &checker, &picks);
  Attribution attribution;
  attribution.AddInside(Delta(sink.Snapshot(), before));
  attribution.AddKernelEvents(kernel.Read(), events_before);
  attribution.requests = traced_run.tally.answered;
  attribution.service_ns = traced_run.service_ns;
  attribution.service_ms = traced_run.service_ms;
  for (const auto& [pos, rounds] : traced_run.served) {
    RETURN_NOT_OK(TimeDirect(*traced.searcher, sink, world.trace[pos], rounds,
                             nullptr, &attribution, &checker));
  }
  report.attempted = plain_run.tally.attempted + traced_run.tally.attempted;
  report.failed = plain_run.tally.failed + traced_run.tally.failed;
  report.first_error = plain_run.tally.first_error.empty()
                           ? traced_run.tally.first_error
                           : plain_run.tally.first_error;
  std::vector<double> late_ms = plain_run.late_ms;
  late_ms.insert(late_ms.end(), traced_run.late_ms.begin(),
                 traced_run.late_ms.end());
  report.late_ms_p99 = Quantile(late_ms, 0.99);
  report.late_ms_max = Quantile(late_ms, 1.0);
  const double overhead_pct =
      100.0 * (Ratio(Quantile(traced_run.tally.latency_ms, 0.5),
                     Quantile(plain_run.tally.latency_ms, 0.5)) -
               1.0);
  AddLayerMetrics(attribution, traced_run.serving, world, overhead_pct, &report,
                  &checker);
  Finish(checker, picks, &report);
  return report;
}

}  // namespace

Result<RunReport> RunWorkload(const RunOptions& options) {
  Kind kind;
  if (options.workload == "select-cpu") {
    kind = Kind::kSelectCpu;
  } else if (options.workload == "search-rd") {
    kind = Kind::kSearchRd;
  } else if (options.workload == "serve-remote") {
    kind = Kind::kServeRemote;
  } else {
    return Status::InvalidArgument("unknown workload '", options.workload, "'");
  }
  if (!(options.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  ASSIGN_OR_RETURN(World world, SetUp(options.seed));
  if (kind == Kind::kServeRemote) return RunServeRemote(world, options);
  if (options.trace) return RunClosedLoopTraced(kind, world, options.seconds);
  return RunClosedLoop(kind, world, options.seconds);
}

}  // namespace perfbench

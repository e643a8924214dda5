// Confederation benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Repeats whole episodes (set-up, then a fixed number of timed rounds) of
// one workload for about S seconds, checks the outcome, and prints one
// JSON object as its last line of output. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced episodes
// and reports the per-layer ledger. See perfbench/README.md.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/confederation.h"
#include "driver/host.h"
#include "driver/ledger.h"
#include "driver/stats.h"

namespace perfbench {
namespace {

/// Set-up is short and noisy, so it is repeated on its own this many
/// times per run (besides once per episode) and reported as a median.
constexpr int kExtraSetups = 10;
/// p99 needs this many reconciliations (kMinSamplesBeyond beyond it).
constexpr size_t kMinTimedReconciliations = 1000;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      options->trace = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0 &&
         (options->trace == 0 || options->trace == 1);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value);
      out += buf;
      out += "\"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricSink& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  std::fflush(stdout);
}

double Recons(const EpisodeStats& stats) {
  return static_cast<double>(stats.reconciliations());
}

void AddEndToEnd(const EpisodeStats& u, double setup_s, MetricSink* m) {
  m->Add("recons_per_s", u.rate.PerSecond(), "1/s");
  m->Add("recon_time_p50_ms", Median(u.recon_time_ms), "ms");
  m->Add("recon_time_p99_ms", Percentile(u.recon_time_ms, 0.99).value_or(0),
         "ms");
  m->Add("publish_time_p50_ms", Median(u.publish_time_ms), "ms");
  m->Add("msgs_per_recon",
         Ratio(static_cast<double>(u.traffic.messages), Recons(u)), "count");
  m->Add("kb_per_recon",
         Ratio(static_cast<double>(u.traffic.bytes) / 1e3, Recons(u)), "kB");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  m->Add("setup_s", setup_s, "s");
}

void AddPerLayer(const EpisodeStats& t, const EpisodeStats& u, MetricSink* m) {
  const LedgerSummary& l = t.ledger;
  const double recons = Recons(t);
  const double analyzed = static_cast<double>(t.fetched + t.reconsidered);
  const auto per_call_us = [&l](Layer layer) {
    return Ratio(static_cast<double>(l.of(layer).total_ns) / 1e3,
                 static_cast<double>(l.of(layer).count));
  };
  const double episodes = static_cast<double>(t.episodes);

  // participant (core/participant)
  m->Add("participant.local_ms",
         Ratio(static_cast<double>(l.of(Layer::kReconcile).self_ns) / 1e6,
               recons),
         "ms");
  m->Add("participant.local_share",
         Ratio(static_cast<double>(l.of(Layer::kReconcile).self_ns),
               static_cast<double>(l.turn_wall_ns)),
         "ratio");
  // Wall time of whole Reconcile calls, from the untraced twins.
  m->Add("participant.reconcile_wall_p50_ms", Median(u.recon_wall_ms), "ms");
  m->Add("participant.reconcile_wall_p99_ms",
         Percentile(u.recon_wall_ms, 0.99).value_or(0), "ms");
  m->Add("participant.execute_us", per_call_us(Layer::kExecute), "us");
  m->Add("participant.publish_overhead_us",
         Ratio(static_cast<double>(l.of(Layer::kPublish).self_ns) / 1e3,
               static_cast<double>(l.of(Layer::kPublish).count)),
         "us");

  // reconciler (core/reconciler, core/analysis)
  m->Add("reconciler.analyzed_per_recon",
         Ratio(static_cast<double>(t.Counter("reconcile.analyzed_txns")),
               recons),
         "count");
  m->Add("reconciler.reconsidered_share",
         Ratio(static_cast<double>(t.reconsidered), analyzed), "ratio");
  m->Add("reconciler.conflict_pairs_per_recon",
         Ratio(static_cast<double>(t.Counter("reconcile.conflict_pairs")),
               recons),
         "count");
  m->Add("reconciler.decided_share",
         Ratio(static_cast<double>(t.accepted + t.rejected), analyzed),
         "ratio");
  m->Add("reconciler.dilemma_share",
         Ratio(static_cast<double>(t.dilemmas), analyzed), "ratio");
  m->Add("reconciler.apply_failed",
         Ratio(static_cast<double>(t.apply_failed), episodes), "count");

  // store (store/central_store, store/dht_store)
  const double fetches = static_cast<double>(t.store_calls.fetch_calls);
  m->Add("store.fetch_ms", per_call_us(Layer::kStoreFetch) / 1e3, "ms");
  m->Add("store.fetch_sim_ms",
         Ratio(static_cast<double>(t.store_calls.fetch_sim_us) / 1e3, fetches), "ms");
  m->Add("store.fetch_msgs",
         Ratio(static_cast<double>(t.store_calls.fetch_messages), fetches), "count");
  m->Add("store.fetch_kb",
         Ratio(static_cast<double>(t.store_calls.fetch_bytes) / 1e3, fetches), "kB");
  m->Add("store.fetch_txns",
         Ratio(static_cast<double>(t.store_calls.fetch_txns), fetches), "count");
  m->Add("store.fetch_cache_hit_share",
         Ratio(static_cast<double>(t.fetch.cache_hits),
               static_cast<double>(t.fetch.cache_hits + t.fetch.decoded)),
         "ratio");
  m->Add("store.fetch_suppressed",
         Ratio(static_cast<double>(t.fetch.suppressed_lookups), fetches),
         "count");
  m->Add("store.fetch_batched_msgs",
         Ratio(static_cast<double>(t.fetch.batched_messages), fetches),
         "count");
  m->Add("store.publish_us", per_call_us(Layer::kStorePublish), "us");
  m->Add("store.publish_sim_us",
         Ratio(static_cast<double>(t.store_calls.publish_sim_us),
               static_cast<double>(t.store_calls.publish_calls)),
         "us");
  m->Add("store.record_decisions_us",
         per_call_us(Layer::kStoreRecordDecisions), "us");
  m->Add("store.record_provenance_us",
         per_call_us(Layer::kStoreRecordProvenance), "us");
  m->Add("store.cpu_ms",
         Ratio(static_cast<double>(t.traffic.store_cpu_micros) / 1e3, recons),
         "ms");

  // net (net/sim_network, net/dht)
  m->Add("net.sim_ms_per_recon",
         Ratio(static_cast<double>(t.traffic.sim_network_micros) / 1e3,
               recons),
         "ms");
  m->Add("net.msgs_per_recon",
         Ratio(static_cast<double>(t.Counter("net.messages")), recons),
         "count");
  m->Add("net.kb_per_recon",
         Ratio(static_cast<double>(t.Counter("net.bytes")) / 1e3, recons),
         "kB");
  m->Add("dht.hops_per_route",
         Ratio(static_cast<double>(t.Counter("dht.route_hops")),
               static_cast<double>(t.Counter("dht.routes"))),
         "count");
  m->Add("net.retransmits",
         Ratio(static_cast<double>(t.Counter("net.retransmits")), episodes),
         "count");

  // storage (storage/engine)
  m->Add("storage.puts_per_recon",
         Ratio(static_cast<double>(t.Counter("storage.puts")), recons),
         "count");

  // workload generator (excluded from every end-to-end number)
  m->Add("workload.gen_share",
         Ratio(static_cast<double>(l.of(Layer::kGenerate).total_ns),
               static_cast<double>(l.of(Layer::kTurn).total_ns)),
         "ratio");

  // the split itself
  m->Add("ledger.residual_share", l.ResidualShare(), "ratio");
  m->Add("trace.overhead_share",
         1.0 - Ratio(t.rate.WallPerSecond(), u.rate.WallPerSecond()),
         "ratio");
}

int Main(int argc, char** argv) {
  const HostShape host = DescribeHost();
  if (host.sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a sanitizer "
                 "build\n");
    return 2;
  }
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 options.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("host nproc=%u build_type=%s compiler=\"%s\"\n", host.nproc,
              host.build_type.c_str(), host.compiler.c_str());
  std::printf("workload %s seed=%" PRIu64 " peers=%zu txn_size=%zu ri=%zu "
              "warmup_rounds=%zu timed_rounds=%zu trace=%d\n",
              spec->name.c_str(), options.seed, spec->participants,
              spec->transaction_size, spec->interval, spec->warmup_rounds,
              spec->timed_rounds, options.trace);

  const bool traced_run = options.trace == 1;
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) {
    int64_t setup_ns = 0;
    auto confederation = SetUp(*spec, options.seed, &setup_ns);
    if (!confederation.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   confederation.status().ToString().c_str());
      PrintResult(false, 1, 1, MetricSink());
      return 0;
    }
    setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
  }

  // Whole episodes until the next one would overrun the time budget; at
  // least enough for p99 (untraced). Episode k runs the inputs of
  // EpisodeSeed(seed, k), so a run averages over several workload draws.
  // A traced run pairs an untraced and a traced episode on each draw, so
  // their digests must agree and their rates give the tracing overhead.
  const int64_t budget_ns = static_cast<int64_t>(options.seconds) * 1'000'000'000;
  const int64_t start_ns = NowNs();
  SpanRecorder recorder;
  std::vector<Span> last_traced_spans;
  EpisodeStats untraced;
  EpisodeStats traced;
  std::map<uint64_t, std::string> digests;  // per episode seed
  bool digests_agree = true;
  for (int episode = 0;; ++episode) {
    const bool trace_this = traced_run && episode % 2 == 1;
    const uint64_t episode_seed =
        EpisodeSeed(options.seed, traced_run ? episode / 2 : episode);
    const int64_t episode_start = NowNs();
    auto result =
        RunEpisode(*spec, episode_seed, trace_this ? &recorder : nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench: episode %d failed: %s\n", episode,
                   result.status().ToString().c_str());
      PrintResult(false, untraced.attempted + traced.attempted + 1,
                  untraced.failed + traced.failed + 1, MetricSink());
      return 0;
    }
    const EpisodeStats& e = *result;
    std::printf("episode %d seed=%" PRIu64 " traced=%d digest=%s "
                "setup_s=%.4f timed_wall_s=%.4f timed_cpu_s=%.4f "
                "recons_per_s=%.2f wall_recons_per_s=%.2f "
                "recon_wall_p50_ms=%.3f\n",
                episode, episode_seed, trace_this ? 1 : 0, e.digest.c_str(),
                static_cast<double>(e.setup_ns) / 1e9,
                static_cast<double>(e.timed_wall_ns) / 1e9,
                static_cast<double>(e.timed_cpu_ns) / 1e9,
                e.rate.PerSecond(), e.rate.WallPerSecond(),
                Median(e.recon_wall_ms));
    const auto [known, fresh] = digests.emplace(episode_seed, e.digest);
    if (!fresh && known->second != e.digest) digests_agree = false;
    setup_s.push_back(static_cast<double>(e.setup_ns) / 1e9);
    (trace_this ? traced : untraced).Add(e);
    if (trace_this) last_traced_spans = recorder.spans();

    const int64_t now = NowNs();
    const bool need_more =
        (traced_run && !trace_this) ||
        untraced.reconciliations() <
            static_cast<int64_t>(kMinTimedReconciliations);
    if (!need_more && now - start_ns + (now - episode_start) > budget_ns) break;
  }

  // --- Output checks ----------------------------------------------------
  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed;
  const int64_t mismatches =
      untraced.accounting_mismatches + traced.accounting_mismatches;
  bool correct = failed == 0;
  if (mismatches != 0) {
    std::printf("check accounting: %" PRId64
                " reconciliations where accepted+rejected+deferred != "
                "fetched+reconsidered\n",
                mismatches);
    correct = false;
  }
  std::printf("digest %s seeds=%zu untraced=%" PRId64 " traced=%" PRId64
              " agree=%s\n",
              digests.at(EpisodeSeed(options.seed, 0)).c_str(), digests.size(),
              untraced.episodes, traced.episodes,
              digests_agree ? "yes" : "NO");
  correct &= digests_agree;

  MetricSink metrics;
  if (traced_run) {
    const LedgerSummary& l = traced.ledger;
    std::printf("ledger turns=%" PRId64 " unbalanced=%" PRId64
                " orphan_spans=%" PRId64 " residual_share=%.6f\n",
                l.turns, l.unbalanced_turns, l.orphan_spans,
                l.ResidualShare());
    correct &= l.turns > 0 && l.unbalanced_turns == 0 && l.orphan_spans == 0;
    AddPerLayer(traced, untraced, &metrics);
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/trace-" + spec->name +
                               "-seed" + std::to_string(options.seed) +
                               ".json";
      if (WriteChromeTrace(path, last_traced_spans)) {
        std::printf("spans %zu written to %s\n", last_traced_spans.size(),
                    path.c_str());
      }
    }
  } else {
    const size_t samples = untraced.recon_time_ms.size();
    std::printf("samples reconciliations=%zu beyond_p99=%zu\n", samples,
                SamplesBeyond(samples, 0.99));
    correct &= Percentile(untraced.recon_time_ms, 0.99).has_value();
    AddEndToEnd(untraced, Median(setup_s), &metrics);
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#include "driver/confederation.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/provenance.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  // Both: 16 peers, RI 2, serial reconciler, delta fetch, provenance. A
  // multi-key (size 2, tiered) central workload was tried and left out:
  // its tail depends on the workload draw (the p99 of one draw's 512
  // reconciliations ranged from 8 to 17 ms), so no run that fits the
  // time budget measures its p99 steadily.
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> specs(2);
    // §6's setup (Figs. 10/12): uniform trust makes every conflict an
    // equal-priority dilemma, so the deferred backlog grows and
    // reconsidering it dominates local time.
    specs[0].name = "paper_central";
    specs[0].store = sim::StoreKind::kCentral;
    specs[0].topology = sim::TrustTopology::kUniform;
    // DHT store with tiered trust: cross-tier conflicts resolve, the
    // backlog stays small, and reconciliation time is mostly simulated
    // DHT messaging. Bypasses the reconciler's backlog path.
    specs[1].name = "tiered_dht";
    specs[1].store = sim::StoreKind::kDht;
    specs[1].topology = sim::TrustTopology::kTiered;
    return specs;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t EpisodeSeed(uint64_t seed, int k) {
  return seed + static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
}

sim::CdssConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed) {
  sim::CdssConfig config;
  config.participants = spec.participants;
  config.store = spec.store;
  config.topology = spec.topology;
  config.transaction_size = spec.transaction_size;
  config.txns_between_recons = spec.interval;
  config.rounds = spec.warmup_rounds + spec.timed_rounds;
  config.num_threads = 1;
  config.seed = seed;
  config.fetch_mode = core::FetchMode::kDelta;
  config.record_provenance = true;
  return config;
}

// --- TimedStore ----------------------------------------------------------

TimedStore::TimedStore(core::UpdateStore* inner)
    : inner_(inner),
      network_centric_(dynamic_cast<core::NetworkCentricStore*>(inner)) {}

Status TimedStore::RegisterParticipant(core::ParticipantId peer,
                                       const core::TrustPolicy* policy) {
  return inner_->RegisterParticipant(peer, policy);
}

Result<core::Epoch> TimedStore::Publish(core::ParticipantId peer,
                                        std::vector<core::Transaction> txns) {
  if (recorder_ == nullptr) return inner_->Publish(peer, std::move(txns));
  const core::StoreStats before = inner_->StatsFor(peer);
  Result<core::Epoch> epoch = [&] {
    ScopedSpan span(recorder_, Layer::kStorePublish);
    return inner_->Publish(peer, std::move(txns));
  }();
  const core::StoreStats delta = inner_->StatsFor(peer) - before;
  ++calls_.publish_calls;
  calls_.publish_sim_us += delta.sim_network_micros;
  return epoch;
}

Result<core::ReconcileFetch> TimedStore::BeginReconciliation(
    core::ParticipantId peer) {
  if (recorder_ == nullptr) return inner_->BeginReconciliation(peer);
  const core::StoreStats before = inner_->StatsFor(peer);
  Result<core::ReconcileFetch> fetch = [&] {
    ScopedSpan span(recorder_, Layer::kStoreFetch);
    return inner_->BeginReconciliation(peer);
  }();
  const core::StoreStats delta = inner_->StatsFor(peer) - before;
  ++calls_.fetch_calls;
  calls_.fetch_sim_us += delta.sim_network_micros;
  calls_.fetch_messages += delta.messages;
  calls_.fetch_bytes += delta.bytes;
  if (fetch.ok()) {
    calls_.fetch_txns += static_cast<int64_t>(fetch->transactions.size());
  }
  return fetch;
}

Result<core::NetworkCentricFetch> TimedStore::BeginNetworkCentricReconciliation(
    core::ParticipantId peer) {
  if (network_centric_ == nullptr) {
    return Status::NotSupported(std::string(inner_->name()) +
                                " store is not network-centric");
  }
  ScopedSpan span(recorder_, Layer::kStoreFetch);
  return network_centric_->BeginNetworkCentricReconciliation(peer);
}

Status TimedStore::RecordDecisions(
    core::ParticipantId peer, int64_t recno,
    const std::vector<core::TransactionId>& applied,
    const std::vector<core::TransactionId>& rejected) {
  ScopedSpan span(recorder_, Layer::kStoreRecordDecisions);
  return inner_->RecordDecisions(peer, recno, applied, rejected);
}

Status TimedStore::RecordProvenance(
    core::ParticipantId peer, int64_t recno,
    const std::vector<core::ProvenanceRecord>& records) {
  ScopedSpan span(recorder_, Layer::kStoreRecordProvenance);
  return inner_->RecordProvenance(peer, recno, records);
}

Result<core::RecoveryBundle> TimedStore::FetchRecoveryState(
    core::ParticipantId peer) const {
  return inner_->FetchRecoveryState(peer);
}

Result<core::RecoveryBundle> TimedStore::Bootstrap(core::ParticipantId new_peer,
                                                   core::ParticipantId source) {
  return inner_->Bootstrap(new_peer, source);
}

core::StoreStats TimedStore::StatsFor(core::ParticipantId peer) const {
  return inner_->StatsFor(peer);
}

// --- EpisodeStats ---------------------------------------------------------

StoreCallStats& StoreCallStats::operator+=(const StoreCallStats& o) {
  publish_calls += o.publish_calls;
  publish_sim_us += o.publish_sim_us;
  fetch_calls += o.fetch_calls;
  fetch_sim_us += o.fetch_sim_us;
  fetch_messages += o.fetch_messages;
  fetch_bytes += o.fetch_bytes;
  fetch_txns += o.fetch_txns;
  return *this;
}

void EpisodeStats::Add(const EpisodeStats& o) {
  episodes += o.episodes;
  setup_ns += o.setup_ns;
  timed_wall_ns += o.timed_wall_ns;
  timed_cpu_ns += o.timed_cpu_ns;
  recon_wall_ms.insert(recon_wall_ms.end(), o.recon_wall_ms.begin(),
                       o.recon_wall_ms.end());
  recon_time_ms.insert(recon_time_ms.end(), o.recon_time_ms.begin(),
                       o.recon_time_ms.end());
  publish_time_ms.insert(publish_time_ms.end(), o.publish_time_ms.begin(),
                         o.publish_time_ms.end());
  rate.Add(o.rate);
  attempted += o.attempted;
  failed += o.failed;
  accounting_mismatches += o.accounting_mismatches;
  traffic = traffic + o.traffic;
  fetched += o.fetched;
  reconsidered += o.reconsidered;
  accepted += o.accepted;
  rejected += o.rejected;
  dilemmas += o.dilemmas;
  apply_failed += o.apply_failed;
  fetch += o.fetch;
  store_calls += o.store_calls;
  ledger.Add(o.ledger);
  for (const auto& [name, value] : o.counters) counters[name] += value;
}

int64_t EpisodeStats::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// --- Confederation --------------------------------------------------------

Confederation::Confederation(std::unique_ptr<sim::Cdss> cdss)
    : cdss_(std::move(cdss)),
      store_(std::make_unique<TimedStore>(&cdss_->store())) {
  // The same generator configuration Cdss::Make builds for Cdss::Run, so
  // the benchmark loop feeds the peers exactly the transactions Run would.
  orchestra::workload::WorkloadConfig wl = cdss_->config().workload;
  wl.transaction_size = cdss_->config().transaction_size;
  wl.seed = cdss_->config().seed;
  generator_ = std::make_unique<orchestra::workload::SwissProtWorkload>(wl);
}

Result<std::unique_ptr<Confederation>> Confederation::Make(
    sim::CdssConfig config) {
  ORCH_ASSIGN_OR_RETURN(std::unique_ptr<sim::Cdss> cdss,
                        sim::Cdss::Make(std::move(config)));
  return std::unique_ptr<Confederation>(new Confederation(std::move(cdss)));
}

Status Confederation::RunRounds(size_t rounds, EpisodeStats* stats,
                                SpanRecorder* recorder) {
  store_->set_recorder(recorder);
  Status status;
  for (size_t round = 0; round < rounds && status.ok(); ++round) {
    for (size_t i = 0; i < cdss_->participant_count() && status.ok(); ++i) {
      status = Turn(i, stats, recorder);
    }
  }
  store_->set_recorder(nullptr);
  return status;
}

Status Confederation::Turn(size_t index, EpisodeStats* stats,
                           SpanRecorder* recorder) {
  core::Participant& peer = cdss_->participant(index);
  core::UpdateStore& inner = cdss_->store();
  const core::ReconcileRetryOptions& retry = cdss_->config().retry;

  const int64_t turn_start = NowNs();
  const int32_t turn_span =
      recorder == nullptr ? -1 : recorder->Begin(Layer::kTurn);
  int64_t generator_ns = 0;
  for (size_t t = 0; t < cdss_->config().txns_between_recons; ++t) {
    const int64_t generate_start = NowNs();
    std::vector<core::Update> updates;
    {
      ScopedSpan span(recorder, Layer::kGenerate);
      updates = generator_->NextTransaction(peer.id(), peer.instance());
    }
    generator_ns += NowNs() - generate_start;
    // Same skips as Cdss::StepParticipant: nothing to change, or the
    // generator raced with its own earlier operations.
    if (updates.empty()) continue;
    ScopedSpan span(recorder, Layer::kExecute);
    if (!peer.ExecuteTransaction(std::move(updates)).ok()) continue;
  }

  const core::StoreStats before = inner.StatsFor(peer.id());
  const int64_t publish_start = NowNs();
  Status published;
  {
    ScopedSpan span(recorder, Layer::kPublish);
    published = peer.PublishWithRetry(store_.get(), retry).status();
  }
  const int64_t publish_end = NowNs();
  const core::StoreStats mid = inner.StatsFor(peer.id());
  const int64_t reconcile_start = NowNs();
  Result<core::ReconcileReport> report = [&] {
    ScopedSpan span(recorder, Layer::kReconcile);
    return published.ok() ? peer.ReconcileWithRetry(store_.get(), retry)
                          : Result<core::ReconcileReport>(published);
  }();
  const int64_t turn_end = NowNs();
  if (recorder != nullptr) recorder->End(turn_span);
  const core::StoreStats after = inner.StatsFor(peer.id());

  // Everything below is bookkeeping outside the timed turn.
  stats->attempted += published.ok() ? 2 : 1;
  if (!published.ok()) {
    ++stats->failed;
    return published;
  }
  if (!report.ok()) {
    ++stats->failed;
    return report.status();
  }
  const core::StoreStats publish_cost = mid - before;
  const core::StoreStats reconcile_cost = after - mid;
  stats->rate.AddTurn(turn_end - turn_start, generator_ns,
                      (after - before).sim_network_micros * 1000, 1);
  const double recon_wall_ms =
      static_cast<double>(turn_end - reconcile_start) / 1e6;
  stats->recon_wall_ms.push_back(recon_wall_ms);
  stats->recon_time_ms.push_back(
      recon_wall_ms +
      static_cast<double>(reconcile_cost.sim_network_micros) / 1e3);
  stats->publish_time_ms.push_back(
      static_cast<double>(publish_end - publish_start) / 1e6 +
      static_cast<double>(publish_cost.sim_network_micros) / 1e3);
  stats->traffic = stats->traffic + (after - before);

  const core::ReconcileReport& r = *report;
  if (r.accepted.size() + r.rejected.size() + r.deferred.size() !=
      r.fetched + r.reconsidered) {
    ++stats->accounting_mismatches;
  }
  stats->fetched += static_cast<int64_t>(r.fetched);
  stats->reconsidered += static_cast<int64_t>(r.reconsidered);
  stats->accepted += static_cast<int64_t>(r.accepted.size());
  stats->rejected += static_cast<int64_t>(r.rejected.size());
  stats->fetch += r.fetch_stats;
  for (const core::ProvenanceRecord& rec : r.provenance) {
    if (rec.cause == core::ProvenanceCause::kEqualPriorityDilemma) {
      ++stats->dilemmas;
    } else if (rec.cause == core::ProvenanceCause::kApplyFailed) {
      ++stats->apply_failed;
    }
  }
  return Status::OK();
}

std::string DecisionText(sim::Cdss& cdss) {
  std::string text;
  const auto append_sorted = [&text](const core::TxnIdSet& set) {
    std::vector<core::TransactionId> ids(set.begin(), set.end());
    std::sort(ids.begin(), ids.end());
    for (const core::TransactionId& id : ids) {
      text += ' ';
      text += id.ToString();
    }
  };
  for (size_t i = 0; i < cdss.participant_count(); ++i) {
    const core::Participant& peer = cdss.participant(i);
    text += "peer " + std::to_string(peer.id()) + "\napplied";
    append_sorted(peer.applied());
    text += "\nrejected";
    append_sorted(peer.rejected());
    text += '\n';
  }
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio), "state_ratio %.17g\n",
                cdss.CurrentStateRatio());
  text += ratio;
  return text;
}

std::string DecisionDigest(sim::Cdss& cdss) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                orchestra::Fnv1a64(DecisionText(cdss)));
  return hex;
}

Result<std::unique_ptr<Confederation>> SetUp(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             int64_t* setup_ns) {
  const int64_t setup_start = NowNs();
  ORCH_ASSIGN_OR_RETURN(std::unique_ptr<Confederation> confederation,
                        Confederation::Make(MakeConfig(spec, seed)));
  EpisodeStats warmup;
  ORCH_RETURN_IF_ERROR(
      confederation->RunRounds(spec.warmup_rounds, &warmup, nullptr));
  *setup_ns = NowNs() - setup_start;
  sim::Cdss& cdss = confederation->cdss();
  for (size_t i = 0; i < cdss.participant_count(); ++i) {
    *setup_ns +=
        cdss.store().StatsFor(cdss.participant(i).id()).sim_network_micros *
        1000;
  }
  return confederation;
}

Result<EpisodeStats> RunEpisode(const WorkloadSpec& spec, uint64_t seed,
                                SpanRecorder* recorder) {
  EpisodeStats stats;
  stats.episodes = 1;
  ORCH_ASSIGN_OR_RETURN(std::unique_ptr<Confederation> confederation,
                        SetUp(spec, seed, &stats.setup_ns));
  stats.rate.AddSetup(stats.setup_ns);

  auto& registry = orchestra::MetricsRegistry::Global();
  const std::map<std::string, int64_t> counters_before =
      registry.CounterValues();
  if (recorder != nullptr) recorder->Clear();
  const int64_t wall_start = NowNs();
  const int64_t cpu_start = ThreadCpuNs();
  ORCH_RETURN_IF_ERROR(
      confederation->RunRounds(spec.timed_rounds, &stats, recorder));
  stats.timed_cpu_ns = ThreadCpuNs() - cpu_start;
  stats.timed_wall_ns = NowNs() - wall_start;
  stats.counters =
      orchestra::CounterDeltas(counters_before, registry.CounterValues());
  if (recorder != nullptr) {
    stats.ledger = SummarizeLedger(recorder->spans());
    stats.store_calls = confederation->store().call_stats();
  }
  stats.digest = DecisionDigest(confederation->cdss());
  return stats;
}

}  // namespace perfbench

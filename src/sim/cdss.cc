#include "sim/cdss.h"

#include <cstdlib>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace orchestra::sim {

using core::ParticipantId;

Result<std::unique_ptr<Cdss>> Cdss::Make(CdssConfig config) {
  if (config.participants == 0) {
    return Status::InvalidArgument("need at least one participant");
  }
  if (config.transaction_size == 0) {
    return Status::InvalidArgument("transaction size must be positive");
  }
  if (config.num_threads != 1) {
    return Status::InvalidArgument(
        "reconciliation is serial; num_threads must be 1");
  }
  // A typo'd failure or corruption site would otherwise run the whole
  // experiment with injection silently disabled.
  ORCH_RETURN_IF_ERROR(FaultInjector::ValidateConfig(config.fault));
  auto cdss = std::unique_ptr<Cdss>(new Cdss(std::move(config)));
  // ORCH_SIM_TRACE=<path> switches the deterministic sim trace on from
  // the outside (tools/provenance_dump, as bench_runner's provenance leg
  // runs it). An explicit config wins over the env.
  if (const char* env = std::getenv("ORCH_SIM_TRACE");
      env != nullptr && env[0] != '\0' && !cdss->config_.sim_trace) {
    cdss->config_.sim_trace = true;
    cdss->config_.sim_trace_path = env;
  }
  const CdssConfig& cfg = cdss->config_;

  ORCH_ASSIGN_OR_RETURN(cdss->catalog_, workload::MakeSwissProtCatalog());
  cdss->network_ = net::SimNetwork(cfg.network);
  if (cfg.sim_trace) cdss->network_.set_sim_tracer(&cdss->sim_tracer_);
  cdss->fault_injector_.Configure(cfg.fault);

  // The injector is threaded through whichever layer carries the store's
  // side effects: the storage engine for the central store, the
  // simulated network for the DHT's protocol messages.
  switch (cfg.store) {
    case StoreKind::kCentral: {
      cdss->engine_ = storage::StorageEngine::InMemory();
      cdss->engine_->set_fault_injector(&cdss->fault_injector_);
      store::CentralStoreOptions opts;
      opts.stuck_epoch_reap_threshold = cfg.stuck_epoch_reap_threshold;
      opts.fetch_mode = cfg.fetch_mode;
      cdss->store_ = std::make_unique<store::CentralStore>(
          cdss->engine_.get(), &cdss->network_, opts, &cdss->catalog_);
      break;
    }
    case StoreKind::kDht: {
      cdss->network_.set_fault_injector(&cdss->fault_injector_);
      store::DhtStoreOptions opts;
      opts.stuck_epoch_reap_threshold = cfg.stuck_epoch_reap_threshold;
      opts.replication_factor = cfg.replication_factor;
      opts.fetch_mode = cfg.fetch_mode;
      auto dht = std::make_unique<store::DhtStore>(
          cfg.participants, &cdss->network_, &cdss->catalog_, opts);
      cdss->dht_ = dht.get();
      cdss->store_ = std::move(dht);
      break;
    }
  }

  if (cfg.churn.enabled) {
    if (cdss->dht_ == nullptr) {
      return Status::InvalidArgument(
          "churn schedules need the DHT store; the central store has no "
          "ring to churn");
    }
    FaultInjectorConfig churn_fault;
    churn_fault.failure_probability = cfg.churn.crash_probability;
    churn_fault.seed = cfg.churn.seed;
    churn_fault.site_prefix = "net.node_crash";
    cdss->churn_injector_.Configure(churn_fault);
    cdss->churn_rng_.Seed(cfg.churn.seed ^ 0xc2b2ae3d27d4eb4fULL);
  }

  // Trust topology (kUniform reproduces §6's equal mutual trust).
  for (size_t i = 0; i < cfg.participants; ++i) {
    const ParticipantId id = static_cast<ParticipantId>(i);
    auto policy = std::make_unique<core::TrustPolicy>(id);
    for (size_t j = 0; j < cfg.participants; ++j) {
      if (j == i) continue;
      int priority = cfg.trust_priority;
      switch (cfg.topology) {
        case TrustTopology::kUniform:
          break;
        case TrustTopology::kTiered:
          priority = 1 + static_cast<int>(j % 3);
          break;
        case TrustTopology::kStar:
          priority = j == 0 ? cfg.trust_priority + 1 : cfg.trust_priority;
          break;
      }
      policy->TrustPeer(static_cast<ParticipantId>(j), priority);
    }
    cdss->policies_.push_back(std::move(policy));
  }
  for (size_t i = 0; i < cfg.participants; ++i) {
    const ParticipantId id = static_cast<ParticipantId>(i);
    cdss->participants_.push_back(std::make_unique<core::Participant>(
        id, &cdss->catalog_, *cdss->policies_[i],
        core::ReconcileOptions{cfg.record_provenance}));
    if (cfg.sim_trace) {
      // One track per peer, clocked by that peer's accumulated simulated
      // network time — the only deterministic notion of "now" a peer has.
      cdss->sim_tracer_.SetTrackName(id, "peer-" + std::to_string(i));
      net::SimNetwork* network = &cdss->network_;
      cdss->participants_.back()->BindSimTrace(
          &cdss->sim_tracer_, id,
          [network, id] { return network->StatsFor(id).micros; });
    }
    ORCH_RETURN_IF_ERROR(
        cdss->store_->RegisterParticipant(id, cdss->policies_[i].get()));
  }

  workload::WorkloadConfig wl = cfg.workload;
  wl.transaction_size = cfg.transaction_size;
  wl.seed = cfg.seed;
  cdss->workload_ = std::make_unique<workload::SwissProtWorkload>(wl);
  return cdss;
}

Result<core::ReconcileReport> Cdss::StepParticipant(size_t index) {
  ORCH_CHECK_LT(index, participants_.size());
  core::Participant& p = *participants_[index];
  for (size_t t = 0; t < config_.txns_between_recons; ++t) {
    std::vector<core::Update> updates =
        workload_->NextTransaction(p.id(), p.instance());
    if (updates.empty()) continue;  // the generator had nothing to change
    auto txn = p.ExecuteTransaction(std::move(updates));
    if (!txn.ok()) {
      // Workload raced with its own earlier ops; skip rather than abort.
      continue;
    }
    ++running_.transactions_published;
  }
  // Publish and reconcile through the retry layer: injected transient
  // faults surface as Unavailable and are absorbed here, with the
  // exponential backoff charged as simulated time.
  core::RetryStats publish_retry;
  ORCH_RETURN_IF_ERROR(
      p.PublishWithRetry(store_.get(), config_.retry, &publish_retry)
          .status());
  core::RetryStats reconcile_retry;
  auto report_result =
      config_.network_centric
          ? p.ReconcileNetworkCentricWithRetry(store_.get(), config_.retry,
                                               &reconcile_retry)
          : p.ReconcileWithRetry(store_.get(), config_.retry,
                                 &reconcile_retry);
  ORCH_ASSIGN_OR_RETURN(core::ReconcileReport report,
                        std::move(report_result));
  running_.retried_operations += (publish_retry.attempts > 1 ? 1 : 0) +
                                 (reconcile_retry.attempts > 1 ? 1 : 0);
  running_.backoff_micros +=
      publish_retry.backoff_micros + reconcile_retry.backoff_micros;
  ++running_.reconciliations;
  running_.accepted += report.accepted.size();
  running_.rejected += report.rejected.size();
  running_.deferred += report.deferred.size();
  running_.avg_local_micros += static_cast<double>(report.local_micros);
  running_.avg_store_micros +=
      static_cast<double>(report.store.TotalStoreMicros());
  running_.avg_store_wire_micros += static_cast<double>(
      report.store.wire_micros + report.store.store_cpu_micros);
  return report;
}

Status Cdss::ApplyChurn() {
  if (!config_.churn.enabled || dht_ == nullptr) return Status::OK();
  const ChurnConfig& churn = config_.churn;
  const auto check_invariant = [&] {
    if (!dht_->CheckReplicationInvariant()) {
      running_.replication_invariant_ok = false;
    }
  };
  // One possible join first: fresh capacity arrives before any departure
  // this boundary.
  if (churn.join_probability > 0 &&
      churn_rng_.NextBool(churn.join_probability)) {
    ORCH_RETURN_IF_ERROR(dht_->JoinNode().status());
    ++running_.node_joins;
    check_invariant();
  }
  // One possible graceful leave of a uniformly chosen live node.
  if (churn.leave_probability > 0 &&
      churn_rng_.NextBool(churn.leave_probability) &&
      dht_->live_node_count() > churn.min_live_nodes) {
    std::vector<size_t> live;
    for (size_t node = 0; node < dht_->ring().size(); ++node) {
      if (dht_->ring().IsLive(node)) live.push_back(node);
    }
    const size_t victim = live[churn_rng_.NextBounded(live.size())];
    ORCH_RETURN_IF_ERROR(dht_->LeaveNode(victim));
    ++running_.node_leaves;
    check_invariant();
  }
  // Crash draws: one per live node through the net.node_crash site. Each
  // crash re-replicates before the next draw, so only the loss of a
  // whole replica group in a *single* event could destroy data — which a
  // single-node crash cannot, for replication_factor > 1.
  for (size_t node = 0; node < dht_->ring().size(); ++node) {
    if (!dht_->ring().IsLive(node)) continue;
    if (dht_->live_node_count() <= churn.min_live_nodes) break;
    if (churn_injector_.MaybeFail("net.node_crash").ok()) continue;
    ORCH_RETURN_IF_ERROR(dht_->CrashNode(node));
    ++running_.node_crashes;
    check_invariant();
  }
  return Status::OK();
}

Result<CdssResult> Cdss::Run() {
  running_ = CdssResult{};
  // The registry is process-global, so the run's delta (not absolute
  // values) describes this run.
  const std::map<std::string, int64_t> run_start =
      MetricsRegistry::Global().CounterValues();
  for (size_t round = 0; round < config_.rounds; ++round) {
    TraceSpan round_span("cdss.round");
    if (round > 0) ORCH_RETURN_IF_ERROR(ApplyChurn());
    // Background scrub cadence: walk every replica, heal detected rot
    // from a verified copy. Decision-neutral — it only moves bytes.
    if (config_.scrub_interval_rounds > 0 && dht_ != nullptr && round > 0 &&
        round % config_.scrub_interval_rounds == 0) {
      dht_->ScrubReplicas();
    }
    for (size_t i = 0; i < participants_.size(); ++i) {
      ORCH_RETURN_IF_ERROR(StepParticipant(i).status());
    }
  }
  running_.metrics =
      CounterDeltas(run_start, MetricsRegistry::Global().CounterValues());
  CdssResult result = running_;
  if (result.reconciliations > 0) {
    result.total_local_micros_per_peer =
        result.avg_local_micros / static_cast<double>(participants_.size());
    result.total_store_micros_per_peer =
        result.avg_store_micros / static_cast<double>(participants_.size());
    result.total_store_wire_micros_per_peer =
        result.avg_store_wire_micros /
        static_cast<double>(participants_.size());
    result.avg_local_micros /= static_cast<double>(result.reconciliations);
    result.avg_store_micros /= static_cast<double>(result.reconciliations);
    result.avg_store_wire_micros /=
        static_cast<double>(result.reconciliations);
  }
  result.state_ratio = CurrentStateRatio();
  result.faults_injected = fault_injector_.injected();
  const auto metric = [&](const char* name) {
    auto it = result.metrics.find(name);
    return it == result.metrics.end() ? int64_t{0} : it->second;
  };
  result.corrupt_reads_detected = metric("integrity.corrupt_replica_reads") +
                                  metric("integrity.corrupt_rows_detected") +
                                  metric("integrity.corrupt_payloads_detected");
  result.read_repairs =
      metric("integrity.read_repairs") + metric("integrity.scrub_repairs");
  core::StoreStats totals;
  for (const auto& p : participants_) {
    totals = totals + store_->StatsFor(p->id());
  }
  result.messages = totals.messages;
  result.bytes = totals.bytes;
  if (config_.sim_trace && !config_.sim_trace_path.empty()) {
    ORCH_RETURN_IF_ERROR(sim_tracer_.WriteTo(config_.sim_trace_path));
  }
  return result;
}

double Cdss::CurrentStateRatio() const {
  std::vector<const core::Participant*> view;
  view.reserve(participants_.size());
  for (const auto& p : participants_) view.push_back(p.get());
  return StateRatio(view, workload::kFunctionRelation);
}

}  // namespace orchestra::sim

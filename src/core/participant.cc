#include "core/participant.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/analysis.h"
#include "core/apply.h"
#include "core/extension.h"
#include "core/flatten.h"

namespace orchestra::core {

namespace {

/// Checks that every tuple of `txn` fits the catalog: a known relation
/// and a tuple of that relation's arity and column types. Transactions
/// enter the participant from the store only through here, so a
/// malformed one is a typed Corruption instead of an abort deep inside
/// flattening or key projection.
Status CheckAgainstCatalog(const db::Catalog& catalog,
                           const Transaction& txn) {
  for (const Update& u : txn.updates) {
    auto schema = catalog.GetRelation(u.relation());
    if (!schema.ok()) {
      return Status::Corruption("transaction " + txn.id.ToString() +
                                " updates unknown relation " + u.relation());
    }
    const auto check = [&](const db::Tuple& tuple) {
      Status valid = (*schema)->ValidateTuple(tuple);
      if (valid.ok()) return valid;
      return Status::Corruption("transaction " + txn.id.ToString() +
                                " has a malformed tuple: " + valid.message());
    };
    if (!u.is_insert()) ORCH_RETURN_IF_ERROR(check(u.old_tuple()));
    if (!u.is_delete()) ORCH_RETURN_IF_ERROR(check(u.new_tuple()));
  }
  return Status::OK();
}

Status CheckAgainstCatalog(const db::Catalog& catalog,
                           const std::vector<Transaction>& txns) {
  for (const Transaction& txn : txns) {
    ORCH_RETURN_IF_ERROR(CheckAgainstCatalog(catalog, txn));
  }
  return Status::OK();
}

}  // namespace

Participant::Participant(ParticipantId id, const db::Catalog* catalog,
                         TrustPolicy policy, ReconcileOptions options)
    : id_(id),
      catalog_(catalog),
      policy_(std::move(policy)),
      instance_(catalog),
      options_(options),
      reconciler_(catalog),
      retry_rng_(0x9e3779b97f4a7c15ULL ^ id) {
  ORCH_CHECK(policy_.self() == id, "trust policy self id mismatch");
}

Result<std::unique_ptr<Participant>> Participant::RecoverFromStore(
    ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
    UpdateStore* store, ReconcileOptions options) {
  ORCH_ASSIGN_OR_RETURN(RecoveryBundle bundle,
                        store->FetchRecoveryState(id));
  return FromBundle(id, catalog, std::move(policy), store, std::move(bundle),
                    options);
}

Result<std::unique_ptr<Participant>> Participant::BootstrapFrom(
    ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
    UpdateStore* store, ParticipantId source_peer, ReconcileOptions options) {
  ORCH_ASSIGN_OR_RETURN(RecoveryBundle bundle,
                        store->Bootstrap(id, source_peer));
  return FromBundle(id, catalog, std::move(policy), store, std::move(bundle),
                    options);
}

Result<std::unique_ptr<Participant>> Participant::FromBundle(
    ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
    UpdateStore* store, RecoveryBundle bundle, ReconcileOptions options) {
  ORCH_RETURN_IF_ERROR(CheckAgainstCatalog(*catalog, bundle.applied));
  ORCH_RETURN_IF_ERROR(CheckAgainstCatalog(*catalog, bundle.closure));
  auto participant =
      std::make_unique<Participant>(id, catalog, std::move(policy), options);

  // Replay the applied transactions in publication order. Idempotent
  // application semantics make agreement duplicates harmless.
  std::vector<TransactionId> applied_ids;
  applied_ids.reserve(bundle.applied.size());
  for (Transaction& txn : bundle.applied) {
    ORCH_ASSIGN_OR_RETURN(std::vector<Update> flattened,
                          Flatten(*catalog, txn.updates));
    ORCH_RETURN_IF_ERROR(ApplyFlattened(&participant->instance_, flattened));
    participant->applied_.insert(txn.id);
    applied_ids.push_back(txn.id);
    if (txn.id.origin == id && txn.id.seq >= participant->next_seq_) {
      participant->next_seq_ = txn.id.seq + 1;
    }
    participant->txn_cache_.Put(std::move(txn));
  }
  participant->UpdateVersionMap(applied_ids);
  for (const TransactionId& rejected_id : bundle.rejected) {
    participant->rejected_.insert(rejected_id);
  }
  participant->last_recno_ = bundle.recno;

  // Restore the deferred backlog and re-reconcile it, which rebuilds the
  // dirty-value set and the open conflict groups. No verdict is carried
  // yet, so the run analyses the whole backlog.
  for (Transaction& txn : bundle.closure) {
    participant->txn_cache_.Put(std::move(txn));
  }
  for (const auto& [txn_id, priority] : bundle.undecided) {
    participant->deferred_[txn_id] = DeferredInfo{priority, std::nullopt};
  }
  if (!participant->deferred_.empty()) {
    ORCH_RETURN_IF_ERROR(participant
                             ->RunAndCommit(store, bundle.recno, bundle.epoch,
                                            /*fresh=*/{}, /*local=*/nullptr)
                             .status());
  }
  return participant;
}

Result<TransactionId> Participant::ExecuteTransaction(
    std::vector<Update> updates) {
  if (updates.empty()) {
    return Status::InvalidArgument("transaction must contain updates");
  }
  // Stamp every update with this participant's identity.
  std::vector<Update> stamped;
  stamped.reserve(updates.size());
  for (Update& u : updates) {
    switch (u.kind()) {
      case UpdateKind::kInsert:
        stamped.push_back(Update::Insert(u.relation(), u.new_tuple(), id_));
        break;
      case UpdateKind::kDelete:
        stamped.push_back(Update::Delete(u.relation(), u.old_tuple(), id_));
        break;
      case UpdateKind::kModify:
        stamped.push_back(
            Update::Modify(u.relation(), u.old_tuple(), u.new_tuple(), id_));
        break;
    }
  }

  // Validate and apply atomically via the flattened form.
  ORCH_ASSIGN_OR_RETURN(std::vector<Update> flattened,
                        Flatten(*catalog_, stamped));
  ORCH_RETURN_IF_ERROR(ApplyFlattened(&instance_, flattened));

  const TransactionId txn_id{id_, next_seq_++};

  // Antecedents: for each delete/modify, the last published transaction
  // that wrote the tuple being consumed — unless this same transaction
  // wrote it earlier in its own sequence.
  std::vector<TransactionId> antecedents;
  RelKeySet written_here;
  auto add_antecedent = [&](const TransactionId& ante) {
    if (ante != txn_id &&
        std::find(antecedents.begin(), antecedents.end(), ante) ==
            antecedents.end()) {
      antecedents.push_back(ante);
    }
  };
  for (const Update& u : stamped) {
    const db::RelationSchema& schema =
        *catalog_->GetRelation(u.relation()).value();
    if (auto read = u.ReadKey(schema)) {
      RelKey rk{u.relation(), *read};
      if (written_here.count(rk) == 0) {
        auto it = version_map_.find(rk);
        if (it != version_map_.end()) add_antecedent(it->second);
      }
    }
    if (auto write = u.WriteKey(schema)) {
      RelKey rk{u.relation(), *write};
      // Re-creating a key this participant previously deleted chains to
      // the deleting transaction (see tombstone_map_).
      if (u.is_insert() && written_here.count(rk) == 0) {
        auto it = tombstone_map_.find(rk);
        if (it != tombstone_map_.end()) add_antecedent(it->second);
      }
      written_here.insert(std::move(rk));
    }
  }

  // Advance the version and tombstone maps with the net effects.
  AdvanceVersions(flattened, txn_id);

  Transaction txn;
  txn.id = txn_id;
  txn.updates = std::move(stamped);
  txn.antecedents = std::move(antecedents);
  publish_queue_.push_back(txn);
  txn_cache_.Put(txn);
  applied_.insert(txn_id);
  for (const Update& u : flattened) own_delta_.push_back(u);
  return txn_id;
}

Result<Epoch> Participant::Publish(UpdateStore* store) {
  if (publish_queue_.empty()) return kNoEpoch;
  TraceSpan span("participant.publish", sim_trace_.get());
  static Counter& publishes =
      MetricsRegistry::Global().GetCounter("reconcile.publishes");
  static Counter& published_txns =
      MetricsRegistry::Global().GetCounter("reconcile.published_txns");
  // Pass a copy: a failed publish (store unavailable) must leave the
  // queue intact so the transactions can be republished later.
  ORCH_ASSIGN_OR_RETURN(Epoch epoch, store->Publish(id_, publish_queue_));
  publishes.Increment();
  published_txns.Add(static_cast<int64_t>(publish_queue_.size()));
  publish_queue_.clear();
  return epoch;
}

Result<ReconcileReport> Participant::Reconcile(UpdateStore* store) {
  TraceSpan span("participant.reconcile", sim_trace_.get());
  const StoreStats before = store->StatsFor(id_);
  ReconcileFetch fetch;
  {
    TraceSpan fetch_span("reconcile.fetch", sim_trace_.get());
    ORCH_ASSIGN_OR_RETURN(fetch, store->BeginReconciliation(id_));
  }

  Stopwatch local;
  // Fold the fetched bundle into the local transaction cache.
  {
    TraceSpan fold_span("reconcile.fold_cache", sim_trace_.get());
    ORCH_RETURN_IF_ERROR(CheckAgainstCatalog(*catalog_, fetch.transactions));
    for (Transaction& txn : fetch.transactions) {
      txn_cache_.Put(std::move(txn));
    }
  }

  std::vector<TrustedTxn> txns;
  txns.reserve(fetch.trusted.size());
  // Transactions the store resent although this participant already
  // decided them: the store lost (never received) the decision — a crash
  // between applying and recording. Re-record them this round.
  std::vector<TransactionId> catch_up_applied;
  std::vector<TransactionId> catch_up_rejected;
  {
    TraceSpan ext_span("reconcile.extensions", sim_trace_.get());
    for (const auto& [txn_id, priority] : fetch.trusted) {
      if (applied_.count(txn_id) != 0) {
        catch_up_applied.push_back(txn_id);
        continue;
      }
      if (rejected_.count(txn_id) != 0) {
        catch_up_rejected.push_back(txn_id);
        continue;
      }
      if (deferred_.count(txn_id) != 0) {
        continue;  // still undecided here too; the deferred backlog covers it
      }
      TrustedTxn t;
      t.id = txn_id;
      t.priority = priority;
      ORCH_ASSIGN_OR_RETURN(t.extension,
                            ComputeExtension(txn_cache_, txn_id, applied_));
      txns.push_back(std::move(t));
    }
  }

  ORCH_ASSIGN_OR_RETURN(
      ReconcileReport report,
      RunAndCommit(store, fetch.recno, fetch.epoch, std::move(txns), &local,
                   /*shipped=*/std::nullopt, catch_up_applied,
                   catch_up_rejected));
  report.store = store->StatsFor(id_) - before;
  report.fetch_stats = fetch.stats;
  RecordFetchMetrics(report.fetched, report.reconsidered);
  return report;
}

// Registry-side accounting shared by the client-centric and
// network-centric reconcile paths. The fetch's cache, decode, lookup
// and batching facts are counted once, by the store that produced them
// (store.central.* / store.dht.*); ReconcileReport::fetch_stats carries
// the same numbers per round.
void Participant::RecordFetchMetrics(size_t fetched, size_t reconsidered) {
  static Counter& rounds =
      MetricsRegistry::Global().GetCounter("reconcile.rounds");
  static Counter& fetched_txns =
      MetricsRegistry::Global().GetCounter("reconcile.fetched_txns");
  static Counter& reconsidered_txns =
      MetricsRegistry::Global().GetCounter("reconcile.reconsidered_txns");
  rounds.Increment();
  fetched_txns.Add(static_cast<int64_t>(fetched));
  reconsidered_txns.Add(static_cast<int64_t>(reconsidered));
}

void Participant::ForgetCarriedVerdicts() {
  for (auto& [id, info] : deferred_) info.verdict.reset();
  changed_keys_.clear();
}

std::vector<bool> Participant::SelectRerun(
    const std::vector<TrustedTxn>& fresh,
    const std::vector<std::vector<uint64_t>>& fresh_footprints,
    const std::vector<uint64_t>& own_footprint) const {
  const size_t d = deferred_.size();
  std::vector<bool> rerun(d, false);
  std::unordered_map<TransactionId, size_t, TransactionIdHash> index_of;
  std::vector<const std::pair<const TransactionId, DeferredInfo>*> entries;
  entries.reserve(d);
  for (const auto& entry : deferred_) {
    // Without a recorded footprint nothing can be shown independent of
    // the rest, so everything runs (recovery, bootstrap, after
    // ForgetCarriedVerdicts).
    if (!entry.second.verdict) return std::vector<bool>(d, true);
    index_of.emplace(entry.first, entries.size());
    entries.push_back(&entry);
  }

  // Rule 4 groups deferred transactions into components that share a
  // footprint key or an extension edge; a component runs whole or not
  // at all, so its conflict groups and comparisons never split.
  std::vector<size_t> parent(d);
  std::iota(parent.begin(), parent.end(), size_t{0});
  const auto root = [&parent](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  const auto unite = [&](size_t a, size_t b) {
    a = root(a);
    b = root(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  TxnIdSet fresh_ids;
  for (const TrustedTxn& t : fresh) fresh_ids.insert(t.id);
  std::unordered_map<uint64_t, size_t> holder;
  for (size_t k = 0; k < d; ++k) {
    const TransactionId& id = entries[k]->first;
    const DeferredVerdict& verdict = *entries[k]->second.verdict;
    // Rule 3: a first-time deferral runs again as a reconsidered input.
    if (verdict.fresh) rerun[k] = true;
    for (uint64_t key : verdict.footprint) {
      auto [it, inserted] = holder.emplace(key, k);
      if (!inserted) unite(k, it->second);
    }
    for (const TransactionId& member : verdict.extension) {
      if (member == id) continue;
      // Rule 2: an antecedent was applied or rejected since (which
      // changes the extension or the CheckState verdict) or is fresh.
      if (applied_.count(member) != 0 || rejected_.count(member) != 0 ||
          fresh_ids.count(member) != 0) {
        rerun[k] = true;
      }
      if (auto it = index_of.find(member); it != index_of.end()) {
        unite(k, it->second);
      }
    }
  }
  // Rule 1: the footprint meets a key whose state changed since the
  // previous run, the own delta, or a fresh input.
  const auto touch = [&](const std::vector<uint64_t>& keys) {
    for (uint64_t key : keys) {
      if (auto it = holder.find(key); it != holder.end()) {
        rerun[it->second] = true;
      }
    }
  };
  touch(changed_keys_);
  touch(own_footprint);
  for (const std::vector<uint64_t>& footprint : fresh_footprints) {
    touch(footprint);
  }
  // Rule 2: a fresh transaction's extension contains it.
  for (const TrustedTxn& t : fresh) {
    for (const TransactionId& member : t.extension) {
      if (auto it = index_of.find(member); it != index_of.end()) {
        rerun[it->second] = true;
      }
    }
  }
  std::vector<bool> component_runs(d, false);
  for (size_t k = 0; k < d; ++k) {
    if (rerun[k]) component_runs[root(k)] = true;
  }
  for (size_t k = 0; k < d; ++k) rerun[k] = component_runs[root(k)];
  return rerun;
}

Result<ReconcileReport> Participant::RunAndCommit(
    UpdateStore* store, int64_t recno, Epoch epoch,
    std::vector<TrustedTxn> fresh, Stopwatch* local,
    std::optional<ReconcileAnalysis> shipped,
    const std::vector<TransactionId>& catch_up_applied,
    const std::vector<TransactionId>& catch_up_rejected) {
  ReconcileInput input;
  input.recno = recno;
  input.provider = &txn_cache_;
  input.applied = &applied_;
  input.rejected = &rejected_;
  input.dirty = &dirty_;
  input.collect_provenance = options_.record_provenance;
  input.trace = sim_trace_.get();
  const size_t reconsidered = deferred_.size();
  std::vector<uint64_t> own_footprint;
  {
    TraceSpan own_span("reconcile.own_delta", sim_trace_.get());
    auto own_flat = Flatten(*catalog_, own_delta_);
    if (own_flat.ok()) {
      input.own_delta = *std::move(own_flat);
    } else {
      // The own delta was applied locally, so it must flatten; tolerate
      // by passing it unflattened (conflict detection still works per
      // key).
      input.own_delta = own_delta_;
    }
    // Unflattened: every key whose state the delta may have changed.
    AppendFootprint(*catalog_, own_delta_, &own_footprint);
  }

  // Fresh inputs are flattened first: their footprints (AppendFootprint)
  // drive the carry rule. A shipped analysis already covers them.
  const size_t fetched = fresh.size();
  const bool has_shipped = shipped.has_value();
  ReconcileAnalysis analysis =
      has_shipped ? *std::move(shipped) : ReconcileAnalysis{};
  input.txns = std::move(fresh);
  {
    TraceSpan analysis_span("reconcile.phase.analysis", sim_trace_.get());
    FlattenExtensions(*catalog_, txn_cache_, input.txns, &analysis);
  }
  std::vector<std::vector<uint64_t>> footprints;
  std::vector<bool> rerun;
  {
    TraceSpan carry_span("reconcile.carry", sim_trace_.get());
    footprints.resize(fetched);
    for (size_t i = 0; i < fetched; ++i) {
      AppendFootprint(*catalog_, analysis.up_ex[i], &footprints[i]);
    }
    rerun = SelectRerun(input.txns, footprints, own_footprint);
  }
  // Reconsidered inputs follow the fresh ones in id order (deferred_
  // order), exactly as a run over the whole backlog would see them.
  {
    TraceSpan ext_span("reconcile.extensions", sim_trace_.get());
    size_t k = 0;
    for (const auto& [id, info] : deferred_) {
      if (!rerun[k++]) continue;
      TrustedTxn t;
      t.id = id;
      t.priority = info.priority;
      t.previously_deferred = true;
      ORCH_ASSIGN_OR_RETURN(t.extension,
                            ComputeExtension(txn_cache_, id, applied_));
      input.txns.push_back(std::move(t));
    }
  }
  const size_t n = input.txns.size();
  {
    TraceSpan analysis_span("reconcile.phase.analysis", sim_trace_.get());
    FlattenExtensions(*catalog_, txn_cache_, input.txns, &analysis);
    FindExtensionConflicts(*catalog_, txn_cache_, input.txns,
                           has_shipped ? fetched : 0, &analysis);
  }
  input.analysis = &analysis;

  ReconcileOutcome outcome;
  {
    TraceSpan run_span("reconcile.run", sim_trace_.get());
    ORCH_ASSIGN_OR_RETURN(outcome, reconciler_.Run(input, &instance_));
  }

  size_t carried = 0;
  {
    TraceSpan fold_span("reconcile.fold_state", sim_trace_.get());
    // Stamp the decision context the reconciler does not know.
    for (ProvenanceRecord& rec : outcome.provenance) {
      rec.peer = id_;
      rec.epoch = epoch;
    }
    // Verdicts of this run's deferred inputs, for later rounds to carry.
    // Its decided inputs change what the next run sees: phase 5 wrote
    // members of the accepted extensions, and every decided input leaves
    // the comparisons. The footprints of their unflattened extensions
    // cover both, so they are the keys the next run treats as changed.
    const TxnIdSet deferred_now(outcome.deferred_roots.begin(),
                                outcome.deferred_roots.end());
    std::map<TransactionId, DeferredInfo> next_deferred;
    std::vector<uint64_t> changed;
    for (size_t i = 0; i < n; ++i) {
      const TrustedTxn& t = input.txns[i];
      if (deferred_now.count(t.id) == 0) {
        for (const TransactionId& member : t.extension) {
          if (auto txn = txn_cache_.Get(member); txn.ok()) {
            AppendFootprint(*catalog_, (*txn)->updates, &changed);
          }
        }
        continue;
      }
      DeferredVerdict verdict;
      verdict.extension = t.extension;
      if (i < fetched) {
        verdict.footprint = std::move(footprints[i]);
      } else {
        AppendFootprint(*catalog_, analysis.up_ex[i], &verdict.footprint);
      }
      for (const Update& u : analysis.up_ex[i]) {
        const db::RelationSchema& schema =
            *catalog_->GetRelation(u.relation()).value();
        for (RelKey& rk : u.TouchedKeys(schema)) {
          verdict.dirty.push_back(std::move(rk));
        }
      }
      verdict.fresh = i < fetched;
      if (input.collect_provenance) verdict.record = outcome.provenance[i];
      next_deferred.emplace(t.id, DeferredInfo{t.priority, std::move(verdict)});
    }

    // Merge the carried verdicts back in. Outputs keep the order of a
    // run over the whole backlog: fresh inputs first, then every
    // reconsidered transaction by id.
    std::vector<TransactionId> deferred_roots;
    std::vector<ProvenanceRecord> provenance;
    for (size_t i = 0; i < fetched; ++i) {
      if (deferred_now.count(input.txns[i].id) != 0) {
        deferred_roots.push_back(input.txns[i].id);
      }
      if (input.collect_provenance) {
        provenance.push_back(std::move(outcome.provenance[i]));
      }
    }
    TxnIdSet carried_ids;
    size_t k = 0;
    size_t next_run = fetched;
    for (auto& [id, info] : deferred_) {
      if (rerun[k++]) {
        if (deferred_now.count(id) != 0) deferred_roots.push_back(id);
        if (input.collect_provenance) {
          provenance.push_back(std::move(outcome.provenance[next_run]));
        }
        ++next_run;
        continue;
      }
      ++carried;
      carried_ids.insert(id);
      deferred_roots.push_back(id);
      if (input.collect_provenance) {
        ProvenanceRecord rec = info.verdict->record;
        rec.recno = recno;
        rec.epoch = epoch;
        provenance.push_back(std::move(rec));
      }
      for (const RelKey& rk : info.verdict->dirty) {
        outcome.dirty_values.insert(rk);
      }
      next_deferred.emplace(id, std::move(info));
    }
    // A conflict group lies inside one component, so it is carried
    // whole; both lists are ordered by ConflictPoint.
    std::vector<ConflictGroup> groups;
    groups.reserve(conflict_groups_.size() + outcome.conflict_groups.size());
    auto ran = outcome.conflict_groups.begin();
    for (ConflictGroup& group : conflict_groups_) {
      if (carried_ids.count(group.options.front().txns.front()) == 0) {
        continue;
      }
      for (; ran != outcome.conflict_groups.end() && ran->point < group.point;
           ++ran) {
        groups.push_back(std::move(*ran));
      }
      groups.push_back(std::move(group));
    }
    for (; ran != outcome.conflict_groups.end(); ++ran) {
      groups.push_back(std::move(*ran));
    }
    outcome.deferred_roots = std::move(deferred_roots);
    outcome.provenance = std::move(provenance);

    // Fold the outcome into durable and soft state.
    UpdateVersionMap(outcome.applied_txns);
    for (const TransactionId& txn_id : outcome.applied_txns) {
      applied_.insert(txn_id);
    }
    for (const TransactionId& txn_id : outcome.rejected_roots) {
      rejected_.insert(txn_id);
    }
    deferred_ = std::move(next_deferred);
    changed_keys_ = std::move(changed);
    dirty_ = std::move(outcome.dirty_values);
    conflict_groups_ = std::move(groups);
    last_recno_ = recno;
    own_delta_.clear();
  }
  static Counter& carried_txns =
      MetricsRegistry::Global().GetCounter("reconcile.carried_txns");
  carried_txns.Add(static_cast<int64_t>(carried));

  // The local clock covers only client-side computation; decision
  // recording is store work and is timed by the store itself.
  const int64_t local_micros = local == nullptr ? 0 : local->ElapsedMicros();

  // Record this round's decisions plus any catch-up and any decisions a
  // previous round failed to record (deduplicated — recording twice is
  // harmless but wasteful). The common case has neither; it must not
  // pay for copies or a dedup set.
  const std::vector<TransactionId>* to_apply = &outcome.applied_txns;
  const std::vector<TransactionId>* to_reject = &outcome.rejected_roots;
  std::vector<TransactionId> record_applied;
  std::vector<TransactionId> record_rejected;
  if (!catch_up_applied.empty() || !catch_up_rejected.empty() ||
      !unrecorded_applied_.empty() || !unrecorded_rejected_.empty()) {
    record_applied = outcome.applied_txns;
    record_rejected = outcome.rejected_roots;
    TxnIdSet seen(record_applied.begin(), record_applied.end());
    seen.insert(record_rejected.begin(), record_rejected.end());
    auto merge = [&seen](std::vector<TransactionId>* dst,
                         const std::vector<TransactionId>& src) {
      for (const TransactionId& id : src) {
        if (seen.insert(id).second) dst->push_back(id);
      }
    };
    merge(&record_applied, catch_up_applied);
    merge(&record_applied, unrecorded_applied_);
    merge(&record_rejected, catch_up_rejected);
    merge(&record_rejected, unrecorded_rejected_);
    to_apply = &record_applied;
    to_reject = &record_rejected;
  }
  Status recorded;
  {
    TraceSpan record_span("reconcile.record_decisions", sim_trace_.get());
    recorded = store->RecordDecisions(id_, recno, *to_apply, *to_reject);
  }
  if (recorded.ok()) {
    unrecorded_applied_.clear();
    unrecorded_rejected_.clear();
    // Persist the explanations only after the decisions themselves are
    // durable: provenance is advisory, the decision log is not, and the
    // log must never trail its own explanation. Failures are counted
    // and dropped — a round never fails over its explanation.
    if (!outcome.provenance.empty()) {
      Status prov_recorded =
          store->RecordProvenance(id_, recno, outcome.provenance);
      if (!prov_recorded.ok()) {
        static Counter& prov_drops = MetricsRegistry::Global().GetCounter(
            "provenance.record_failures");
        prov_drops.Increment();
      }
    }
  } else if (recorded.code() == StatusCode::kUnavailable ||
             recorded.code() == StatusCode::kCorruption) {
    // Transient loss, or a request the store rejected as corrupted in
    // flight. Local state is already consistent, so the round still
    // succeeds; stash the decisions and re-send them with the next
    // recording instead of unwinding (or re-running) the round.
    unrecorded_applied_ = *to_apply;
    unrecorded_rejected_ = *to_reject;
  } else {
    return recorded;
  }

  static Counter& accepted_roots =
      MetricsRegistry::Global().GetCounter("reconcile.accepted_roots");
  static Counter& rejected_roots =
      MetricsRegistry::Global().GetCounter("reconcile.rejected_roots");
  static Counter& deferred_roots =
      MetricsRegistry::Global().GetCounter("reconcile.deferred_roots");
  accepted_roots.Add(static_cast<int64_t>(outcome.accepted_roots.size()));
  rejected_roots.Add(static_cast<int64_t>(outcome.rejected_roots.size()));
  deferred_roots.Add(static_cast<int64_t>(outcome.deferred_roots.size()));

  if (!outcome.provenance.empty()) {
    static Counter& prov_records =
        MetricsRegistry::Global().GetCounter("provenance.records");
    static Counter& prov_dilemmas =
        MetricsRegistry::Global().GetCounter("provenance.dilemmas");
    static Counter& prov_transitive = MetricsRegistry::Global().GetCounter(
        "provenance.transitive_accepts");
    prov_records.Add(static_cast<int64_t>(outcome.provenance.size()));
    int64_t dilemmas = 0;
    int64_t transitive = 0;
    for (const ProvenanceRecord& rec : outcome.provenance) {
      if (rec.cause == ProvenanceCause::kEqualPriorityDilemma) ++dilemmas;
      if (rec.cause == ProvenanceCause::kTransitiveAccept) ++transitive;
    }
    prov_dilemmas.Add(dilemmas);
    prov_transitive.Add(transitive);
    provenance_log_.insert(provenance_log_.end(), outcome.provenance.begin(),
                           outcome.provenance.end());
  }

  ReconcileReport report;
  report.local_micros = local_micros;
  report.recno = recno;
  report.epoch = epoch;
  report.fetched = fetched;
  report.reconsidered = reconsidered;
  report.carried = carried;
  report.accepted = std::move(outcome.accepted_roots);
  report.rejected = std::move(outcome.rejected_roots);
  report.deferred = std::move(outcome.deferred_roots);
  report.open_conflict_groups = conflict_groups_.size();
  report.provenance = std::move(outcome.provenance);
  return report;
}

void Participant::UpdateVersionMap(
    const std::vector<TransactionId>& applied_txns) {
  // Publication order so the last writer wins.
  std::vector<const Transaction*> txns;
  txns.reserve(applied_txns.size());
  for (const TransactionId& id : applied_txns) {
    auto txn = txn_cache_.Get(id);
    if (txn.ok()) txns.push_back(*txn);
  }
  std::sort(txns.begin(), txns.end(),
            [](const Transaction* a, const Transaction* b) {
              if (a->epoch != b->epoch) return a->epoch < b->epoch;
              return a->id < b->id;
            });
  for (const Transaction* txn : txns) AdvanceVersions(txn->updates, txn->id);
}

void Participant::AdvanceVersions(const std::vector<Update>& updates,
                                  const TransactionId& txn_id) {
  // Updates come in runs of one relation; resolve its schema once per
  // run, and build each RelKey once, moving it into the map.
  const std::string* relation = nullptr;
  const db::RelationSchema* schema = nullptr;
  for (const Update& u : updates) {
    if (relation == nullptr || u.relation() != *relation) {
      relation = &u.relation();
      schema = catalog_->GetRelation(*relation).value();
    }
    std::optional<db::Tuple> read = u.ReadKey(*schema);
    std::optional<db::Tuple> write = u.WriteKey(*schema);
    if (read && write && *read == *write) {
      // A modify in place: only the key's last writer changes.
      RelKey rk{*relation, *std::move(write)};
      if (!tombstone_map_.empty()) tombstone_map_.erase(rk);
      version_map_.insert_or_assign(std::move(rk), txn_id);
      continue;
    }
    if (read) {
      RelKey rk{*relation, *std::move(read)};
      version_map_.erase(rk);
      if (u.is_delete()) tombstone_map_.insert_or_assign(std::move(rk), txn_id);
    }
    if (write) {
      RelKey rk{*relation, *std::move(write)};
      if (!tombstone_map_.empty()) tombstone_map_.erase(rk);
      version_map_.insert_or_assign(std::move(rk), txn_id);
    }
  }
}

Result<ReconcileReport> Participant::ReconcileNetworkCentric(
    UpdateStore* store) {
  auto* nc = dynamic_cast<NetworkCentricStore*>(store);
  if (nc == nullptr) {
    return Status::NotSupported(std::string(store->name()) +
                                " store does not support network-centric "
                                "reconciliation");
  }
  TraceSpan span("participant.reconcile_network_centric", sim_trace_.get());
  const StoreStats before = store->StatsFor(id_);
  NetworkCentricFetch fetch;
  {
    TraceSpan fetch_span("reconcile.fetch", sim_trace_.get());
    ORCH_ASSIGN_OR_RETURN(fetch, nc->BeginNetworkCentricReconciliation(id_));
  }

  Stopwatch local;
  {
    TraceSpan fold_span("reconcile.fold_cache", sim_trace_.get());
    ORCH_RETURN_IF_ERROR(
        CheckAgainstCatalog(*catalog_, fetch.base.transactions));
    for (Transaction& txn : fetch.base.transactions) {
      txn_cache_.Put(std::move(txn));
    }
  }
  // If the store resent something we already know, the shipped analysis
  // indices no longer line up — drop those entries and recompute
  // locally. Resent *decided* transactions mean the store lost the
  // decision; re-record them this round.
  bool analysis_valid = true;
  std::vector<TrustedTxn> txns;
  txns.reserve(fetch.trusted_txns.size());
  std::vector<TransactionId> catch_up_applied;
  std::vector<TransactionId> catch_up_rejected;
  for (TrustedTxn& t : fetch.trusted_txns) {
    if (applied_.count(t.id) != 0) {
      analysis_valid = false;
      catch_up_applied.push_back(t.id);
      continue;
    }
    if (rejected_.count(t.id) != 0) {
      analysis_valid = false;
      catch_up_rejected.push_back(t.id);
      continue;
    }
    if (deferred_.count(t.id) != 0) {
      analysis_valid = false;  // the deferred backlog covers it
      continue;
    }
    txns.push_back(std::move(t));
  }

  // RunAndCommit extends the network-computed analysis with the
  // reconsidered transactions it runs: it flattens that tail and finds
  // the conflicts of pairs involving at least one of them.
  std::optional<ReconcileAnalysis> shipped;
  if (analysis_valid) shipped = std::move(fetch.analysis);
  ORCH_ASSIGN_OR_RETURN(
      ReconcileReport report,
      RunAndCommit(store, fetch.base.recno, fetch.base.epoch, std::move(txns),
                   &local, std::move(shipped), catch_up_applied,
                   catch_up_rejected));
  report.store = store->StatsFor(id_) - before;
  report.fetch_stats = fetch.base.stats;
  RecordFetchMetrics(report.fetched, report.reconsidered);
  return report;
}

namespace {

/// Adds `delta` to `*total`, saturating at INT64_MAX instead of
/// wrapping (signed overflow is UB). Both operands non-negative.
void SaturatingAdd(int64_t* total, int64_t delta) {
  if (*total > std::numeric_limits<int64_t>::max() - delta) {
    *total = std::numeric_limits<int64_t>::max();
  } else {
    *total += delta;
  }
}

/// Runs `op` up to retry.max_attempts times, retrying only Unavailable
/// (transient) failures. Backoff is accumulated into `stats`, never
/// slept: the simulation charges it as time without paying it. Each
/// step is capped at retry.max_backoff_micros *before* jitter (the
/// exponential growth itself is clamped, so no intermediate value can
/// overflow int64), then jittered from the caller's seeded stream (see
/// ReconcileRetryOptions::backoff_jitter) to break retry lockstep.
template <typename Op>
auto RetryUnavailable(const ReconcileRetryOptions& retry, RetryStats* stats,
                      Rng* rng, Op&& op) -> decltype(op()) {
  static Counter& retry_ops = MetricsRegistry::Global().GetCounter("retry.operations");
  static Counter& retry_attempts =
      MetricsRegistry::Global().GetCounter("retry.attempts");
  static Counter& retry_backoff =
      MetricsRegistry::Global().GetCounter("retry.backoff_sim_micros");
  static Counter& retry_exhausted =
      MetricsRegistry::Global().GetCounter("retry.exhausted");
  retry_ops.Increment();
  const int64_t cap = std::max<int64_t>(1, retry.max_backoff_micros);
  int64_t backoff =
      std::clamp<int64_t>(retry.initial_backoff_micros, 0, cap);
  for (int attempt = 1;; ++attempt) {
    auto result = op();
    // Accumulate (never overwrite): a stats struct shared across
    // several retried ops totals all their attempts, matching how
    // backoff_micros has always summed.
    if (stats != nullptr) ++stats->attempts;
    retry_attempts.Increment();
    // Retryable failures: outright loss (kUnavailable) and payloads the
    // receiver's checksum rejected (kCorruption). Both are properties of
    // one network traversal; a fresh attempt draws fresh randomness.
    const bool transient =
        !result.ok() &&
        (result.status().code() == StatusCode::kUnavailable ||
         result.status().code() == StatusCode::kCorruption);
    if (!transient || attempt >= retry.max_attempts) {
      if (transient) retry_exhausted.Increment();
      return result;
    }
    int64_t step = backoff;
    if (retry.backoff_jitter > 0 && rng != nullptr) {
      const double factor = 1.0 - retry.backoff_jitter +
                            2.0 * retry.backoff_jitter * rng->NextDouble();
      // Upward jitter may exceed the cap by up to the jitter fraction;
      // clamp in the double domain so the cast can never overflow even
      // when the cap itself is near INT64_MAX.
      const double jittered =
          std::min(static_cast<double>(backoff) * factor,
                   static_cast<double>(std::numeric_limits<int64_t>::max() / 2));
      step = std::max<int64_t>(static_cast<int64_t>(jittered), 0);
    }
    if (stats != nullptr) SaturatingAdd(&stats->backoff_micros, step);
    retry_backoff.Add(step);
    // Grow in the double domain and clamp to the cap before casting:
    // a double comfortably holds any pre-clamp product, and the cast
    // back only ever sees values <= cap.
    const double grown =
        static_cast<double>(backoff) * retry.backoff_multiplier;
    backoff = grown >= static_cast<double>(cap) ? cap
                                                : static_cast<int64_t>(grown);
    backoff = std::max<int64_t>(backoff, 0);
  }
}

}  // namespace

Result<Epoch> Participant::PublishWithRetry(UpdateStore* store,
                                            const ReconcileRetryOptions& retry,
                                            RetryStats* stats) {
  // Publish keeps the queue on failure and the store stages the epoch,
  // so each attempt starts from a clean slate.
  return RetryUnavailable(retry, stats, &retry_rng_,
                          [&]() { return Publish(store); });
}

Result<ReconcileReport> Participant::ReconcileWithRetry(
    UpdateStore* store, const ReconcileRetryOptions& retry,
    RetryStats* stats) {
  return RetryUnavailable(retry, stats, &retry_rng_,
                          [&]() { return Reconcile(store); });
}

Result<ReconcileReport> Participant::ReconcileNetworkCentricWithRetry(
    UpdateStore* store, const ReconcileRetryOptions& retry,
    RetryStats* stats) {
  return RetryUnavailable(retry, stats, &retry_rng_,
                          [&]() { return ReconcileNetworkCentric(store); });
}

Result<ReconcileReport> Participant::PublishAndReconcile(UpdateStore* store) {
  auto epoch = Publish(store);
  if (!epoch.ok()) return epoch.status();
  return Reconcile(store);
}

Result<ReconcileReport> Participant::ResolveConflict(
    UpdateStore* store, size_t group_index,
    std::optional<size_t> chosen_option) {
  if (group_index >= conflict_groups_.size()) {
    return Status::OutOfRange("no conflict group " +
                              std::to_string(group_index));
  }
  const ConflictGroup group = conflict_groups_[group_index];
  if (chosen_option && *chosen_option >= group.options.size()) {
    return Status::OutOfRange("conflict group has no option " +
                              std::to_string(*chosen_option));
  }
  // Reject every transaction in the options the user did not select.
  std::vector<TransactionId> losers;
  std::vector<ProvenanceRecord> loser_records;
  for (size_t i = 0; i < group.options.size(); ++i) {
    if (chosen_option && i == *chosen_option) continue;
    for (const TransactionId& id : group.options[i].txns) {
      losers.push_back(id);
      rejected_.insert(id);
      deferred_.erase(id);
      if (options_.record_provenance) {
        ProvenanceRecord rec;
        rec.peer = id_;
        rec.recno = last_recno_;
        rec.txn = id;
        rec.verdict = Decision::kReject;
        rec.cause = ProvenanceCause::kUserRejected;
        rec.detail = "user resolved " + group.point.ToString() +
                     (chosen_option
                          ? " choosing option " + std::to_string(*chosen_option)
                          : " rejecting every option");
        loser_records.push_back(std::move(rec));
      }
    }
  }
  // Re-run reconciliation over the remaining deferred transactions (the
  // chosen option plus everything else still pending). The losers ride
  // along with that run's decision recording as catch-up rejections, so
  // the store sees one consolidated RecordDecisions call.
  // The rejections change what every remaining verdict is compared
  // against, so the whole backlog runs again.
  const StoreStats before = store->StatsFor(id_);
  Stopwatch local;
  ForgetCarriedVerdicts();
  ORCH_ASSIGN_OR_RETURN(
      ReconcileReport report,
      RunAndCommit(store, last_recno_, kNoEpoch, /*fresh=*/{}, &local,
                   /*shipped=*/std::nullopt, /*catch_up_applied=*/{},
                   /*catch_up_rejected=*/losers));
  report.store = store->StatsFor(id_) - before;
  // The losing options' explanations: recorded after the consolidated
  // decision recording inside RunAndCommit succeeded, same best-effort
  // contract as every provenance write.
  if (!loser_records.empty()) {
    static Counter& prov_records =
        MetricsRegistry::Global().GetCounter("provenance.records");
    prov_records.Add(static_cast<int64_t>(loser_records.size()));
    if (!store->RecordProvenance(id_, last_recno_, loser_records).ok()) {
      static Counter& prov_drops =
          MetricsRegistry::Global().GetCounter("provenance.record_failures");
      prov_drops.Increment();
    }
    for (ProvenanceRecord& rec : loser_records) {
      report.provenance.push_back(rec);
      provenance_log_.push_back(std::move(rec));
    }
  }
  return report;
}

}  // namespace orchestra::core

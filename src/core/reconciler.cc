#include "core/reconciler.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/analysis.h"
#include "core/apply.h"
#include "core/flatten.h"

namespace orchestra::core {

namespace {

// Per-transaction provenance accumulated while the decision phases run;
// folded into ProvenanceRecords once verdicts are final. `decided_by`
// indexes the conflicting input transaction whose comparison settled
// the verdict (kNoDecider when no comparison did).
constexpr size_t kNoDecider = static_cast<size_t>(-1);
struct ProvNote {
  ProvenanceCause cause = ProvenanceCause::kUnexplained;
  size_t decided_by = kNoDecider;
  std::optional<RelKey> dirty_key;
  std::optional<TransactionId> blocker;
  std::string detail;
};

// CheckState (Fig. 5): the per-transaction decision that can be made
// before considering conflicts with other relevant transactions.
// `own_delta` indexes the flattened own delta once per run. `note`, when
// non-null, receives the cause and its evidence.
Decision CheckState(const db::Catalog& catalog, const db::Instance& instance,
                    const ReconcileInput& input, const ConflictIndex& own_delta,
                    const TrustedTxn& txn, const std::vector<Update>& up_ex,
                    ProvNote* note) {
  const std::vector<TransactionId>& extension = txn.extension;
  // Line 1: anything touching a dirty value is deferred so that a
  // previously deferred transaction can still be accepted later.
  // Reconsidered (previously deferred) transactions skip this check —
  // their own marks are the dirty values.
  if (!txn.previously_deferred && input.dirty != nullptr &&
      !input.dirty->empty()) {
    for (const Update& u : up_ex) {
      const db::RelationSchema& schema =
          *catalog.GetRelation(u.relation()).value();
      for (const RelKey& rk : u.TouchedKeys(schema)) {
        if (input.dirty->count(rk) != 0) {
          if (note != nullptr) {
            note->cause = ProvenanceCause::kDirtyValue;
            note->dirty_key = rk;
          }
          return Decision::kDefer;
        }
      }
    }
  }
  // Line 3: an extension containing an explicitly rejected transaction
  // can never be accepted.
  if (input.rejected != nullptr) {
    for (const TransactionId& id : extension) {
      if (input.rejected->count(id) != 0) {
        if (note != nullptr) {
          note->cause = ProvenanceCause::kRejectedAntecedent;
          note->blocker = id;
        }
        return Decision::kReject;
      }
    }
  }
  // Line 5: the flattened extension must be applicable to the instance
  // without violating integrity constraints.
  if (Status applicable = CheckApplicable(instance, up_ex);
      !applicable.ok()) {
    if (note != nullptr) {
      note->cause = ProvenanceCause::kNotApplicable;
      note->detail = applicable.ToString();
    }
    return Decision::kReject;
  }
  // Line 7: conflicts with the participant's own delta for this
  // reconciliation lose outright — a peer always keeps its own version.
  if (!own_delta.empty()) {
    std::vector<ConflictPoint> own_points = own_delta.Conflicts(up_ex);
    if (!own_points.empty()) {
      if (note != nullptr) {
        note->cause = ProvenanceCause::kOwnDeltaConflict;
        note->detail = own_points.front().ToString();
      }
      return Decision::kReject;
    }
  }
  if (note != nullptr) note->cause = ProvenanceCause::kCleanAccept;
  return Decision::kAccept;
}

// Origin-free rendering of one update, so that two peers making the same
// modification compare equal.
std::string UpdateEffect(const Update& u) {
  switch (u.kind()) {
    case UpdateKind::kInsert:
      return "+" + u.relation() + u.new_tuple().ToString();
    case UpdateKind::kDelete:
      return "-" + u.relation() + u.old_tuple().ToString();
    case UpdateKind::kModify:
      return u.relation() + "(" + u.old_tuple().ToString() + " -> " +
             u.new_tuple().ToString() + ")";
  }
  return "?";
}

// Normalized rendering of the modification a flattened extension makes to
// one contested key; transactions with equal effects form one option.
std::string EffectOnKey(const db::Catalog& catalog,
                        const std::vector<Update>& up_ex,
                        const RelKey& key) {
  std::vector<std::string> parts;
  for (const Update& u : up_ex) {
    const db::RelationSchema& schema =
        *catalog.GetRelation(u.relation()).value();
    for (const RelKey& rk : u.TouchedKeys(schema)) {
      if (rk == key) {
        parts.push_back(UpdateEffect(u));
        break;
      }
    }
  }
  std::sort(parts.begin(), parts.end());
  return Join(parts, "; ");
}

}  // namespace

Result<ReconcileOutcome> Reconciler::Run(const ReconcileInput& input,
                                         db::Instance* instance) const {
  ORCH_CHECK(input.provider != nullptr);
  const size_t n = input.txns.size();
  ReconcileOutcome outcome;

  // Phases share variables, so per-phase spans roll over via optional
  // instead of lexical scopes; emplace() ends the previous span before
  // beginning the next.
  std::optional<TraceSpan> phase_span;

  const bool prov_on = input.collect_provenance;
  std::vector<ProvNote> notes(prov_on ? n : 0);
  const auto note_of = [&](size_t i) -> ProvNote* {
    return prov_on ? &notes[i] : nullptr;
  };

  // --- Phase 1 (Fig. 4 lines 5-8): flatten extensions, check state. ---
  // Phases 1-2 (Fig. 4 lines 5-9): flatten extensions and find the
  // direct, non-subsumed conflicts — either precomputed by the caller
  // (Participant, which also merges the network's share in
  // network-centric mode) or computed here.
  ReconcileAnalysis local_analysis;
  const ReconcileAnalysis* analysis = input.analysis;
  if (analysis == nullptr) {
    phase_span.emplace("reconcile.phase.analysis", input.trace);
    local_analysis = AnalyzeExtensions(*catalog_, *input.provider, input.txns);
    analysis = &local_analysis;
  }
  ORCH_CHECK(analysis->up_ex.size() == n && analysis->flatten_ok.size() == n,
             "analysis does not cover the input transactions");
  const std::vector<std::vector<Update>>& up_ex = analysis->up_ex;

  static Counter& analyzed_txns =
      MetricsRegistry::Global().GetCounter("reconcile.analyzed_txns");
  static Counter& conflict_pairs =
      MetricsRegistry::Global().GetCounter("reconcile.conflict_pairs");
  analyzed_txns.Add(static_cast<int64_t>(n));
  conflict_pairs.Add(static_cast<int64_t>(analysis->conflicts.size()));

  phase_span.emplace("reconcile.phase.check_state", input.trace);
  const ConflictIndex own_delta(*catalog_, input.own_delta);
  std::vector<Decision> decision(n, Decision::kUndecided);
  for (size_t i = 0; i < n; ++i) {
    if (!analysis->flatten_ok[i]) {
      // An internally inconsistent extension can never be applied.
      decision[i] = Decision::kReject;
      if (prov_on) notes[i].cause = ProvenanceCause::kFlattenInconsistent;
      continue;
    }
    decision[i] = CheckState(*catalog_, *instance, input, own_delta,
                             input.txns[i], up_ex[i], note_of(i));
  }

  std::vector<std::vector<size_t>> conflicts(n);
  for (const ReconcileAnalysis::Pair& pair : analysis->conflicts) {
    ORCH_CHECK(pair.i < n && pair.j < n);
    if (pair.points.empty()) continue;
    conflicts[pair.i].push_back(pair.j);
    conflicts[pair.j].push_back(pair.i);
  }

  // --- Phase 3 (Fig. 4 lines 10-12): DoGroup by decreasing priority. ---
  phase_span.emplace("reconcile.phase.priority_groups", input.trace);
  // Provenance hooks: called *before* the decision slot is mutated so
  // an earlier defer cause (dirty value) is not overwritten by a later
  // mechanical defer; a reject always takes the losing comparison.
  const auto note_lost = [&](size_t t, size_t by) {
    if (!prov_on) return;
    notes[t].cause = ProvenanceCause::kLostConflict;
    notes[t].decided_by = by;
  };
  const auto note_defer = [&](size_t t, size_t by, ProvenanceCause why) {
    if (!prov_on || decision[t] == Decision::kDefer) return;
    notes[t].cause = why;
    notes[t].decided_by = by;
  };
  std::vector<int> prios;
  for (const TrustedTxn& t : input.txns) prios.push_back(t.priority);
  std::sort(prios.begin(), prios.end(), std::greater<int>());
  prios.erase(std::unique(prios.begin(), prios.end()), prios.end());
  for (int prio : prios) {
    std::vector<size_t> group;
    for (size_t i = 0; i < n; ++i) {
      if (input.txns[i].priority == prio && decision[i] != Decision::kReject) {
        group.push_back(i);
      }
    }
    // Conflicts with strictly higher-priority transactions.
    for (size_t gi = 0; gi < group.size(); ++gi) {
      const size_t t = group[gi];
      for (size_t c : conflicts[t]) {
        if (input.txns[c].priority <= prio) continue;
        if (decision[c] == Decision::kAccept) {
          note_lost(t, c);
          decision[t] = Decision::kReject;
          break;
        }
        if (decision[c] == Decision::kDefer) {
          note_defer(t, c, ProvenanceCause::kBlockedByDeferral);
          decision[t] = Decision::kDefer;
        }
      }
    }
    group.erase(std::remove_if(group.begin(), group.end(),
                               [&](size_t t) {
                                 return decision[t] == Decision::kReject;
                               }),
                group.end());
    // Equal-priority conflicts defer both sides (certain-answers model).
    // Walk the conflict adjacency instead of all group pairs: only
    // edges with recorded conflict points can defer anyone.
    for (size_t t : group) {
      for (size_t c : conflicts[t]) {
        if (input.txns[c].priority != prio) continue;
        if (decision[c] == Decision::kReject) continue;
        note_defer(t, c, ProvenanceCause::kEqualPriorityDilemma);
        note_defer(c, t, ProvenanceCause::kEqualPriorityDilemma);
        decision[t] = Decision::kDefer;
        decision[c] = Decision::kDefer;
      }
    }
  }

  // --- Phase 4: propagate *deferral* through dependency chains: a
  // transaction whose extension contains a deferred input transaction is
  // itself deferred (§4.2 — its antecedent is entangled in a pending
  // user decision). Rejection deliberately does NOT propagate within the
  // round: Definition 5 condition 4 only excludes extensions containing
  // *previously* rejected work (handled in CheckState). A chain whose
  // own flattened extension is applicable is accepted even when its
  // antecedent, considered as an independent root, lost a conflict — the
  // chain's net effect supersedes the intermediate state ("least
  // interaction", §3.1), and the antecedent is then transitively
  // accepted through the chain (reclassified below).
  phase_span.emplace("reconcile.phase.propagate_deferral", input.trace);
  std::unordered_map<TransactionId, size_t, TransactionIdHash> index_of;
  for (size_t i = 0; i < n; ++i) index_of[input.txns[i].id] = i;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (decision[i] != Decision::kAccept) continue;
      for (const TransactionId& id : input.txns[i].extension) {
        auto it = index_of.find(id);
        if (it == index_of.end() || it->second == i) continue;
        if (decision[it->second] == Decision::kDefer) {
          if (prov_on) {
            notes[i].cause = ProvenanceCause::kDeferredAntecedent;
            notes[i].decided_by = it->second;
            notes[i].blocker = id;
          }
          decision[i] = Decision::kDefer;
          changed = true;
          break;
        }
      }
    }
  }

  // --- Phase 5 (Fig. 4 lines 14-19): apply accepted extensions in
  // publication order, sharing a Used set so overlapping antecedents are
  // applied exactly once (Definition 5).
  phase_span.emplace("reconcile.phase.apply", input.trace);
  std::vector<size_t> accepted;
  for (size_t i = 0; i < n; ++i) {
    if (decision[i] == Decision::kAccept) accepted.push_back(i);
  }
  // One provider lookup per accepted transaction, not per comparison.
  std::vector<Epoch> epoch_of(n, kNoEpoch);
  for (size_t i : accepted) {
    if (auto t = input.provider->Get(input.txns[i].id); t.ok()) {
      epoch_of[i] = (*t)->epoch;
    }
  }
  std::sort(accepted.begin(), accepted.end(), [&](size_t a, size_t b) {
    if (epoch_of[a] != epoch_of[b]) return epoch_of[a] < epoch_of[b];
    return input.txns[a].id < input.txns[b].id;
  });
  TxnIdSet used;
  for (size_t i : accepted) {
    const std::vector<TransactionId>& extension = input.txns[i].extension;
    // With no member applied yet, the footprint is the whole extension,
    // which analysis already flattened; only an overlap with the Used
    // set needs the remainder rebuilt and flattened.
    const bool overlaps = std::any_of(
        extension.begin(), extension.end(),
        [&](const TransactionId& id) { return used.count(id) != 0; });
    std::vector<Update> footprint;
    std::vector<Update> rest;
    const std::vector<Update>* flat = &up_ex[i];
    Status applied_status;
    if (overlaps) {
      footprint = UpdateFootprint(*input.provider, extension, used);
      auto flattened = Flatten(*catalog_, footprint);
      if (flattened.ok()) {
        rest = *std::move(flattened);
        flat = &rest;
      } else {
        applied_status = flattened.status();
        flat = nullptr;
      }
    }
    if (flat != nullptr) applied_status = ApplyFlattened(instance, *flat);
    if (!applied_status.ok()) {
      // The flattened form can be stale when an extension member's
      // effect already reached the instance through a *different but
      // identical* accepted transaction (agreement is detected pairwise,
      // not across chains). Replaying the footprint step by step with
      // idempotent application absorbs the already-achieved prefix.
      if (!overlaps) {
        footprint = UpdateFootprint(*input.provider, extension, used);
      }
      applied_status = Status::OK();
      for (const Update& u : footprint) {
        applied_status = ApplyFlattened(instance, {u});
        if (!applied_status.ok()) break;
      }
    }
    if (!applied_status.ok()) {
      // Defensive: CheckState vetted each extension in isolation, but an
      // unforeseen interaction between accepted extensions surfaces
      // here; reject rather than corrupt the instance.
      ORCH_LOG(Warning) << "accepted transaction "
                        << input.txns[i].id.ToString()
                        << " failed to apply: " << applied_status.ToString();
      if (prov_on) {
        notes[i].cause = ProvenanceCause::kApplyFailed;
        notes[i].detail = applied_status.ToString();
      }
      decision[i] = Decision::kReject;
      continue;
    }
    for (const TransactionId& id : extension) used.insert(id);
  }
  // ORCH_LINT(allow:D3): the assigned vector is sorted on the next line; hash order never escapes
  outcome.applied_txns.assign(used.begin(), used.end());
  std::sort(outcome.applied_txns.begin(), outcome.applied_txns.end());

  // A root that lost its own conflict but rode into the instance inside
  // an accepted dependent's extension was transitively accepted; its
  // recorded decision must say so (applied and rejected are exclusive).
  for (size_t i = 0; i < n; ++i) {
    if (decision[i] == Decision::kReject &&
        used.count(input.txns[i].id) != 0) {
      decision[i] = Decision::kAccept;
      // The lost comparison (if any) stays marked decisive: the record
      // shows both the lost trust edge and the chain that carried the
      // transaction in anyway.
      if (prov_on) notes[i].cause = ProvenanceCause::kTransitiveAccept;
    }
  }

  // Verdicts are final; fold the notes and every pairwise trust
  // comparison into ProvenanceRecords (input order). Deterministic:
  // analysis->conflicts is sorted by (i, j) and every collection below
  // iterates in index order.
  if (prov_on) {
    std::vector<std::vector<ProvenanceComparison>> comps(n);
    for (const ReconcileAnalysis::Pair& pair : analysis->conflicts) {
      if (pair.points.empty()) continue;
      ProvenanceComparison fwd;
      fwd.counterparty = input.txns[pair.j].id;
      fwd.own_priority = input.txns[pair.i].priority;
      fwd.counterparty_priority = input.txns[pair.j].priority;
      fwd.points = pair.points;
      fwd.decisive = notes[pair.i].decided_by == pair.j;
      comps[pair.i].push_back(std::move(fwd));
      ProvenanceComparison rev;
      rev.counterparty = input.txns[pair.i].id;
      rev.own_priority = input.txns[pair.j].priority;
      rev.counterparty_priority = input.txns[pair.i].priority;
      rev.points = pair.points;
      rev.decisive = notes[pair.j].decided_by == pair.i;
      comps[pair.j].push_back(std::move(rev));
    }
    outcome.provenance.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ProvenanceRecord rec;
      rec.recno = input.recno;
      rec.txn = input.txns[i].id;
      rec.priority = input.txns[i].priority;
      rec.verdict = decision[i];
      rec.cause = notes[i].cause;
      // An accept that survived real competition is a win, not a
      // clean pass.
      if (rec.cause == ProvenanceCause::kCleanAccept && !comps[i].empty()) {
        rec.cause = ProvenanceCause::kWonConflict;
      }
      for (const TransactionId& id : input.txns[i].extension) {
        if (id != input.txns[i].id) rec.antecedents.push_back(id);
      }
      rec.comparisons = std::move(comps[i]);
      rec.dirty_key = std::move(notes[i].dirty_key);
      rec.blocker = std::move(notes[i].blocker);
      rec.detail = std::move(notes[i].detail);
      outcome.provenance.push_back(std::move(rec));
    }
  }

  // --- Phase 6 (Fig. 5 UpdateSoftState): rebuild dirty values and
  // conflict groups from this run's deferred set. ---
  phase_span.emplace("reconcile.phase.soft_state", input.trace);
  std::map<ConflictPoint, std::vector<size_t>> group_members;
  for (size_t i = 0; i < n; ++i) {
    switch (decision[i]) {
      case Decision::kAccept:
        outcome.accepted_roots.push_back(input.txns[i].id);
        break;
      case Decision::kReject:
        outcome.rejected_roots.push_back(input.txns[i].id);
        break;
      case Decision::kDefer: {
        outcome.deferred_roots.push_back(input.txns[i].id);
        for (const Update& u : up_ex[i]) {
          const db::RelationSchema& schema =
              *catalog_->GetRelation(u.relation()).value();
          for (RelKey& rk : u.TouchedKeys(schema)) {
            outcome.dirty_values.insert(std::move(rk));
          }
        }
        break;
      }
      case Decision::kUndecided:
        ORCH_CHECK(false, "transaction left undecided");
    }
  }
  // analysis->conflicts is sorted by (i, j), matching the iteration
  // order of the std::map this loop previously walked.
  for (const ReconcileAnalysis::Pair& pair : analysis->conflicts) {
    if (pair.points.empty()) continue;
    if (decision[pair.i] != Decision::kDefer ||
        decision[pair.j] != Decision::kDefer) {
      continue;
    }
    for (const ConflictPoint& point : pair.points) {
      auto& members = group_members[point];
      for (size_t idx : {pair.i, pair.j}) {
        if (std::find(members.begin(), members.end(), idx) == members.end()) {
          members.push_back(idx);
        }
      }
    }
  }
  for (auto& [point, members] : group_members) {
    ConflictGroup group;
    group.point = point;
    // A member strictly subsumed by another member is that member's
    // antecedent: accepting the subsumer transitively accepts it, so it
    // rides in the subsumer's option rather than forming its own.
    auto covering = [&](size_t idx) {
      size_t best = idx;
      for (size_t j : members) {
        if (j == idx) continue;
        const auto& ext_j = input.txns[j].extension;
        const auto& ext_best = input.txns[best].extension;
        if (ext_j.size() > ext_best.size() &&
            Subsumes(ext_j, input.txns[idx].extension)) {
          best = j;
        }
      }
      return best;
    };
    // Compatible transactions (same modification to the contested key)
    // combine into one option.
    std::map<std::string, size_t> option_of_effect;
    for (size_t idx : members) {
      const size_t representative = covering(idx);
      const std::string effect =
          EffectOnKey(*catalog_, up_ex[representative], point.key);
      auto [it, inserted] =
          option_of_effect.emplace(effect, group.options.size());
      if (inserted) {
        group.options.push_back(ConflictOption{{}, effect});
      }
      group.options[it->second].txns.push_back(input.txns[idx].id);
    }
    outcome.conflict_groups.push_back(std::move(group));
  }
  return outcome;
}

}  // namespace orchestra::core

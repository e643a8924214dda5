#include "store/central_store.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/serde.h"
#include "core/closure_walk.h"
#include "core/extension.h"

namespace orchestra::store {

using core::Epoch;
using core::ParticipantId;
using core::ProvenanceRecord;
using core::ReconcileFetch;
using core::Transaction;
using core::TransactionId;
using core::TxnIdSet;

CentralStore::CentralStore(storage::StorageEngine* engine,
                           net::SimNetwork* network,
                           CentralStoreOptions options,
                           const db::Catalog* catalog)
    : engine_(engine), network_(network), options_(options),
      catalog_(catalog) {
  ORCH_CHECK(engine != nullptr && network != nullptr);
}

std::string CentralStore::TxnKey(const TransactionId& id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%010u:%016" PRIu64, id.origin, id.seq);
  return buf;
}

std::string CentralStore::EpochKey(Epoch epoch) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRId64, epoch);
  return buf;
}

std::string CentralStore::FreeRecordingKey(const std::string& table,
                                           int64_t recno) const {
  char buf[48];
  for (int64_t n = 0;; ++n) {
    std::snprintf(buf, sizeof(buf), "%016" PRId64 ":%06" PRId64, recno, n);
    if (!engine_->Contains(table, buf)) return buf;
  }
}

TransactionId CentralStore::ParseTxnKey(const std::string& key) {
  // TxnKey is "%010u:%016u" — fixed-width decimal, ':' at offset 10.
  TransactionId id;
  id.origin =
      static_cast<ParticipantId>(std::strtoul(key.c_str(), nullptr, 10));
  id.seq = std::strtoull(key.c_str() + 11, nullptr, 10);
  return id;
}

Status CentralStore::RegisterParticipant(ParticipantId peer,
                                         const core::TrustPolicy* policy) {
  ORCH_CHECK(policy != nullptr);
  policies_[peer] = policy;
  // Re-registration (e.g. after the store recovers from its WAL) must
  // preserve the peer's durable epoch watermark.
  if (!engine_->Contains("peers", std::to_string(peer))) {
    ORCH_RETURN_IF_ERROR(engine_->Put("peers", std::to_string(peer),
                                      EpochKey(0)));
  }
  return Status::OK();
}

namespace {
/// Re-reads of a row whose checksum failed; the per-read corruption
/// draw is fresh each time, so persistent failure (kDataLoss) means the
/// row is rotten beyond what redundancy can fix — vanishingly unlikely
/// under any realistic corruption probability.
constexpr int kRowReadAttempts = 4;
/// A declog entry: the verdict byte, then the fixed-width TxnKey.
constexpr size_t kTxnKeySize = 27;
constexpr size_t kDeclogEntrySize = 1 + kTxnKeySize;
}  // namespace

Result<std::string> CentralStore::ReadTxnBlob(
    const std::string& txn_key) const {
  static Counter& detected = MetricsRegistry::Global().GetCounter(
      "integrity.corrupt_rows_detected");
  static Counter& rereads =
      MetricsRegistry::Global().GetCounter("integrity.row_rereads");
  Status last = Status::OK();
  for (int attempt = 0; attempt < kRowReadAttempts; ++attempt) {
    if (attempt > 0) rereads.Increment();
    ORCH_ASSIGN_OR_RETURN(std::string framed, engine_->Get("txn", txn_key));
    if (FaultInjector* injector = engine_->fault_injector();
        injector != nullptr) {
      injector->MaybeCorrupt("storage.bit_flip", &framed);
    }
    auto body = db::UnwrapEnvelope(framed);
    if (body.ok()) return std::string(*body);
    detected.Increment();
    last = body.status();
  }
  return Status::DataLoss("stored transaction row " + txn_key +
                          " failed verification on every read: " +
                          last.message());
}

Result<Transaction> CentralStore::LoadTxn(const TransactionId& id) const {
  ORCH_ASSIGN_OR_RETURN(std::string blob, ReadTxnBlob(TxnKey(id)));
  size_t pos = 0;
  return core::DecodeTransaction(blob, &pos);
}

Result<Transaction> CentralStore::LoadTxnCached(const TransactionId& id) const {
  if (!reference()) {
    if (const Transaction* hit = cache_.Lookup(id)) return *hit;
  }
  ORCH_ASSIGN_OR_RETURN(Transaction txn, LoadTxn(id));
  // Only committed transactions are immutable (a committed id can never
  // be republished); residue of an aborted publish must not be cached.
  // The reference skips the admit too: it would only cost it a copy.
  if (!reference() && EpochCommitted(EpochKey(txn.epoch))) cache_.Admit(txn);
  return txn;
}

Status CentralStore::ScanWindow(Epoch from, Epoch to, bool via_arena,
                                std::vector<TransactionId>* roots,
                                TxnBodies* bodies) const {
  std::unordered_map<std::string, bool> committed;
  for (const auto& [key, unused] :
       engine_->ScanRange("epoch_txns", EpochKey(from), EpochKey(to + 1))) {
    (void)unused;
    const size_t sep = key.find(':');
    auto [state, fresh] = committed.try_emplace(key.substr(0, sep));
    if (fresh) state->second = EpochCommitted(state->first);
    if (!state->second) continue;
    const TransactionId id = ParseTxnKey(key.substr(sep + 1));
    ORCH_ASSIGN_OR_RETURN(Transaction txn,
                          via_arena ? LoadTxnCached(id) : LoadTxn(id));
    roots->push_back(id);
    bodies->emplace(id, std::move(txn));
  }
  return Status::OK();
}

Status CentralStore::LookUp(ParticipantId peer, core::ClosureLevel& level,
                            TxnBodies* roots, bool via_arena) const {
  const std::string dec_table = "dec:" + std::to_string(peer);
  for (size_t i = 0; i < level.size(); ++i) {
    const TransactionId& id = level.id(i);
    const std::string key = TxnKey(id);
    // Most ids have no row: Contains answers them without a NotFound.
    auto verdict = core::RecordedVerdict::kNone;
    if (engine_->Contains(dec_table, key)) {
      verdict = engine_->Get(dec_table, key).value() == "A"
                    ? core::RecordedVerdict::kApplied
                    : core::RecordedVerdict::kRejected;
    }
    auto body = [&]() -> Result<Transaction> {
      if (level.roots()) return std::move(roots->at(id));
      return via_arena ? LoadTxnCached(id) : LoadTxn(id);
    };
    ORCH_RETURN_IF_ERROR(level.Judge(i, verdict, body).status());
  }
  return Status::OK();
}

bool CentralStore::EpochCommitted(const std::string& epoch_key) const {
  auto state = engine_->Get("epochs", epoch_key);
  return state.ok() && *state == "done";
}

bool CentralStore::IsCommittedTxn(const std::string& txn_key) const {
  if (!engine_->Contains("txn", txn_key)) return false;
  auto blob = ReadTxnBlob(txn_key);
  // An unreadable (rotten-everywhere) row is treated as present:
  // refusing the republish is safer than silently overwriting data we
  // cannot interpret.
  if (!blob.ok()) return true;
  // Only the epoch field matters here; decoding the header alone skips
  // the row's updates and antecedents on the publish hot path.
  size_t pos = 0;
  auto header = core::DecodeTransactionHeader(*blob, &pos);
  if (!header.ok()) return true;
  return EpochCommitted(EpochKey(header->epoch));
}

void CentralStore::AbortPublish(Epoch epoch,
                                const std::vector<StagedRow>& staged) {
  // A sticky fault means the publishing process crashed: its cleanup
  // never runs, and the epoch stays "open" until the reaper gets it. A
  // transient fault leaves a live process whose cleanup writes are not
  // themselves subject to injection.
  FaultInjector* injector = engine_->fault_injector();
  if (injector != nullptr && injector->tripped()) return;
  FaultInjector::ScopedDisable guard(injector);
  for (const StagedRow& row : staged) {
    (void)engine_->Delete(row.table, row.key);
  }
  (void)engine_->Put("epochs", EpochKey(epoch), "aborted");
  (void)engine_->Sync();
}

Result<Epoch> CentralStore::Publish(ParticipantId peer,
                                    std::vector<Transaction> txns) {
  TraceSpan span("central.publish");
  Stopwatch cpu;
  // Allocate the publication epoch (the SQL sequence of §5.2.1). A
  // failure past this point burns the number; gaps in the epoch sequence
  // are harmless because reconcilers scan the epochs *table*.
  ORCH_ASSIGN_OR_RETURN(int64_t epoch, engine_->NextSequence("epoch"));

  // Stage: validate the whole batch and encode every row before anything
  // is written. A duplicate transaction id — within the batch or against
  // a committed epoch — must leave no trace in the store, or a single
  // bad publish would freeze the stable watermark for every peer.
  int64_t bytes = 0;
  const std::string dec_table = "dec:" + std::to_string(peer);
  std::vector<StagedRow> staged;
  staged.reserve(txns.size() * 3);
  TxnIdSet batch_ids;
  for (Transaction& txn : txns) {
    txn.epoch = epoch;
    const std::string key = TxnKey(txn.id);
    if (!batch_ids.insert(txn.id).second || IsCommittedTxn(key)) {
      return Status::AlreadyExists("transaction " + txn.id.ToString() +
                                   " already published");
    }
    std::string encoded;
    core::EncodeTransaction(&encoded, txn);
    // Stored envelope-framed: the checksum written here is what every
    // later read of this row verifies against.
    std::string blob;
    db::WrapEnvelope(&blob, encoded);
    bytes += static_cast<int64_t>(blob.size());
    staged.push_back({"txn", key, std::move(blob)});
    staged.push_back({"epoch_txns", EpochKey(epoch) + ":" + key, ""});
    // The publisher has, by definition, already accepted its own work.
    staged.push_back({dec_table, key, "A"});
  }

  // Commit: open the epoch, land the staged rows, flip to "done", sync.
  // The "done" flip is the commit point — until it lands, no scan can
  // observe any of the staged rows.
  const Status commit = [&]() -> Status {
    ORCH_RETURN_IF_ERROR(engine_->Put("epochs", EpochKey(epoch), "open"));
    for (const StagedRow& row : staged) {
      ORCH_RETURN_IF_ERROR(engine_->Put(row.table, row.key, row.value));
    }
    // The stuck-epoch reaper may have aborted the epoch under a slow
    // publisher; an aborted epoch can never commit (peers have already
    // advanced their watermark past it).
    auto state = engine_->Get("epochs", EpochKey(epoch));
    if (!state.ok() || *state != "open") {
      return Status::Unavailable("epoch " + std::to_string(epoch) +
                                 " was aborted before commit; republish");
    }
    ORCH_RETURN_IF_ERROR(engine_->Put("epochs", EpochKey(epoch), "done"));
    return engine_->Sync();
  }();
  if (!commit.ok()) {
    AbortPublish(epoch, staged);
    return commit;
  }

  // The batch just committed: its transactions are immutable and the
  // publisher has accepted them durably (the staged "A" rows).
  for (const Transaction& txn : txns) {
    cache_.Admit(txn);
    cache_.MarkDecided(peer, txn.id);
  }

  // One begin-publish round trip, the batch upload, one finish round
  // trip (§5.2.1 records publish start and finish separately).
  network_->Charge(peer, 4, bytes / 4);
  cpu_micros_[peer] += cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[peer] += 1;
  static Counter& publishes =
      MetricsRegistry::Global().GetCounter("store.central.publishes");
  static Counter& published_txns =
      MetricsRegistry::Global().GetCounter("store.central.published_txns");
  publishes.Increment();
  published_txns.Add(static_cast<int64_t>(txns.size()));
  return epoch;
}

Result<ReconcileFetch> CentralStore::BeginReconciliation(ParticipantId peer) {
  return Fetch(peer, /*held=*/nullptr);
}

Result<ReconcileFetch> CentralStore::Fetch(ParticipantId peer,
                                           std::vector<TransactionId>* held) {
  TraceSpan span("central.fetch");
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, peer));
  const core::FetchCache::Stats cache_before = cache_.stats();
  // Integrity counter snapshots for the per-round FetchStats: detected
  // rotten rows, and the re-reads (the central analog of a replica
  // failover probe) that absorbed them.
  static Counter& corrupt_rows = MetricsRegistry::Global().GetCounter(
      "integrity.corrupt_rows_detected");
  static Counter& row_rereads =
      MetricsRegistry::Global().GetCounter("integrity.row_rereads");
  const int64_t corrupt_before = corrupt_rows.value();
  const int64_t rereads_before = row_rereads.value();

  ReconcileFetch fetch;
  ORCH_ASSIGN_OR_RETURN(fetch.recno,
                        engine_->NextSequence("recno:" + std::to_string(peer)));

  // Latest stable epoch: largest epoch not preceded by an *open* one.
  // Aborted epochs are empty (their rows are filtered below), so the
  // watermark passes straight over them. An epoch observed open by
  // `stuck_epoch_reap_threshold` scans belongs to a crashed publisher:
  // reap it to "aborted" rather than blocking every peer forever.
  //
  // The scan starts past the stable floor — the largest epoch with
  // everything at or below it terminal. Epoch numbers are allocated
  // monotonically, so no row can ever appear at or below the floor again
  // and skipping that prefix cannot change the result. The reference
  // scans from epoch 0.
  ORCH_ASSIGN_OR_RETURN(std::string last_epoch_key,
                        engine_->Get("peers", std::to_string(peer)));
  Epoch stable = reference() ? 0 : floor_stable_;
  Epoch floor = reference() ? 0 : stable_floor_;
  for (const auto& [key, state] :
       engine_->ScanRange("epochs", EpochKey(floor + 1), "")) {
    const Epoch e = std::strtoll(key.c_str(), nullptr, 10);
    if (state == "done") {
      stable = e;
      floor = e;
      continue;
    }
    if (state == "aborted") {
      floor = e;
      continue;
    }
    const int strikes = ++epoch_strikes_[e];
    if (strikes >= options_.stuck_epoch_reap_threshold &&
        engine_->Put("epochs", key, "aborted").ok()) {
      epoch_strikes_.erase(e);
      floor = e;
      continue;
    }
    break;  // still open: the stable window ends just before it
  }
  fetch.epoch = stable;
  if (floor > stable_floor_) {
    stable_floor_ = floor;
    floor_stable_ = stable;
  }
  // The reference ignores the watermark and re-scans the whole history;
  // the participant's catch-up path absorbs the resent material.
  const Epoch prev =
      reference() ? 0 : std::strtoll(last_epoch_key.c_str(), nullptr, 10);

  // Relevant transactions: everything committed in (prev, stable].
  std::vector<TransactionId> roots;
  TxnBodies bodies;
  ORCH_RETURN_IF_ERROR(
      ScanWindow(prev + 1, stable, !reference(), &roots, &bodies));
  const auto scanned = static_cast<int64_t>(roots.size());

  // Trust predicates are evaluated inside the store so that only fully
  // trusted transactions and their antecedent closures are shipped
  // (Fig. 7). Outside the reference, the decided overlay suppresses the
  // lookups the peer needs nothing from; `held` collects those met as
  // antecedents for the network-centric bundle.
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk walk,
      core::ClosureLevel::Walk(
          std::move(roots), policy,
          [&](const TransactionId& id) {
            return !reference() && cache_.KnownDecided(peer, id);
          },
          [&](core::ClosureLevel& level) {
            return LookUp(peer, level, &bodies, !reference());
          }));
  fetch.trusted = std::move(walk.trusted);
  fetch.transactions = std::move(walk.transactions);
  if (held != nullptr) *held = std::move(walk.held);
  const core::FetchCache::Stats& after = cache_.stats();
  fetch.stats.cache_hits = after.hits - cache_before.hits;
  fetch.stats.suppressed_lookups = after.suppressed - cache_before.suppressed;
  // The reference never consults the arena, so it counts its scan's
  // decodes itself.
  fetch.stats.decoded =
      reference() ? scanned : after.misses - cache_before.misses;

  // Advance the peer's epoch watermark only now that the fetch is
  // assembled: a failure anywhere above must not move the watermark, or
  // the window (prev, stable] would be lost.
  ORCH_RETURN_IF_ERROR(
      engine_->Put("peers", std::to_string(peer), EpochKey(stable)));

  int64_t bytes = 0;
  for (const Transaction& txn : fetch.transactions) {
    bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
  }
  fetch.stats.corrupt_reads = corrupt_rows.value() - corrupt_before;
  fetch.stats.failover_probes = row_rereads.value() - rereads_before;
  // Begin-reconciliation round trip plus the bulk reply.
  network_->Charge(peer, 2, bytes / 2);
  cpu_micros_[peer] += cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[peer] += 1;
  // The registry's one count of this fetch's FetchStats, kept store-side
  // so registry consumers need not sum per-round reports.
  static Counter& fetches =
      MetricsRegistry::Global().GetCounter("store.central.fetches");
  static Counter& shipped_txns =
      MetricsRegistry::Global().GetCounter("store.central.shipped_txns");
  static Counter& decoded_ctr =
      MetricsRegistry::Global().GetCounter("store.central.decoded_txns");
  static Counter& cache_hits =
      MetricsRegistry::Global().GetCounter("store.central.cache_hits");
  static Counter& suppressed = MetricsRegistry::Global().GetCounter(
      "store.central.suppressed_lookups");
  fetches.Increment();
  shipped_txns.Add(static_cast<int64_t>(fetch.transactions.size()));
  decoded_ctr.Add(fetch.stats.decoded);
  cache_hits.Add(fetch.stats.cache_hits);
  suppressed.Add(fetch.stats.suppressed_lookups);
  return fetch;
}

Status CentralStore::RecordDecisions(
    ParticipantId peer, int64_t recno,
    const std::vector<TransactionId>& applied,
    const std::vector<TransactionId>& rejected) {
  TraceSpan span("central.record_decisions");
  static Counter& records =
      MetricsRegistry::Global().GetCounter("store.central.record_decisions");
  static Counter& decisions =
      MetricsRegistry::Global().GetCounter("store.central.decisions");
  records.Increment();
  decisions.Add(static_cast<int64_t>(applied.size() + rejected.size()));
  Stopwatch cpu;
  const std::string dec_table = "dec:" + std::to_string(peer);
  std::string entries;
  entries.reserve((applied.size() + rejected.size()) * kDeclogEntrySize);
  for (const auto& [ids, verdict] :
       {std::pair{&applied, "A"}, std::pair{&rejected, "R"}}) {
    for (const TransactionId& id : *ids) {
      const std::string key = TxnKey(id);
      ORCH_RETURN_IF_ERROR(engine_->Put(dec_table, key, verdict));
      entries += verdict;
      entries += key;
    }
  }
  // Written last, as one enveloped row: the witness that this call
  // recorded all of its decisions. Recovery reads the last row's recno
  // to detect an interrupted reconciliation, and checks each id it lists
  // against the point rows to detect decisions lost to a corrupt WAL
  // region (replay skips the bad region and keeps the intact row).
  const std::string log_table = "declog:" + std::to_string(peer);
  std::string row;
  db::WrapEnvelope(&row, entries);
  ORCH_RETURN_IF_ERROR(
      engine_->Put(log_table, FreeRecordingKey(log_table, recno), row));
  ORCH_RETURN_IF_ERROR(engine_->Sync());
  // Only now — past the sync — are the decisions durable enough for the
  // suppression overlay. The peer holds every id it rejects (each came
  // to it with its body). A failure above leaves the overlay untouched
  // and the next fetch falls back to the engine's decision rows.
  for (const TransactionId& id : applied) cache_.MarkDecided(peer, id);
  for (const TransactionId& id : rejected) cache_.MarkDecided(peer, id);
  const int64_t bytes =
      static_cast<int64_t>((applied.size() + rejected.size()) * 16);
  network_->Charge(peer, 2, bytes / 2);
  cpu_micros_[peer] += cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[peer] += 1;
  return Status::OK();
}

Status CentralStore::RecordProvenance(
    ParticipantId peer, int64_t recno,
    const std::vector<ProvenanceRecord>& records) {
  if (records.empty()) return Status::OK();
  TraceSpan span("central.record_provenance");
  static Counter& stored =
      MetricsRegistry::Global().GetCounter("store.central.provenance_records");
  static Counter& drops =
      MetricsRegistry::Global().GetCounter("store.central.provenance_drops");
  Stopwatch cpu;
  // Provenance is advisory (see UpdateStore::RecordProvenance): a row
  // that fails to land is counted and dropped, never surfaced as a
  // failed reconciliation. The row rides the RecordDecisions batch — no
  // extra sync or network charge — so a crash can lose the explanation
  // while keeping the decision, which is the intended asymmetry.
  const std::string prov_table = "prov:" + std::to_string(peer);
  std::string row;
  db::WrapEnvelope(&row, core::ToJsonLines(records));
  Counter& outcome =
      engine_->Put(prov_table, FreeRecordingKey(prov_table, recno), row).ok()
          ? stored
          : drops;
  outcome.Add(static_cast<int64_t>(records.size()));
  cpu_micros_[peer] += cpu.ElapsedMicros();
  return Status::OK();
}

Result<core::RecoveryBundle> CentralStore::FetchRecoveryState(
    ParticipantId peer) const {
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, peer));
  core::RecoveryBundle bundle;
  bundle.recno = engine_->CurrentSequence("recno:" + std::to_string(peer));
  ORCH_ASSIGN_OR_RETURN(std::string watermark,
                        engine_->Get("peers", std::to_string(peer)));
  bundle.epoch = std::strtoll(watermark.c_str(), nullptr, 10);
  // Last reconciliation whose decisions were recorded in full: the recno
  // of the last declog row. A value below bundle.recno means the peer
  // crashed between fetching a reconciliation and recording its outcome.
  // Every id that recno's rows list must still have its dec: row: replay
  // of a corrupt WAL region can drop decision Puts while the log row
  // (written later, in an intact record) survives, and resuming from it
  // would treat lost decisions as recorded. Only presence is checked: a
  // later Bootstrap legitimately replaces a rejection with the source's
  // accept.
  const std::string dec_table = "dec:" + std::to_string(peer);
  const auto log = engine_->ScanRange("declog:" + std::to_string(peer), "", "");
  if (!log.empty()) {
    bundle.last_decided_recno =
        std::strtoll(log.back().first.c_str(), nullptr, 10);
  }
  const std::string prefix = EpochKey(bundle.last_decided_recno) + ":";
  int64_t listed = 0;
  int64_t lost = 0;
  for (auto row = log.rbegin();
       row != log.rend() && row->first.rfind(prefix, 0) == 0; ++row) {
    auto entries = db::UnwrapEnvelope(row->second);
    if (!entries.ok() || entries->size() % kDeclogEntrySize != 0) {
      return Status::DataLoss("decision log row " + row->first + " of peer " +
                              std::to_string(peer) + " failed verification");
    }
    for (size_t at = 0; at < entries->size(); at += kDeclogEntrySize) {
      ++listed;
      if (!engine_->Contains(dec_table, entries->substr(at + 1, kTxnKeySize))) {
        ++lost;
      }
    }
  }
  if (lost > 0) {
    return Status::DataLoss(
        "decision log for peer " + std::to_string(peer) + " reconciliation " +
        std::to_string(bundle.last_decided_recno) + " lost " +
        std::to_string(lost) + " of " + std::to_string(listed) +
        " recorded decisions (corrupt WAL region dropped on replay)");
  }

  // Recorded decisions. Rejected rows need only the id, which the key
  // itself encodes; applied rows load through the arena.
  int64_t bytes = 0;
  for (const auto& [txn_key, decision] :
       engine_->ScanRange(dec_table, "", "")) {
    const TransactionId id = ParseTxnKey(txn_key);
    if (decision == "A") {
      ORCH_ASSIGN_OR_RETURN(Transaction txn, LoadTxnCached(id));
      bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
      bundle.applied.push_back(std::move(txn));
    } else {
      bundle.rejected.push_back(id);
      bytes += 16;
    }
  }
  bundle.SortApplied();
  // The scan above is the authoritative applied set; replace the
  // overlay with it so the recovered peer's first fetch suppresses
  // everything it durably applied, and ships again what it rejected (it
  // knows those by id only).
  TxnIdSet applied_ids;
  for (const Transaction& txn : bundle.applied) applied_ids.insert(txn.id);
  cache_.ResetApplied(peer, std::move(applied_ids));

  // Undecided trusted transactions within the watermark: the deferred
  // backlog, plus the antecedent closures needed to re-reconcile them.
  ORCH_RETURN_IF_ERROR(ReadUndecided(peer, *policy, &bundle, &bytes));

  network_->Charge(peer, 2, bytes / 2);
  cpu_micros_[peer] += cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[peer] += 1;
  return bundle;
}

Status CentralStore::ReadUndecided(ParticipantId peer,
                                   const core::TrustPolicy& policy,
                                   core::RecoveryBundle* bundle,
                                   int64_t* bytes) const {
  // The walk's roots are every committed row up to the watermark, read
  // and verified from the stored rows, never the arena.
  std::vector<TransactionId> roots;
  TxnBodies bodies;
  ORCH_RETURN_IF_ERROR(ScanWindow(1, bundle->epoch, /*via_arena=*/false,
                                  &roots, &bodies));
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk walk,
      core::ClosureLevel::Walk(
          std::move(roots), &policy,
          [](const TransactionId&) { return false; },
          [&](core::ClosureLevel& level) {
            return LookUp(peer, level, &bodies, /*via_arena=*/false);
          }));
  for (const Transaction& txn : walk.transactions) {
    *bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
  }
  bundle->undecided = std::move(walk.trusted);
  bundle->closure = std::move(walk.transactions);
  return Status::OK();
}

Result<core::NetworkCentricFetch> CentralStore::BeginNetworkCentricReconciliation(
    ParticipantId peer) {
  if (catalog_ == nullptr) {
    return Status::NotSupported(
        "central store was built without a catalog; network-centric "
        "reconciliation needs the shared schema");
  }
  core::NetworkCentricFetch fetch;
  std::vector<TransactionId> held;
  ORCH_ASSIGN_OR_RETURN(fetch.base, Fetch(peer, &held));

  // Server-side analysis: one more stored procedure's worth of work.
  Stopwatch cpu;
  core::TransactionMap bundle;
  for (const Transaction& txn : fetch.base.transactions) bundle.Put(txn);
  // The fetch stopped at antecedents the peer rejected and holds, but
  // ComputeExtensionFromBundle reads a missing member as applied. Put
  // them back, with the closure the fetch would have walked past them,
  // from the server's own rows: nothing more travels to the client.
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk restored,
      core::ClosureLevel::Walk(
          std::move(held), nullptr,
          [&](const TransactionId& id) { return bundle.Contains(id); },
          [&](core::ClosureLevel& level) {
            return LookUp(peer, level, nullptr, /*via_arena=*/true);
          }));
  for (Transaction& txn : restored.transactions) {
    // ORCH_LINT(allow:S1): TransactionMap::Put returns void (the rule keys on the name StorageEngine::Put shares)
    bundle.Put(std::move(txn));
  }
  for (const auto& [txn_id, priority] : fetch.base.trusted) {
    core::TrustedTxn t;
    t.id = txn_id;
    t.priority = priority;
    t.extension = core::ComputeExtensionFromBundle(bundle, txn_id);
    fetch.trusted_txns.push_back(std::move(t));
  }
  fetch.analysis =
      core::AnalyzeExtensions(*catalog_, bundle, fetch.trusted_txns);

  // The analysis rides in the reply: flattened updates plus one fixed
  // record per conflicting pair.
  network_->Charge(peer, 1, fetch.AnalysisBytes());
  cpu_micros_[peer] += cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[peer] += 1;
  return fetch;
}

Result<core::RecoveryBundle> CentralStore::Bootstrap(
    ParticipantId new_peer, ParticipantId source_peer) {
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, new_peer));
  ORCH_RETURN_IF_ERROR(core::RegisteredPolicy(policies_, source_peer).status());

  core::RecoveryBundle bundle;
  ORCH_ASSIGN_OR_RETURN(std::string watermark,
                        engine_->Get("peers", std::to_string(source_peer)));
  bundle.epoch = std::strtoll(watermark.c_str(), nullptr, 10);
  bundle.recno =
      engine_->CurrentSequence("recno:" + std::to_string(new_peer));

  // Adopt the source's applied set as the new peer's own decisions.
  const std::string source_dec = "dec:" + std::to_string(source_peer);
  const std::string new_dec = "dec:" + std::to_string(new_peer);
  int64_t bytes = 0;
  for (const auto& [txn_key, decision] :
       engine_->ScanRange(source_dec, "", "")) {
    if (decision != "A") continue;
    ORCH_ASSIGN_OR_RETURN(Transaction txn, LoadTxnCached(ParseTxnKey(txn_key)));
    ORCH_RETURN_IF_ERROR(engine_->Put(new_dec, txn_key, "A"));
    bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
    bundle.applied.push_back(std::move(txn));
  }
  bundle.SortApplied();
  // Advance the watermark so the adopted window is not re-fetched.
  ORCH_RETURN_IF_ERROR(engine_->Put("peers", std::to_string(new_peer),
                                    EpochKey(bundle.epoch)));

  // Transactions in the adopted window the source did not apply and the
  // new peer's own policy trusts: handed over as the undecided backlog,
  // with antecedent closures. The adopted accepts already count as the
  // new peer's decisions, so the shared reader skips them.
  ORCH_RETURN_IF_ERROR(ReadUndecided(new_peer, *policy, &bundle, &bytes));
  ORCH_RETURN_IF_ERROR(engine_->Sync());
  // The adopted accepts just synced under the new peer's own name. They
  // replace its overlay: a bootstrapped peer holds none of the bodies an
  // earlier incarnation rejected.
  TxnIdSet adopted_ids;
  for (const Transaction& txn : bundle.applied) adopted_ids.insert(txn.id);
  cache_.ResetApplied(new_peer, std::move(adopted_ids));

  network_->Charge(new_peer, 2, bytes / 2);
  cpu_micros_[new_peer] +=
      cpu.ElapsedMicros() + options_.procedure_overhead_micros;
  calls_[new_peer] += 1;
  return bundle;
}

core::StoreStats CentralStore::StatsFor(ParticipantId peer) const {
  const net::NetStats net = network_->StatsFor(peer);
  core::StoreStats stats;
  stats.sim_network_micros = net.micros;
  stats.wire_micros = net.wire_micros;
  stats.messages = net.messages;
  stats.bytes = net.bytes;
  auto cpu_it = cpu_micros_.find(peer);
  stats.store_cpu_micros = cpu_it == cpu_micros_.end() ? 0 : cpu_it->second;
  auto call_it = calls_.find(peer);
  stats.calls = call_it == calls_.end() ? 0 : call_it->second;
  return stats;
}

}  // namespace orchestra::store

#ifndef ORCHESTRA_STORE_CENTRAL_STORE_H_
#define ORCHESTRA_STORE_CENTRAL_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/closure_walk.h"
#include "core/fetch_cache.h"
#include "core/update_store.h"
#include "net/sim_network.h"
#include "storage/engine.h"

namespace orchestra::store {

/// The centralized update store of §5.2.1: a single server backed by a
/// relational storage engine (our embedded StorageEngine standing in for
/// the paper's commercial RDBMS). An epoch sequence timestamps each
/// published batch; publishing is decoupled from reconciliation, and a
/// reconciling peer uses the latest epoch not preceded by an unfinished
/// epoch. Trust predicates are applied store-side so only relevant
/// transactions and their antecedent closures travel over the network:
/// the fetch, recovery, bootstrap and network-centric walks all run
/// core::ClosureLevel::Walk's one rule over engine reads (see LookUp).
///
/// Engine layout (all keys are order-preserving encodings):
///   txn        txn-key -> enveloped encoded Transaction
///   epochs     epoch   -> "open"/"done"/"aborted"
///   epoch_txns epoch:txn-key -> ""
///   dec:<p>    txn-key -> "A" | "R"     (peer p's verdicts, point lookups)
///   declog:<p> recno:n -> enveloped ("A"|"R" txn-key)*
///              (one row per RecordDecisions call, §5.2.1: the witness
///              that the call's decisions were recorded in full)
///   prov:<p>   recno:n -> enveloped provenance JSONL
///              (one row per RecordProvenance call)
///   peers      peer -> last reconciliation epoch
/// `n` is the first free suffix under `recno`, so a second recording
/// under one recno (a user resolution, a recovered backlog run) lands
/// beside the first and never overwrites it.
/// Sequences: "epoch", "recno:<p>".
///
/// Publishing is stage-then-commit: the whole batch is validated and
/// encoded before any row is written, rows land while the epoch is
/// "open", and the epoch flips to "done" (the commit point) only after
/// every row and the WAL sync succeeded. Any failure aborts the epoch;
/// rows under non-"done" epochs are invisible to every scan, and an
/// epoch stuck "open" (publisher crashed mid-rollback) is reaped to
/// "aborted" after `stuck_epoch_reap_threshold` observations so it
/// cannot freeze the stable watermark.
/// Cost model for the parts of the paper's RDBMS server that our
/// embedded engine does not reproduce (SQL parse/plan, lock manager,
/// group commit, ODBC marshalling). Charged as simulated store-side CPU
/// per stored-procedure invocation, so that the *shape* of the central
/// store's cost — a fixed per-reconciliation overhead that dominates at
/// small reconciliation intervals (Fig. 10) — matches the paper's setup.
struct CentralStoreOptions {
  int64_t procedure_overhead_micros = 25000;
  /// Stuck-epoch reaping: an epoch still "open" after this many
  /// reconciliation scans have observed it is marked "aborted" so it
  /// stops blocking the stable watermark (a crashed publisher must not
  /// freeze every peer forever). Committed ("done") epochs are never
  /// touched; an aborted epoch can never commit.
  int stuck_epoch_reap_threshold = 3;
  /// How reconciliation fetches are assembled. kFull is the reference:
  /// it scans from epoch 0 and bypasses the decoded-transaction arena,
  /// the decided overlay and the stable floor, so every fetch reads the
  /// stored rows (and verifies their checksums). Decisions are identical
  /// across modes (see core::FetchMode).
  core::FetchMode fetch_mode = core::FetchMode::kDelta;
};

class CentralStore : public core::UpdateStore,
                     public core::NetworkCentricStore {
 public:
  /// `engine` provides durability (or not); `network` models the
  /// client-server link. Both must outlive the store.
  /// `catalog` enables network-centric reconciliation (the server must
  /// know the shared schema Σ to flatten and compare updates); pass
  /// nullptr to run client-centric only.
  CentralStore(storage::StorageEngine* engine, net::SimNetwork* network,
               CentralStoreOptions options = {},
               const db::Catalog* catalog = nullptr);

  Status RegisterParticipant(core::ParticipantId peer,
                             const core::TrustPolicy* policy) override;
  Result<core::Epoch> Publish(core::ParticipantId peer,
                              std::vector<core::Transaction> txns) override;
  Result<core::ReconcileFetch> BeginReconciliation(
      core::ParticipantId peer) override;
  Status RecordDecisions(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::TransactionId>& applied,
      const std::vector<core::TransactionId>& rejected) override;
  Status RecordProvenance(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::ProvenanceRecord>& records) override;
  Result<core::RecoveryBundle> FetchRecoveryState(
      core::ParticipantId peer) const override;
  Result<core::NetworkCentricFetch> BeginNetworkCentricReconciliation(
      core::ParticipantId peer) override;
  Result<core::RecoveryBundle> Bootstrap(
      core::ParticipantId new_peer, core::ParticipantId source_peer) override;
  core::StoreStats StatsFor(core::ParticipantId peer) const override;
  std::string_view name() const override { return "central"; }

 private:
  /// One buffered write of a staged (not yet committed) publish.
  struct StagedRow {
    std::string table;
    std::string key;
    std::string value;
  };

  /// Order-preserving key for a transaction.
  static std::string TxnKey(const core::TransactionId& id);
  static std::string EpochKey(core::Epoch epoch);
  /// `recno:n` for the first `n` with no row yet under `recno` in `table`.
  std::string FreeRecordingKey(const std::string& table, int64_t recno) const;
  /// Inverse of TxnKey (the key format is fixed-width decimal).
  static core::TransactionId ParseTxnKey(const std::string& key);

  /// Reads and verifies the stored envelope-framed blob for `txn_key`,
  /// returning the payload (the encoded Transaction). At-rest corruption
  /// (storage.bit_flip) is applied to the read copy; a detected checksum
  /// failure re-reads up to kRowReadAttempts times before reporting
  /// kDataLoss. The storage.bit_flip site draws fresh randomness per
  /// read, so a re-read models fetching the page from the RDBMS's
  /// redundant storage.
  Result<std::string> ReadTxnBlob(const std::string& txn_key) const;

  /// BeginReconciliation, also reporting in `held` (when non-null) each
  /// antecedent the closure walk skipped through the decided overlay.
  Result<core::ReconcileFetch> Fetch(core::ParticipantId peer,
                                     std::vector<core::TransactionId>* held);
  Result<core::Transaction> LoadTxn(const core::TransactionId& id) const;
  /// LoadTxn via the decoded-transaction arena: a hit skips both the
  /// engine read and the decode (the reference never looks); a miss
  /// decodes and admits the transaction when its epoch committed.
  Result<core::Transaction> LoadTxnCached(const core::TransactionId& id) const;
  /// True for the kFull reference, which reads no soft state.
  bool reference() const {
    return options_.fetch_mode == core::FetchMode::kFull;
  }
  /// The bodies of a closure walk's roots, by id.
  using TxnBodies = std::unordered_map<core::TransactionId, core::Transaction,
                                       core::TransactionIdHash>;
  /// Appends every transaction of a committed epoch in [from, to] to
  /// `roots` and `bodies`, through the arena when `via_arena`, otherwise
  /// read and verified from the stored rows.
  Status ScanWindow(core::Epoch from, core::Epoch to, bool via_arena,
                    std::vector<core::TransactionId>* roots,
                    TxnBodies* bodies) const;
  /// The closure walk's lookup for `peer`: the verdict from its decision
  /// rows, a root's body from `roots`, an antecedent's as ScanWindow's.
  Status LookUp(core::ParticipantId peer, core::ClosureLevel& level,
                TxnBodies* roots, bool via_arena) const;
  /// Recovery and bootstrap tail: the closure walk from every committed
  /// row up to `bundle->epoch`, read from the stored rows, into
  /// `bundle`'s undecided and closure lists; adds the bytes to `*bytes`.
  Status ReadUndecided(core::ParticipantId peer,
                       const core::TrustPolicy& policy,
                       core::RecoveryBundle* bundle, int64_t* bytes) const;

  /// True when `epoch_key`'s epoch committed ("done"). Rows under open or
  /// aborted epochs are residue of unfinished publishes and invisible to
  /// every scan.
  bool EpochCommitted(const std::string& epoch_key) const;
  /// True when the transaction exists under a *committed* epoch. A row
  /// left behind by an aborted publish does not count: the publisher
  /// must be able to republish it.
  bool IsCommittedTxn(const std::string& txn_key) const;
  /// Best-effort rollback of a failed publish: deletes the staged rows
  /// and marks the epoch "aborted". Failures are swallowed — a stale
  /// "open" epoch is eventually reaped, and scans filter its rows.
  void AbortPublish(core::Epoch epoch, const std::vector<StagedRow>& staged);

  storage::StorageEngine* engine_;
  net::SimNetwork* network_;
  CentralStoreOptions options_;
  const db::Catalog* catalog_;
  core::PolicyMap policies_;
  /// Soft state: open-epoch observation counts driving the reaper.
  std::unordered_map<core::Epoch, int> epoch_strikes_;
  /// Soft state: the shared decoded-transaction arena and per-peer
  /// decided overlays, read only outside the reference. Mutable because
  /// recovery reads (FetchRecoveryState) refresh it.
  mutable core::FetchCache cache_;
  /// Largest epoch with every epoch at or below it terminal (done or
  /// aborted). Epoch numbers are allocated monotonically, so rows never
  /// appear at or below the floor again and the stable-epoch scan can
  /// start past it (outside the reference).
  core::Epoch stable_floor_ = 0;
  /// Largest committed ("done") epoch at or below stable_floor_ — the
  /// scan's starting value for the stable watermark.
  core::Epoch floor_stable_ = 0;
  mutable std::unordered_map<core::ParticipantId, int64_t> cpu_micros_;
  mutable std::unordered_map<core::ParticipantId, int64_t> calls_;
};

}  // namespace orchestra::store

#endif  // ORCHESTRA_STORE_CENTRAL_STORE_H_

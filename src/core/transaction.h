#ifndef ORCHESTRA_CORE_TRANSACTION_H_
#define ORCHESTRA_CORE_TRANSACTION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/ids.h"
#include "core/update.h"
#include "db/serde.h"

namespace orchestra::core {

/// A published transaction X_{i:j}: an atomic group of updates plus the
/// identifiers of its direct antecedents ante(X) — the transactions that
/// inserted or last modified each tuple this transaction deletes or
/// modifies (§4.2). Antecedents are computed by the publishing
/// participant against its own instance's version map and travel with the
/// transaction, so any store (central or DHT) can serve extension
/// requests without understanding update semantics.
struct Transaction {
  TransactionId id;
  std::vector<Update> updates;
  std::vector<TransactionId> antecedents;
  /// Set by the update store when the transaction is published.
  Epoch epoch = kNoEpoch;

  std::string ToString() const;
};

/// The transaction codec: the one format of a transaction's bytes, in
/// the central store's txn rows and WAL records, the DHT's replicas and
/// multi-get replies, and publish uploads.
///
///   header    [varint origin][varint seq][varint epoch + 1]
///   updates   [varint count][update...]
///   update    [kind byte][relation: string ref][varint origin]?
///             [old tuple]? [new tuple]?
///   antes     [varint count]([varint origin][varint seq])...
///
/// The kind byte holds the UpdateKind in its low two bits, and sets bit
/// 0x04 when the update's origin equals the transaction's: the origin
/// varint is then left out. A delete writes only its old tuple, an
/// insert only its new one, a modify both. Strings and tuples are
/// db::ValueWriter's, with one string table per transaction: a relation
/// name or string value repeated across the updates (a SwissProt
/// insert's organism, protein and "CrossRef" in every cross-reference)
/// is written once and back-referenced after.
void EncodeTransaction(std::string* out, const Transaction& txn);
Result<Transaction> DecodeTransaction(std::string_view data, size_t* pos);

/// Just the header: enough to answer "which transaction is this, and in
/// which epoch was it published?" without decoding updates or
/// antecedents. Commit checks on the publish path need exactly this.
struct TransactionHeader {
  TransactionId id;
  Epoch epoch = kNoEpoch;
};

Result<TransactionHeader> DecodeTransactionHeader(std::string_view data,
                                                  size_t* pos);

/// Encoded size in bytes: EncodeTransaction's writer run in count mode,
/// so nothing is materialized. Both stores charge it for every body they
/// ship.
size_t EncodedTransactionSize(const Transaction& txn);

/// Writes the updates section (count, then each update) through `w`,
/// leaving out every update origin equal to `origin`. EncodeTransaction
/// writes its updates this way; a network-centric reply sizes each
/// flattened extension with it.
void WriteUpdates(db::ValueWriter& w, const std::vector<Update>& updates,
                  ParticipantId origin);

/// Read-only lookup of published transactions by id; implemented by the
/// update stores (and by in-memory test fixtures).
class TransactionProvider {
 public:
  virtual ~TransactionProvider() = default;

  /// The transaction with the given id, or NotFound.
  virtual Result<const Transaction*> Get(const TransactionId& id) const = 0;
};

/// Hash-map-backed provider; serves as the participant-side transaction
/// cache (soft state) and as a test fixture.
class TransactionMap : public TransactionProvider {
 public:
  /// Adds or overwrites a transaction.
  void Put(Transaction txn) { txns_[txn.id] = std::move(txn); }

  /// Drops the transaction, if present.
  void Erase(const TransactionId& id) { txns_.erase(id); }

  bool Contains(const TransactionId& id) const {
    return txns_.count(id) != 0;
  }

  size_t size() const { return txns_.size(); }

  Result<const Transaction*> Get(const TransactionId& id) const override {
    auto it = txns_.find(id);
    if (it == txns_.end()) {
      return Status::NotFound("transaction " + id.ToString() + " unknown");
    }
    return &it->second;
  }

 private:
  std::unordered_map<TransactionId, Transaction, TransactionIdHash> txns_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_TRANSACTION_H_

#include "core/transaction.h"

#include "common/string_util.h"
#include "db/serde.h"

namespace orchestra::core {

std::string Transaction::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(updates.size());
  for (const Update& u : updates) parts.push_back(u.ToString());
  std::string out = id.ToString() + ":{" + Join(parts, ", ") + "}";
  if (!antecedents.empty()) {
    std::vector<std::string> ante;
    ante.reserve(antecedents.size());
    for (const TransactionId& a : antecedents) ante.push_back(a.ToString());
    out += " ante{" + Join(ante, ", ") + "}";
  }
  return out;
}

namespace {

constexpr uint8_t kKindMask = 0x03;
constexpr uint8_t kSameOriginBit = 0x04;

/// The one writer behind EncodeTransaction (append mode) and
/// EncodedTransactionSize (count mode).
void WriteTransaction(db::ValueWriter& w, const Transaction& txn) {
  w.PutVarint(txn.id.origin);
  w.PutVarint(txn.id.seq);
  w.PutVarint(static_cast<uint64_t>(txn.epoch + 1));  // kNoEpoch -> 0
  WriteUpdates(w, txn.updates, txn.id.origin);
  w.PutVarint(txn.antecedents.size());
  for (const TransactionId& a : txn.antecedents) {
    w.PutVarint(a.origin);
    w.PutVarint(a.seq);
  }
}

Result<Update> ReadUpdate(db::ValueReader& r, ParticipantId txn_origin) {
  ORCH_ASSIGN_OR_RETURN(uint8_t tag, r.GetByte());
  const uint8_t kind = tag & kKindMask;
  if ((tag & ~(kKindMask | kSameOriginBit)) != 0 ||
      kind > static_cast<uint8_t>(UpdateKind::kModify)) {
    return Status::Corruption("unknown update kind tag " +
                              std::to_string(tag));
  }
  ORCH_ASSIGN_OR_RETURN(std::string_view relation, r.GetString());
  ParticipantId origin = txn_origin;
  if ((tag & kSameOriginBit) == 0) {
    ORCH_ASSIGN_OR_RETURN(uint64_t own, r.GetVarint());
    origin = static_cast<ParticipantId>(own);
  }
  db::Tuple old_tuple;
  db::Tuple new_tuple;
  if (kind != static_cast<uint8_t>(UpdateKind::kInsert)) {
    ORCH_ASSIGN_OR_RETURN(old_tuple, r.GetTuple());
  }
  if (kind != static_cast<uint8_t>(UpdateKind::kDelete)) {
    ORCH_ASSIGN_OR_RETURN(new_tuple, r.GetTuple());
  }
  switch (static_cast<UpdateKind>(kind)) {
    case UpdateKind::kInsert:
      return Update::Insert(std::string(relation), std::move(new_tuple),
                            origin);
    case UpdateKind::kDelete:
      return Update::Delete(std::string(relation), std::move(old_tuple),
                            origin);
    case UpdateKind::kModify:
      return Update::Modify(std::string(relation), std::move(old_tuple),
                            std::move(new_tuple), origin);
  }
  return Status::Corruption("unknown update kind tag");
}

}  // namespace

void WriteUpdates(db::ValueWriter& w, const std::vector<Update>& updates,
                  ParticipantId origin) {
  w.PutVarint(updates.size());
  for (const Update& u : updates) {
    const bool same_origin = u.origin() == origin;
    w.PutByte(static_cast<uint8_t>(u.kind()) |
              (same_origin ? kSameOriginBit : 0));
    w.PutString(u.relation());
    if (!same_origin) w.PutVarint(u.origin());
    if (!u.is_insert()) w.PutTuple(u.old_tuple());
    if (!u.is_delete()) w.PutTuple(u.new_tuple());
  }
}

void EncodeTransaction(std::string* out, const Transaction& txn) {
  db::ValueWriter w(out);
  WriteTransaction(w, txn);
}

size_t EncodedTransactionSize(const Transaction& txn) {
  db::ValueWriter w;
  WriteTransaction(w, txn);
  return w.size();
}

Result<Transaction> DecodeTransaction(std::string_view data, size_t* pos) {
  ORCH_ASSIGN_OR_RETURN(TransactionHeader header,
                        DecodeTransactionHeader(data, pos));
  Transaction txn;
  txn.id = header.id;
  txn.epoch = header.epoch;
  db::ValueReader r(data, pos);
  ORCH_ASSIGN_OR_RETURN(uint64_t n_updates, r.GetVarint());
  // Every update occupies at least one byte; a larger count is corrupt
  // input (and must not drive an allocation).
  if (n_updates > r.remaining()) {
    return Status::Corruption("update count exceeds the remaining input");
  }
  txn.updates.reserve(n_updates);
  for (uint64_t i = 0; i < n_updates; ++i) {
    ORCH_ASSIGN_OR_RETURN(Update u, ReadUpdate(r, txn.id.origin));
    txn.updates.push_back(std::move(u));
  }
  ORCH_ASSIGN_OR_RETURN(uint64_t n_ante, r.GetVarint());
  if (n_ante > r.remaining()) {
    return Status::Corruption("antecedent count exceeds the remaining input");
  }
  txn.antecedents.reserve(n_ante);
  for (uint64_t i = 0; i < n_ante; ++i) {
    ORCH_ASSIGN_OR_RETURN(uint64_t a_origin, r.GetVarint());
    ORCH_ASSIGN_OR_RETURN(uint64_t a_seq, r.GetVarint());
    txn.antecedents.push_back(
        TransactionId{static_cast<ParticipantId>(a_origin), a_seq});
  }
  return txn;
}

Result<TransactionHeader> DecodeTransactionHeader(std::string_view data,
                                                  size_t* pos) {
  TransactionHeader header;
  ORCH_ASSIGN_OR_RETURN(uint64_t origin, db::GetVarint64(data, pos));
  ORCH_ASSIGN_OR_RETURN(uint64_t seq, db::GetVarint64(data, pos));
  header.id = TransactionId{static_cast<ParticipantId>(origin), seq};
  ORCH_ASSIGN_OR_RETURN(uint64_t epoch_plus_one, db::GetVarint64(data, pos));
  header.epoch = static_cast<Epoch>(epoch_plus_one) - 1;
  return header;
}

}  // namespace orchestra::core

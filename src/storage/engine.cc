#include "storage/engine.h"

#include "common/metrics.h"
#include "db/serde.h"

namespace orchestra::storage {

namespace {
// WAL record types.
constexpr uint8_t kPut = 1;
constexpr uint8_t kDelete = 2;
constexpr uint8_t kSequence = 3;

std::string EncodeKV(std::string_view table, std::string_view key,
                     std::string_view value) {
  std::string out;
  db::PutLengthPrefixed(&out, table);
  db::PutLengthPrefixed(&out, key);
  db::PutLengthPrefixed(&out, value);
  return out;
}
}  // namespace

std::unique_ptr<StorageEngine> StorageEngine::InMemory() {
  return std::unique_ptr<StorageEngine>(new StorageEngine());
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::OpenDurable(
    std::string wal_path, FaultInjector* injector) {
  auto engine = std::unique_ptr<StorageEngine>(new StorageEngine());
  ORCH_ASSIGN_OR_RETURN(engine->wal_, WriteAheadLog::Open(std::move(wal_path)));
  engine->set_fault_injector(injector);
  ORCH_RETURN_IF_ERROR(engine->Recover());
  return engine;
}

Status StorageEngine::Recover() {
  return wal_->ReplayWithStats(
      [this](uint8_t type, std::string_view payload) {
    size_t pos = 0;
    switch (type) {
      case kPut: {
        ORCH_ASSIGN_OR_RETURN(std::string table,
                              db::GetLengthPrefixed(payload, &pos));
        ORCH_ASSIGN_OR_RETURN(std::string key,
                              db::GetLengthPrefixed(payload, &pos));
        ORCH_ASSIGN_OR_RETURN(std::string value,
                              db::GetLengthPrefixed(payload, &pos));
        tables_[table][key] = value;
        return Status::OK();
      }
      case kDelete: {
        ORCH_ASSIGN_OR_RETURN(std::string table,
                              db::GetLengthPrefixed(payload, &pos));
        ORCH_ASSIGN_OR_RETURN(std::string key,
                              db::GetLengthPrefixed(payload, &pos));
        auto it = tables_.find(table);
        if (it != tables_.end()) it->second.erase(key);
        return Status::OK();
      }
      case kSequence: {
        ORCH_ASSIGN_OR_RETURN(std::string name,
                              db::GetLengthPrefixed(payload, &pos));
        ORCH_ASSIGN_OR_RETURN(uint64_t value, db::GetVarint64(payload, &pos));
        sequences_[name] = static_cast<int64_t>(value);
        return Status::OK();
      }
      default:
        return Status::Corruption("unknown WAL record type " +
                                  std::to_string(type));
    }
      },
      &replay_stats_);
}

Status StorageEngine::LogPut(std::string_view table, std::string_view key,
                             std::string_view value) {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Append(kPut, EncodeKV(table, key, value));
}

Status StorageEngine::LogDelete(std::string_view table, std::string_view key) {
  if (wal_ == nullptr) return Status::OK();
  std::string payload;
  db::PutLengthPrefixed(&payload, table);
  db::PutLengthPrefixed(&payload, key);
  return wal_->Append(kDelete, payload);
}

Status StorageEngine::Put(std::string_view table, std::string_view key,
                          std::string_view value) {
  if (injector_ != nullptr) {
    ORCH_RETURN_IF_ERROR(injector_->MaybeFail("storage.put"));
  }
  ORCH_RETURN_IF_ERROR(LogPut(table, key, value));
  tables_[std::string(table)][std::string(key)] = std::string(value);
  static Counter& puts = MetricsRegistry::Global().GetCounter("storage.puts");
  puts.Increment();
  return Status::OK();
}

Result<std::string> StorageEngine::Get(std::string_view table,
                                       std::string_view key) const {
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) {
    return Status::NotFound("no table " + std::string(table));
  }
  auto it = table_it->second.find(key);
  if (it == table_it->second.end()) {
    return Status::NotFound("key " + std::string(key) + " not in " +
                            std::string(table));
  }
  return it->second;
}

bool StorageEngine::Contains(std::string_view table,
                             std::string_view key) const {
  auto table_it = tables_.find(table);
  return table_it != tables_.end() &&
         table_it->second.find(key) != table_it->second.end();
}

Status StorageEngine::Delete(std::string_view table, std::string_view key) {
  if (injector_ != nullptr) {
    ORCH_RETURN_IF_ERROR(injector_->MaybeFail("storage.delete"));
  }
  ORCH_RETURN_IF_ERROR(LogDelete(table, key));
  auto table_it = tables_.find(table);
  if (table_it != tables_.end()) table_it->second.erase(std::string(key));
  static Counter& deletes =
      MetricsRegistry::Global().GetCounter("storage.deletes");
  deletes.Increment();
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> StorageEngine::ScanRange(
    std::string_view table, std::string_view lo, std::string_view hi) const {
  std::vector<std::pair<std::string, std::string>> out;
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return out;
  auto it = table_it->second.lower_bound(lo);
  for (; it != table_it->second.end(); ++it) {
    if (!hi.empty() && it->first >= std::string(hi)) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> StorageEngine::ScanPrefix(
    std::string_view table, std::string_view prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return out;
  for (auto it = table_it->second.lower_bound(prefix);
       it != table_it->second.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

size_t StorageEngine::TableSize(std::string_view table) const {
  auto table_it = tables_.find(table);
  return table_it == tables_.end() ? 0 : table_it->second.size();
}

Result<int64_t> StorageEngine::NextSequence(std::string_view name) {
  if (injector_ != nullptr) {
    ORCH_RETURN_IF_ERROR(injector_->MaybeFail("storage.sequence"));
  }
  const int64_t next = sequences_[std::string(name)] + 1;
  if (wal_ != nullptr) {
    std::string payload;
    db::PutLengthPrefixed(&payload, name);
    db::PutVarint64(&payload, static_cast<uint64_t>(next));
    ORCH_RETURN_IF_ERROR(wal_->Append(kSequence, payload));
    ORCH_RETURN_IF_ERROR(wal_->Sync());
  }
  sequences_[std::string(name)] = next;
  return next;
}

int64_t StorageEngine::CurrentSequence(std::string_view name) const {
  auto it = sequences_.find(name);
  return it == sequences_.end() ? 0 : it->second;
}

Status StorageEngine::Sync() {
  if (injector_ != nullptr) {
    ORCH_RETURN_IF_ERROR(injector_->MaybeFail("storage.sync"));
  }
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

}  // namespace orchestra::storage

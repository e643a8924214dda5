#include "core/apply.h"

#include "common/check.h"

namespace orchestra::core {

const db::Tuple* InstanceOverlay::Get(const std::string& relation,
                                      const db::Tuple& key) const {
  auto it = pending_.find(RelKey{relation, key});
  if (it != pending_.end()) {
    return it->second.has_value() ? &*it->second : nullptr;
  }
  auto table = base_->GetTable(relation);
  if (!table.ok()) return nullptr;
  return (*table)->Find(key);
}

Status InstanceOverlay::Apply(const Update& update) {
  auto schema_result = base_->catalog().GetRelation(update.relation());
  if (!schema_result.ok()) return schema_result.status();
  const db::RelationSchema& schema = **schema_result;

  switch (update.kind()) {
    case UpdateKind::kInsert: {
      ORCH_RETURN_IF_ERROR(schema.ValidateTuple(update.new_tuple()));
      const db::Tuple key = schema.KeyOf(update.new_tuple());
      if (const db::Tuple* existing = Get(update.relation(), key)) {
        if (*existing == update.new_tuple()) return Status::OK();  // agree
        return Status::Conflict("insert of " + update.new_tuple().ToString() +
                                " collides with existing " +
                                existing->ToString() + " in " +
                                update.relation());
      }
      pending_[RelKey{update.relation(), key}] = update.new_tuple();
      return Status::OK();
    }
    case UpdateKind::kDelete: {
      const db::Tuple key = schema.KeyOf(update.old_tuple());
      const db::Tuple* existing = Get(update.relation(), key);
      if (existing == nullptr) return Status::OK();  // already gone: agree
      if (*existing != update.old_tuple()) {
        return Status::Conflict("delete pre-image " +
                                update.old_tuple().ToString() +
                                " is stale; instance has " +
                                existing->ToString());
      }
      pending_[RelKey{update.relation(), key}] = std::nullopt;
      return Status::OK();
    }
    case UpdateKind::kModify: {
      ORCH_RETURN_IF_ERROR(schema.ValidateTuple(update.new_tuple()));
      const db::Tuple old_key = schema.KeyOf(update.old_tuple());
      const db::Tuple new_key = schema.KeyOf(update.new_tuple());
      const db::Tuple* existing = Get(update.relation(), old_key);
      if (existing == nullptr) {
        // Pre-image gone. If the exact post-image is present the
        // replacement has already taken effect (agreement).
        const db::Tuple* target = Get(update.relation(), new_key);
        if (target != nullptr && *target == update.new_tuple()) {
          return Status::OK();
        }
        return Status::Conflict("modify pre-image " +
                                update.old_tuple().ToString() +
                                " is absent from " + update.relation());
      }
      if (*existing != update.old_tuple()) {
        if (*existing == update.new_tuple()) {
          return Status::OK();  // replacement already took effect (agree)
        }
        return Status::Conflict("modify pre-image " +
                                update.old_tuple().ToString() +
                                " is stale; instance has " +
                                existing->ToString());
      }
      if (new_key != old_key) {
        if (Get(update.relation(), new_key) != nullptr) {
          return Status::Conflict("modify target key " + new_key.ToString() +
                                  " is occupied in " + update.relation());
        }
        pending_[RelKey{update.relation(), old_key}] = std::nullopt;
      }
      pending_[RelKey{update.relation(), new_key}] = update.new_tuple();
      return Status::OK();
    }
  }
  return Status::Internal("unreachable update kind");
}

Status InstanceOverlay::CheckForeignKeys() const {
  const db::Catalog& catalog = base_->catalog();
  for (const auto& [rel_key, state] : pending_) {
    if (state.has_value()) {
      // Upserted child tuples must reference existing parents.
      for (const db::ForeignKey* fk : catalog.ForeignKeysOf(rel_key.relation)) {
        db::Tuple ref = state->Project(fk->child_columns);
        bool all_null = true;
        for (const db::Value& v : ref.values()) {
          if (!v.is_null()) all_null = false;
        }
        if (all_null) continue;
        if (Get(fk->parent_relation, ref) == nullptr) {
          return Status::ConstraintViolation(
              "tuple " + state->ToString() + " in " + rel_key.relation +
              " references missing key " + ref.ToString() + " of " +
              fk->parent_relation);
        }
      }
    } else {
      // Vacated parent keys must leave no dangling children. Children
      // shadowed by pending changes are checked through the overlay.
      for (const db::ForeignKey* fk :
           catalog.ForeignKeysReferencing(rel_key.relation)) {
        auto child_table = base_->GetTable(fk->child_relation);
        if (!child_table.ok()) continue;
        const db::RelationSchema& child_schema = (*child_table)->schema();
        for (const db::Tuple& child : (*child_table)->Rows()) {
          // Skip rows the overlay rewrote or removed.
          const db::Tuple child_key = child_schema.KeyOf(child);
          auto shadow = pending_.find(RelKey{fk->child_relation, child_key});
          const db::Tuple* effective =
              shadow == pending_.end()
                  ? &child
                  : (shadow->second ? &*shadow->second : nullptr);
          if (effective == nullptr) continue;
          if (effective->Project(fk->child_columns) == rel_key.key) {
            return Status::ConstraintViolation(
                "deleting key " + rel_key.key.ToString() + " of " +
                rel_key.relation + " orphans " + effective->ToString() +
                " in " + fk->child_relation);
          }
        }
        // Pending upserts into the child relation also count.
        for (const auto& [other_key, other_state] : pending_) {
          if (other_key.relation != fk->child_relation || !other_state) {
            continue;
          }
          if (other_state->Project(fk->child_columns) == rel_key.key) {
            return Status::ConstraintViolation(
                "deleting key " + rel_key.key.ToString() + " of " +
                rel_key.relation + " orphans pending " +
                other_state->ToString() + " in " + fk->child_relation);
          }
        }
      }
    }
  }
  return Status::OK();
}

Status InstanceOverlay::CommitTo(db::Instance* target) const {
  // Two passes so that key-freeing removals land before occupying
  // upserts.
  for (const auto& [rel_key, state] : pending_) {
    if (state.has_value()) continue;
    ORCH_ASSIGN_OR_RETURN(db::Table * table, target->GetTable(rel_key.relation));
    // The key may legitimately be absent (idempotent delete).
    Status s = table->DeleteByKey(rel_key.key);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  for (const auto& [rel_key, state] : pending_) {
    if (!state.has_value()) continue;
    ORCH_ASSIGN_OR_RETURN(db::Table * table, target->GetTable(rel_key.relation));
    if (const db::Tuple* existing = table->Find(rel_key.key)) {
      if (*existing == *state) continue;  // idempotent upsert
      ORCH_RETURN_IF_ERROR(table->Replace(*existing, *state));
    } else {
      ORCH_RETURN_IF_ERROR(table->Insert(*state));
    }
  }
  return Status::OK();
}

Status ApplySet(InstanceOverlay* overlay, const std::vector<Update>& updates) {
  // Deletes free keys that modifies and inserts may claim.
  for (const Update& u : updates) {
    if (u.is_delete()) ORCH_RETURN_IF_ERROR(overlay->Apply(u));
  }
  // Modifies can chain through keys (a->b while b->c); iterate any
  // applicable one to a fixpoint.
  std::vector<const Update*> todo;
  for (const Update& u : updates) {
    if (u.is_modify()) todo.push_back(&u);
  }
  while (!todo.empty()) {
    std::vector<const Update*> stuck;
    Status last_error = Status::OK();
    for (const Update* u : todo) {
      Status s = overlay->Apply(*u);
      if (!s.ok()) {
        stuck.push_back(u);
        last_error = std::move(s);
      }
    }
    if (stuck.size() == todo.size()) return last_error;  // no progress
    todo = std::move(stuck);
  }
  for (const Update& u : updates) {
    if (u.is_insert()) ORCH_RETURN_IF_ERROR(overlay->Apply(u));
  }
  return overlay->CheckForeignKeys();
}

Status CheckApplicable(const db::Instance& instance,
                       const std::vector<Update>& updates) {
  InstanceOverlay overlay(&instance);
  return ApplySet(&overlay, updates);
}

Status ApplyFlattened(db::Instance* instance,
                      const std::vector<Update>& updates) {
  InstanceOverlay overlay(instance);
  ORCH_RETURN_IF_ERROR(ApplySet(&overlay, updates));
  return overlay.CommitTo(instance);
}

}  // namespace orchestra::core

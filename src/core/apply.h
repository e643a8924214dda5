#ifndef ORCHESTRA_CORE_APPLY_H_
#define ORCHESTRA_CORE_APPLY_H_

#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "db/instance.h"
#include "core/update.h"

namespace orchestra::core {

/// A copy-on-write view over a database instance: reads fall through to
/// the base instance unless shadowed by pending changes. Used to test
/// whether a flattened update extension "can be completely applied ...
/// without violating integrity constraints" (Definition 5, condition 2)
/// without cloning or mutating the instance.
class InstanceOverlay {
 public:
  explicit InstanceOverlay(const db::Instance* base) : base_(base) {}

  /// The visible full tuple for (relation, key), honoring pending
  /// changes; nullptr if absent or deleted in the overlay. Valid until
  /// the overlay or its base is next modified.
  const db::Tuple* Get(const std::string& relation,
                       const db::Tuple& key) const;

  /// Applies one net update with *idempotent agreement* semantics:
  ///  - insert of an already-present identical tuple is a no-op;
  ///  - delete of an absent key is a no-op (an identical delete already
  ///    took effect — divergent histories are caught upstream by the
  ///    decided-transaction check);
  ///  - modify whose pre-image is gone but whose exact post-image is
  ///    present is a no-op;
  ///  - anything else that does not match the visible state is an error
  ///    (Conflict / ConstraintViolation), meaning the extension is
  ///    incompatible with the instance.
  Status Apply(const Update& update);

  /// Verifies foreign keys touched by the pending changes (inserted and
  /// modified child tuples must resolve; vacated parent keys must leave
  /// no dangling children).
  Status CheckForeignKeys() const;

  /// Writes the pending changes into `target`, which must be the base
  /// instance this overlay was constructed over.
  Status CommitTo(db::Instance* target) const;

 private:
  const db::Instance* base_;
  // relation/key -> pending state: engaged optional = upserted tuple,
  // disengaged = tombstone. Ordered (lint rule D3): CheckForeignKeys
  // reports the *first* violation it meets and CommitTo writes the
  // overlay out whole, so walk order must not depend on a hash.
  std::map<RelKey, std::optional<db::Tuple>> pending_;
};

/// Applies a flattened update set to the overlay in dependency-safe
/// order: deletes first, then modifies (iterated to a fixpoint so that
/// key-moving chains resolve), then inserts. Any failure is returned and
/// the overlay is left in an unspecified state (discard it).
Status ApplySet(InstanceOverlay* overlay, const std::vector<Update>& updates);

/// True application-compatibility test of Definition 5 condition 2:
/// trial-applies the flattened set over `instance` and checks integrity.
Status CheckApplicable(const db::Instance& instance,
                       const std::vector<Update>& updates);

/// Applies the flattened set to the instance for real (same semantics,
/// then commits). All-or-nothing: on error the instance is unchanged.
Status ApplyFlattened(db::Instance* instance,
                      const std::vector<Update>& updates);

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_APPLY_H_

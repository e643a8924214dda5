#ifndef ORCHESTRA_WORKLOAD_SWISSPROT_H_
#define ORCHESTRA_WORKLOAD_SWISSPROT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "db/instance.h"
#include "db/schema.h"
#include "core/update.h"
#include "workload/zipf.h"

namespace orchestra::workload {

/// Names of the two relations generated by the workload.
inline constexpr const char kFunctionRelation[] = "Function";
inline constexpr const char kCrossRefRelation[] = "CrossRef";

/// Builds the bioinformatics schema of §6:
///   Function(organism, protein, function), key (organism, protein)
///   CrossRef(organism, protein, xref_db, accession),
///       key (organism, protein, xref_db, accession),
///       FK (organism, protein) -> Function
Result<db::Catalog> MakeSwissProtCatalog();

/// Configuration of the synthetic curated-database workload (§6).
struct WorkloadConfig {
  /// Function updates per transaction (the paper's "transaction size").
  size_t transaction_size = 1;
  /// Number of distinct (organism, protein) keys in the shared pool.
  size_t key_pool = 4000;
  /// Skew of key selection. Mild by default: most curation conflicts
  /// come from divergent *replacements* of shared tuples, not from two
  /// peers inserting the same brand-new key.
  double key_zipf_s = 0.5;
  /// Number of protein-function terms; values are drawn Zipf(zipf_s).
  size_t function_pool = 400;
  /// Zipf characteristic exponent for function values (paper: 1.5).
  double zipf_s = 1.5;
  /// Probability that an operation replaces an existing tuple of the
  /// generating peer's instance (when one exists) instead of inserting —
  /// the paper's "series of insertions or replacements".
  double replace_fraction = 0.5;
  /// Probability that an operation deletes an existing tuple (with its
  /// cross-references, keeping the FK satisfied). The paper's workload
  /// has none; this drives the deletion-conflict extension experiments.
  double delete_fraction = 0.0;
  /// Mean number of CrossRef tuples inserted per newly inserted Function
  /// key (paper: 7.3 on average).
  double crossrefs_per_insert = 7.3;
  uint64_t seed = 42;
};

/// Generates update transactions mimicking curation of a SWISS-PROT-like
/// database: each transaction is a series of insertions or replacements
/// over Function; inserting a new key also inserts its database
/// cross-references. Replacements are generated against the publishing
/// peer's current instance so they are locally valid.
class SwissProtWorkload {
 public:
  explicit SwissProtWorkload(WorkloadConfig config);

  const WorkloadConfig& config() const { return config_; }

  /// Generates the update list for one transaction by `peer` against its
  /// current instance. The updates are unstamped (origin is set by
  /// Participant::ExecuteTransaction).
  std::vector<core::Update> NextTransaction(core::ParticipantId peer,
                                            const db::Instance& instance);

  /// The (organism, protein) key with pool rank `rank`.
  db::Tuple KeyAt(size_t rank) const;
  /// The function term with pool rank `rank`.
  std::string FunctionAt(size_t rank) const;

 private:
  /// Draws a Poisson-distributed count with the configured cross-ref
  /// mean (Knuth's method; the mean is small).
  size_t SampleCrossRefCount();

  /// A uniformly drawn row of a non-empty `table`, in its iteration order.
  const db::Tuple& PickRow(const db::Table& table);

  WorkloadConfig config_;
  Rng rng_;
  ZipfDistribution key_zipf_;
  ZipfDistribution function_zipf_;
};

/// Embedded vocabulary used to render realistic values.
const std::vector<std::string>& OrganismVocabulary();
const std::vector<std::string>& FunctionVocabulary();
const std::vector<std::string>& CrossRefDatabases();

}  // namespace orchestra::workload

#endif  // ORCHESTRA_WORKLOAD_SWISSPROT_H_

#include "workload/swissprot.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/check.h"

namespace orchestra::workload {

namespace {

std::vector<std::string> MakeOrganisms() {
  return {
      "Homo sapiens",       "Mus musculus",       "Rattus norvegicus",
      "Danio rerio",        "Drosophila melanogaster",
      "Caenorhabditis elegans", "Saccharomyces cerevisiae",
      "Escherichia coli",   "Bacillus subtilis",  "Arabidopsis thaliana",
      "Gallus gallus",      "Bos taurus",         "Sus scrofa",
      "Xenopus laevis",     "Oryza sativa",       "Zea mays",
      "Canis familiaris",   "Felis catus",        "Macaca mulatta",
      "Pan troglodytes",    "Ovis aries",         "Equus caballus",
      "Oryctolagus cuniculus", "Cavia porcellus", "Mesocricetus auratus",
      "Schizosaccharomyces pombe", "Neurospora crassa",
      "Dictyostelium discoideum",  "Plasmodium falciparum",
      "Mycobacterium tuberculosis",
  };
}

std::vector<std::string> MakeFunctions() {
  // GO-style molecular function / biological process terms, expanded
  // combinatorially to reach a realistic vocabulary size.
  const std::vector<std::string> bases = {
      "cell-metabolism",        "immune-response",
      "cellular-respiration",   "signal-transduction",
      "dna-repair",             "dna-replication",
      "rna-splicing",           "protein-folding",
      "protein-phosphorylation","lipid-metabolism",
      "glycolysis",             "gluconeogenesis",
      "apoptosis",              "cell-cycle-regulation",
      "transcription-regulation","translation-initiation",
      "ion-transport",          "electron-transport",
      "oxidative-phosphorylation","photosynthesis",
      "proteolysis",            "ubiquitination",
      "chromatin-remodeling",   "histone-modification",
      "vesicle-transport",      "endocytosis",
      "exocytosis",             "cytoskeleton-organization",
      "cell-adhesion",          "cell-migration",
      "angiogenesis",           "neurotransmission",
      "synaptic-plasticity",    "muscle-contraction",
      "heme-binding",           "atp-binding",
      "gtpase-activity",        "kinase-activity",
      "phosphatase-activity",   "oxidoreductase-activity",
  };
  const std::vector<std::string> qualifiers = {
      "", "positive-regulation-of-", "negative-regulation-of-",
      "mitochondrial-", "nuclear-", "membrane-", "cytoplasmic-",
      "extracellular-", "regulation-of-", "response-to-",
  };
  std::vector<std::string> out;
  out.reserve(bases.size() * qualifiers.size());
  for (const std::string& q : qualifiers) {
    for (const std::string& b : bases) {
      out.push_back(q + b);
    }
  }
  return out;
}

std::vector<std::string> MakeCrossRefDbs() {
  return {"EMBL",    "PDB",      "PIR",       "PROSITE", "InterPro",
          "Pfam",    "GenBank",  "RefSeq",    "KEGG",    "GO",
          "OMIM",    "FlyBase",  "WormBase",  "SGD",     "MGI"};
}

}  // namespace

const std::vector<std::string>& OrganismVocabulary() {
  static const std::vector<std::string>& v =
      *new std::vector<std::string>(MakeOrganisms());
  return v;
}

const std::vector<std::string>& FunctionVocabulary() {
  static const std::vector<std::string>& v =
      *new std::vector<std::string>(MakeFunctions());
  return v;
}

const std::vector<std::string>& CrossRefDatabases() {
  static const std::vector<std::string>& v =
      *new std::vector<std::string>(MakeCrossRefDbs());
  return v;
}

Result<db::Catalog> MakeSwissProtCatalog() {
  db::Catalog catalog;
  {
    ORCH_ASSIGN_OR_RETURN(
        db::RelationSchema function_schema,
        db::RelationSchema::Make(
            kFunctionRelation,
            {{"organism", db::ValueType::kString, false},
             {"protein", db::ValueType::kString, false},
             {"function", db::ValueType::kString, false}},
            {0, 1}));
    ORCH_RETURN_IF_ERROR(catalog.AddRelation(std::move(function_schema)));
  }
  {
    ORCH_ASSIGN_OR_RETURN(
        db::RelationSchema crossref_schema,
        db::RelationSchema::Make(
            kCrossRefRelation,
            {{"organism", db::ValueType::kString, false},
             {"protein", db::ValueType::kString, false},
             {"xref_db", db::ValueType::kString, false},
             {"accession", db::ValueType::kString, false}},
            {0, 1, 2, 3}));
    ORCH_RETURN_IF_ERROR(catalog.AddRelation(std::move(crossref_schema)));
  }
  ORCH_RETURN_IF_ERROR(catalog.AddForeignKey(
      db::ForeignKey{kCrossRefRelation, {0, 1}, kFunctionRelation}));
  return catalog;
}

SwissProtWorkload::SwissProtWorkload(WorkloadConfig config)
    : config_(config),
      rng_(config.seed),
      key_zipf_(config.key_pool, config.key_zipf_s),
      function_zipf_(config.function_pool, config.zipf_s) {}

db::Tuple SwissProtWorkload::KeyAt(size_t rank) const {
  const auto& organisms = OrganismVocabulary();
  const std::string& organism = organisms[rank % organisms.size()];
  // SWISS-PROT-style accession: P + zero-padded pool index.
  char protein[16];
  std::snprintf(protein, sizeof(protein), "P%05zu", rank);
  return db::Tuple{db::Value(organism), db::Value(std::string(protein))};
}

std::string SwissProtWorkload::FunctionAt(size_t rank) const {
  const auto& functions = FunctionVocabulary();
  if (rank < functions.size()) return functions[rank];
  return functions[rank % functions.size()] + "-variant-" +
         std::to_string(rank / functions.size());
}

size_t SwissProtWorkload::SampleCrossRefCount() {
  // Knuth's Poisson sampler; mean is small (7.3).
  const double l = std::exp(-config_.crossrefs_per_insert);
  size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng_.NextDouble();
  } while (p > l);
  return k - 1;
}

const db::Tuple& SwissProtWorkload::PickRow(const db::Table& table) {
  const auto rows = table.Rows();
  const auto index =
      static_cast<std::ptrdiff_t>(rng_.NextBounded(table.size()));
  return *std::ranges::next(rows.begin(), index);
}

std::vector<core::Update> SwissProtWorkload::NextTransaction(
    core::ParticipantId peer, const db::Instance& instance) {
  std::vector<core::Update> updates;
  auto function_table = instance.GetTable(kFunctionRelation);
  ORCH_CHECK(function_table.ok());
  const db::RelationSchema& schema = (*function_table)->schema();

  // Keys already written within this transaction (avoid generating a
  // self-conflicting sequence).
  std::vector<db::Tuple> written;
  auto touched = [&](const db::Tuple& key) {
    for (const db::Tuple& w : written) {
      if (w == key) return true;
    }
    return false;
  };

  for (size_t op = 0; op < config_.transaction_size; ++op) {
    if (config_.delete_fraction > 0 && !(*function_table)->empty() &&
        rng_.NextBool(config_.delete_fraction)) {
      // Retire a curated entry: delete the Function tuple and every
      // cross-reference of its key in the same transaction, so the
      // foreign key stays satisfied.
      const db::Tuple& victim = PickRow(**function_table);
      const db::Tuple victim_key = schema.KeyOf(victim);
      if (touched(victim_key)) continue;
      auto crossref_table = instance.GetTable(kCrossRefRelation);
      ORCH_CHECK(crossref_table.ok());
      for (const db::Tuple& ref : (*crossref_table)->Rows()) {
        if (ref[0] == victim_key[0] && ref[1] == victim_key[1]) {
          updates.push_back(core::Update::Delete(kCrossRefRelation, ref, peer));
        }
      }
      updates.push_back(core::Update::Delete(kFunctionRelation, victim, peer));
      written.push_back(victim_key);
      continue;
    }
    const bool try_replace = !(*function_table)->empty() &&
                             rng_.NextBool(config_.replace_fraction);
    if (try_replace) {
      // Replace the function value of an existing tuple with a fresh
      // Zipf-drawn term (curation revises a conclusion).
      const db::Tuple& victim = PickRow(**function_table);
      const db::Tuple victim_key = schema.KeyOf(victim);
      if (touched(victim_key)) continue;
      std::string new_function = FunctionAt(function_zipf_.Sample(rng_));
      if (victim[2].AsString() == new_function) {
        new_function = FunctionAt((function_zipf_.Sample(rng_) + 1) %
                                  config_.function_pool);
      }
      db::Tuple new_tuple{victim[0], victim[1],
                          db::Value(std::move(new_function))};
      if (new_tuple == victim) continue;
      updates.push_back(core::Update::Modify(kFunctionRelation, victim,
                                             new_tuple, peer));
      written.push_back(victim_key);
      continue;
    }
    // Insert a (possibly contested) key from the shared pool. If this
    // peer already has the key, fall back to replacing it.
    const size_t rank = key_zipf_.Sample(rng_);
    const db::Tuple key = KeyAt(rank);
    if (touched(key)) continue;
    const std::string function = FunctionAt(function_zipf_.Sample(rng_));
    db::Tuple tuple{key[0], key[1], db::Value(function)};
    auto existing = (*function_table)->GetByKey(key);
    if (existing.ok()) {
      if (*existing == tuple) continue;  // nothing to change
      updates.push_back(
          core::Update::Modify(kFunctionRelation, *existing, tuple, peer));
      written.push_back(key);
      continue;
    }
    updates.push_back(core::Update::Insert(kFunctionRelation, tuple, peer));
    written.push_back(key);
    // Database cross-references accompany every newly inserted key
    // (7.3 tuples on average, §6).
    const size_t n_refs = SampleCrossRefCount();
    const auto& dbs = CrossRefDatabases();
    for (size_t r = 0; r < n_refs; ++r) {
      const std::string& xref_db = dbs[rng_.NextBounded(dbs.size())];
      char accession[24];
      std::snprintf(accession, sizeof(accession), "%s%06" PRIu64 "",
                    xref_db.substr(0, 2).c_str(),
                    rng_.Next() % 1000000);
      updates.push_back(core::Update::Insert(
          kCrossRefRelation,
          db::Tuple{key[0], key[1], db::Value(xref_db),
                    db::Value(std::string(accession))},
          peer));
    }
  }
  return updates;
}

}  // namespace orchestra::workload

// provenance_dump: runs a seeded confederation and bulk-exports every
// decision-provenance record (core/provenance.h) as JSONL — one record
// per line, deterministic byte-for-byte for a given configuration.
//
// Usage: provenance_dump [central|dht] [out.jsonl]
//   out.jsonl defaults to stdout. The summary goes to stderr so the
//   JSONL stream stays machine-readable.
//
// For the central store the tool also re-reads each peer's durable
// "prov:<peer>" table, verifies every row's CRC envelope, and checks
// that the payloads, concatenated in key order, equal that peer's
// in-memory log byte for byte — a round-trip audit of the persistence
// path that also catches lost or overwritten rows.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "db/serde.h"
#include "core/provenance.h"
#include "sim/cdss.h"
#include "storage/engine.h"

using namespace orchestra;

int main(int argc, char** argv) {
  sim::CdssConfig cfg;
  cfg.participants = 6;
  cfg.rounds = 4;
  cfg.txns_between_recons = 2;
  cfg.seed = 42;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "dht") == 0) {
      cfg.store = sim::StoreKind::kDht;
    } else if (std::strcmp(argv[i], "central") == 0) {
      cfg.store = sim::StoreKind::kCentral;
    } else {
      out_path = argv[i];
    }
  }

  auto cdss = sim::Cdss::Make(cfg);
  if (!cdss.ok()) {
    std::fprintf(stderr, "Cdss::Make failed: %s\n",
                 cdss.status().ToString().c_str());
    return 1;
  }
  auto result = (*cdss)->Run();
  if (!result.ok()) {
    std::fprintf(stderr, "Cdss::Run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // Participant logs, in peer order then record order — the canonical
  // deterministic serialization (also what the determinism test diffs).
  std::vector<std::string> peer_jsonl;
  std::string jsonl;
  size_t records = 0;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const auto& log = (*cdss)->participant(i).provenance_log();
    peer_jsonl.push_back(core::ToJsonLines(log));
    jsonl += peer_jsonl.back();
    records += log.size();
  }

  if (out_path.empty()) {
    std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
  }
  std::fprintf(stderr, "%zu provenance records from %zu peers (%s store)\n",
               records, (*cdss)->participant_count(),
               cfg.store == sim::StoreKind::kDht ? "dht" : "central");

  // Durable round-trip audit (central store only: the DHT keeps its
  // advisory log in memory at the coordinator).
  if (storage::StorageEngine* engine = (*cdss)->engine(); engine != nullptr) {
    size_t rows = 0;
    size_t bad = 0;
    for (size_t i = 0; i < peer_jsonl.size(); ++i) {
      const core::ParticipantId peer = (*cdss)->participant(i).id();
      // A row that fails verification adds nothing, so the peer's
      // concatenation then differs from its log.
      std::string stored;
      for (const auto& [key, value] :
           engine->ScanPrefix("prov:" + std::to_string(peer), "")) {
        ++rows;
        auto payload = db::UnwrapEnvelope(value);
        if (payload.ok()) stored += *payload;
      }
      if (stored != peer_jsonl[i]) ++bad;
    }
    std::fprintf(stderr,
                 "durable audit: %zu enveloped rows, %zu peers whose rows "
                 "failed verification or differ from the in-memory log\n",
                 rows, bad);
    if (bad != 0) return 1;
  }
  return 0;
}

// `orch_sweep corruption`: silent corruption is detected and absorbed.
//
// With checksummed storage and wire formats, corruption anywhere in the
// system is detected and absorbed: decisions stay bit-identical to a
// corruption-free run. Every seeded leg whose schedule corrupted a
// buffer must also have detected corruption, so a leg cannot pass by
// consuming rot that a checksum should have caught. Standalone WAL legs
// exercise the torn-write, truncated-tail and bit-flip recovery paths
// with skip accounting.
//
// Every seeded leg reports `exercised` (buffers actually corrupted)
// without gating it: the central kDelta legs never cross an armed site.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "storage/wal.h"
#include "sweep_harness.h"

namespace orchestra::bench {
namespace {

constexpr double kCorruptionProbability = 0.005;
constexpr uint64_t kSeeds[] = {1, 2, 3};

Leg CorruptionLeg(sim::StoreKind kind, uint64_t seed, core::FetchMode mode) {
  Leg leg;
  leg.seed = seed;
  leg.config.participants = 25;
  leg.config.store = kind;
  leg.config.rounds = 4;
  leg.config.txns_between_recons = 2;
  leg.config.fetch_mode = mode;
  if (kind == sim::StoreKind::kDht) leg.config.scrub_interval_rounds = 2;
  if (seed != 0) {
    leg.config.fault.corruption_probability = kCorruptionProbability;
    leg.config.fault.seed = seed;
    leg.config.fault.corruption_sites = {
        "storage.bit_flip", "storage.torn_write", "storage.truncate_tail",
        "net.payload_corrupt"};
  }
  RunLeg(leg);
  return leg;
}

// Standalone WAL recovery leg: append a record stream with one
// corruption site armed, replay, and require that every delivered
// record is byte-identical to one of the appended records *in order*
// (i.e. recovery may lose damaged records — with the loss accounted —
// but must never deliver tampered bytes as if they were valid).
struct WalLeg {
  std::string site;
  uint64_t seed = 0;
  bool ok = false;
  bool clean_subsequence = false;
  int64_t corrupted_buffers = 0;
  int64_t appended = 0;
  std::string error;
  storage::WriteAheadLog::ReplayStats stats;
};

WalLeg RunWalLeg(const std::string& site, uint64_t seed) {
  constexpr int kWalRecords = 200;
  WalLeg leg;
  leg.site = site;
  leg.seed = seed;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("orch_corruption_wal_" + site + "_" + std::to_string(seed) + "_" +
        std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  FaultInjector injector;
  FaultInjectorConfig fcfg;
  // Write-side sites draw once per append; read-side sites draw once
  // per replay. Arm the read-side ones at certainty so one replay is
  // guaranteed to exercise the recovery path.
  fcfg.corruption_probability = site == "storage.torn_write" ? 0.05 : 1.0;
  fcfg.seed = seed;
  fcfg.corruption_sites = {site};
  injector.Configure(fcfg);

  std::vector<std::pair<uint8_t, std::string>> appended;
  {
    auto wal = storage::WriteAheadLog::Open(path);
    if (!wal.ok()) {
      leg.error = wal.status().ToString();
      return leg;
    }
    (*wal)->set_fault_injector(site == "storage.torn_write" ? &injector
                                                            : nullptr);
    for (int i = 0; i < kWalRecords; ++i) {
      const uint8_t type = static_cast<uint8_t>(1 + i % 5);
      std::string payload = "record-" + std::to_string(i) +
                            std::string(static_cast<size_t>(i % 17), 'x');
      if (Status s = (*wal)->Append(type, payload); !s.ok()) {
        leg.error = s.ToString();
        return leg;
      }
      appended.emplace_back(type, std::move(payload));
    }
    if (Status s = (*wal)->Sync(); !s.ok()) {
      leg.error = s.ToString();
      return leg;
    }
  }
  leg.appended = kWalRecords;

  auto wal = storage::WriteAheadLog::Open(path);
  if (!wal.ok()) {
    leg.error = wal.status().ToString();
    return leg;
  }
  if (site != "storage.torn_write") (*wal)->set_fault_injector(&injector);
  std::vector<std::pair<uint8_t, std::string>> delivered;
  Status replay = (*wal)->ReplayWithStats(
      [&](uint8_t type, std::string_view payload) {
        delivered.emplace_back(type, std::string(payload));
        return Status::OK();
      },
      &leg.stats);
  std::remove(path.c_str());
  if (!replay.ok()) {
    leg.error = replay.ToString();
    return leg;
  }
  leg.ok = true;
  leg.corrupted_buffers = injector.corrupted();
  // Ordered-subsequence check: scan the appended stream for each
  // delivered record in turn.
  size_t cursor = 0;
  bool clean = true;
  for (const auto& rec : delivered) {
    while (cursor < appended.size() && appended[cursor] != rec) ++cursor;
    if (cursor == appended.size()) {
      clean = false;  // a delivered record matches nothing we wrote
      break;
    }
    ++cursor;
  }
  leg.clean_subsequence = clean;
  return leg;
}

}  // namespace

bool RunCorruptionSweep(Json& j) {
  const auto start = MetricsRegistry::Global().CounterValues();
  std::vector<Leg> legs;
  bool pass = true;
  int64_t total_detected = 0;
  int64_t total_repairs = 0;
  for (sim::StoreKind kind : {sim::StoreKind::kCentral, sim::StoreKind::kDht}) {
    const size_t baseline = legs.size();
    legs.push_back(CorruptionLeg(kind, 0, core::FetchMode::kDelta));
    pass = pass && legs[baseline].ok;
    // Three seeds under kDelta, then one kFull leg under the first
    // seed's schedule: the reference re-reads the whole history from the
    // stored rows and replicas every round instead of serving it from
    // soft state (on the central store, the only leg whose fetches read
    // rotten rows).
    const std::pair<uint64_t, core::FetchMode> kLegs[] = {
        {kSeeds[0], core::FetchMode::kDelta},
        {kSeeds[1], core::FetchMode::kDelta},
        {kSeeds[2], core::FetchMode::kDelta},
        {kSeeds[0], core::FetchMode::kFull}};
    for (const auto& [seed, mode] : kLegs) {
      Leg& leg = legs.emplace_back(CorruptionLeg(kind, seed, mode));
      const sim::CdssResult& r = leg.result;
      leg.matches_baseline = Matches(leg, legs[baseline]);
      // The headline assertions: decisions bit-identical, and rot that
      // landed was caught by a checksum somewhere in the leg.
      const bool detected = leg.corrupted_buffers == 0 ||
                            r.corrupt_reads_detected > 0;
      pass = pass && leg.ok && leg.matches_baseline && detected;
      total_detected += r.corrupt_reads_detected;
      total_repairs += r.read_repairs;
      PrintLeg("corruption", leg);
    }
  }
  // The sweep is vacuous unless corruption was actually detected (and,
  // on the DHT, healed) somewhere.
  const bool exercised = total_detected > 0 && total_repairs > 0;
  pass = pass && exercised;

  // WAL recovery legs: one per storage site, three seeds each.
  std::vector<WalLeg> wal_legs;
  for (const char* site :
       {"storage.torn_write", "storage.truncate_tail", "storage.bit_flip"}) {
    for (uint64_t seed : kSeeds) {
      const WalLeg& leg = wal_legs.emplace_back(RunWalLeg(site, seed));
      pass = pass && leg.ok && leg.clean_subsequence &&
             leg.corrupted_buffers > 0;
      std::printf("corruption wal %s seed %llu: %s, %lld/%lld records, %s\n",
                  site, static_cast<unsigned long long>(seed),
                  leg.ok ? "replayed" : leg.error.c_str(),
                  static_cast<long long>(leg.stats.records),
                  static_cast<long long>(leg.appended),
                  leg.clean_subsequence ? "no tampered record delivered"
                                        : "TAMPERED RECORD DELIVERED");
    }
  }

  j.Begin('{', true).Field("bench", "corruption_sweep");
  j.Field("corruption_probability", kCorruptionProbability, 3);
  j.Field("all_checks_pass", pass).Field("corruption_exercised", exercised);
  WriteMetrics(j, start, MetricsRegistry::Global().CounterValues());
  j.Key("runs").Begin('[', true);
  for (const Leg& leg : legs) {
    const sim::CdssResult& r = leg.result;
    j.Begin('{').Field("store", StoreName(leg.config.store));
    j.Field("mode", core::FetchModeName(leg.config.fetch_mode))
        .Field("seed", leg.seed)
        .Field("corrupted_buffers", leg.corrupted_buffers)
        .Field("detected", r.corrupt_reads_detected)
        .Field("repairs", r.read_repairs);
    WriteOutcome(j, leg);
    j.Close();
  }
  j.Close().Key("wal_legs").Begin('[', true);
  for (const WalLeg& l : wal_legs) {
    j.Begin('{').Field("site", l.site).Field("seed", l.seed);
    j.Field("replayed", l.ok)
        .Field("appended", l.appended)
        .Field("recovered", l.stats.records)
        .Field("skipped_regions", l.stats.skipped_regions)
        .Field("skipped_bytes", l.stats.skipped_bytes)
        .Field("dropped_tail_bytes", l.stats.dropped_tail_bytes)
        .Field("corrupted_buffers", l.corrupted_buffers)
        .Field("exercised", l.corrupted_buffers > 0)
        .Field("clean_subsequence", l.clean_subsequence)
        .Close();
  }
  j.Close().Close();
  return pass;
}

}  // namespace orchestra::bench

#include "sweep_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/metrics.h"

namespace orchestra::bench {

db::Catalog& ProteinCatalog() {
  static db::Catalog& catalog = *new db::Catalog([] {
    db::Catalog c;
    auto schema = db::RelationSchema::Make(
        "F",
        {{"organism", db::ValueType::kString, false},
         {"protein", db::ValueType::kString, false},
         {"function", db::ValueType::kString, false}},
        {0, 1});
    ORCH_CHECK(schema.ok());
    ORCH_CHECK(c.AddRelation(*std::move(schema)).ok());
    return c;
  }());
  return catalog;
}

double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
}

void Json::BeginValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += ',';
  if (frame.one_per_line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  } else if (!frame.empty) {
    out_ += ' ';
  }
  frame.empty = false;
}

Json& Json::Begin(char bracket, bool one_per_line) {
  BeginValue();
  out_ += bracket;
  stack_.push_back({bracket == '{' ? '}' : ']', one_per_line});
  return *this;
}

Json& Json::Close() {
  ORCH_CHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.one_per_line && !frame.empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += frame.close;
  if (stack_.empty()) out_ += '\n';
  return *this;
}

Json& Json::Key(std::string_view name) {
  Str(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

Json& Json::Str(std::string_view value) {
  BeginValue();
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out_ += esc;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Num(double value, int precision) {
  if (!std::isfinite(value)) return Raw("null");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return Raw(buf);
}

Json& Json::Raw(std::string_view token) {
  BeginValue();
  out_ += token;
  return *this;
}

Json& Json::Field(std::string_view key, const std::vector<double>& values,
                  int precision) {
  Key(key).Begin('[');
  for (const double v : values) Num(v, precision);
  return Close();
}

bool Json::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

void WriteMetrics(Json& j, const std::map<std::string, int64_t>& start,
                  const std::map<std::string, int64_t>& end) {
  constexpr std::string_view kTimeSuffix = "_micros";
  j.Key("metrics").Begin('{', true);
  for (const auto& [name, value] : CounterDeltas(start, end)) {
    if (!std::string_view(name).ends_with(kTimeSuffix)) j.Field(name, value);
  }
  j.Close();
}

void RunLeg(Leg& leg, const Driver& drive) {
  auto cdss = sim::Cdss::Make(leg.config);
  if (!cdss.ok()) {
    leg.error = cdss.status().ToString();
    return;
  }
  Status status;
  if (drive) {
    status = drive(**cdss);
  } else if (auto result = (*cdss)->Run(); result.ok()) {
    leg.result = *result;
  } else {
    status = result.status();
  }
  leg.corrupted_buffers = (*cdss)->fault_injector().corrupted();
  if (!status.ok()) {
    leg.error = status.ToString();
    return;
  }
  leg.ok = true;
  const auto sorted = [](const core::TxnIdSet& ids) {
    std::vector<std::pair<uint32_t, uint64_t>> out;
    for (const core::TransactionId& id : ids) out.emplace_back(id.origin, id.seq);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::Participant& p = (*cdss)->participant(i);
    leg.peers.push_back({sorted(p.applied()), sorted(p.rejected())});
  }
}

bool Matches(const Leg& leg, const Leg& baseline) {
  return leg.ok && baseline.ok && leg.peers == baseline.peers &&
         leg.result.state_ratio == baseline.result.state_ratio;
}

bool Exercised(const Leg& leg) {
  const sim::CdssResult& r = leg.result;
  return r.faults_injected > 0 ||
         r.node_crashes + r.node_joins + r.node_leaves > 0 ||
         leg.corrupted_buffers > 0;
}

const char* StoreName(sim::StoreKind kind) {
  return kind == sim::StoreKind::kCentral ? "central" : "dht";
}

void PrintLeg(const char* sweep, const Leg& leg) {
  const sim::CdssResult& r = leg.result;
  std::printf(
      "%s %s/%s k=%zu seed %llu: %s; %lld faults, %lld churn events, "
      "%lld corrupted buffers; %s baseline\n",
      sweep, StoreName(leg.config.store),
      std::string(core::FetchModeName(leg.config.fetch_mode)).c_str(),
      leg.config.replication_factor, static_cast<unsigned long long>(leg.seed),
      leg.ok ? "completed" : leg.error.c_str(),
      static_cast<long long>(r.faults_injected),
      static_cast<long long>(r.node_crashes + r.node_joins + r.node_leaves),
      static_cast<long long>(leg.corrupted_buffers),
      leg.matches_baseline ? "matches" : "DIVERGES FROM");
}

void WriteOutcome(Json& j, const Leg& leg) {
  j.Field("completed", leg.ok);
  if (!leg.error.empty()) j.Field("error", leg.error);
  j.Field("accepted", leg.result.accepted)
      .Field("deferred", leg.result.deferred)
      .Field("state_ratio", leg.result.state_ratio, 6)
      .Field("matches_baseline", leg.matches_baseline);
  if (leg.seed != 0) j.Field("exercised", Exercised(leg));
}

}  // namespace orchestra::bench

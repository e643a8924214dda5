#include "common/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace orchestra {
namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void FlushGlobalTracerAtExit() {
  if (Tracer::Global().enabled()) {
    Status status = Tracer::Global().Flush();
    if (!status.ok()) {
      std::fprintf(stderr, "orchestra: trace flush failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

// Escapes the characters that could break a JSON string; metric/span
// names are plain identifiers in practice, so this is belt-and-braces.
void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer("orchestra");
    if (const char* path = std::getenv("ORCH_TRACE");
        path != nullptr && path[0] != '\0') {
      t->Enable(path);
    }
    return t;
  }();
  return *tracer;
}

void Tracer::Enable(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  events_.clear();
  epoch_micros_ = SteadyNowMicros();
  if (!atexit_registered_) {
    std::atexit(FlushGlobalTracerAtExit);
    atexit_registered_ = true;
  }
  // New session: spans created before this point pair with the old
  // generation and drop their 'E' instead of leaking it in here.
  session_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  if (!enabled()) return;
  Status status = Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "orchestra: trace flush failed: %s\n",
                 status.ToString().c_str());
  }
  enabled_.store(false, std::memory_order_relaxed);
  // Retire the session (live spans stop emitting) and drop the flushed
  // events so the atexit flush cannot write them a second time.
  session_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

uint32_t Tracer::ThreadIndexLocked() {
  // One dense index per thread for the (singleton) wall session.
  // Assigned under mu_ on first use; reads afterwards are thread-local.
  thread_local uint32_t index = UINT32_MAX;
  if (index == UINT32_MAX) {
    index = static_cast<uint32_t>(track_names_.size());
    track_names_[index] = "thread-" + std::to_string(index);
  }
  return index;
}

void Tracer::RecordEvent(const char* name, char phase) {
  if (!enabled()) return;
  const int64_t now = SteadyNowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      Event{name, phase, now - epoch_micros_, ThreadIndexLocked(), -1});
}

Status Tracer::Flush() {
  const std::string path = this->path();
  if (path.empty()) {
    return Status::InvalidArgument("tracer has no output path");
  }
  return WriteTo(path);
}

void Tracer::SetTrackName(uint32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  track_names_[tid] = std::move(name);
}

void Tracer::Record(uint32_t tid, const char* name, char phase,
                    int64_t ts_micros, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, phase, ts_micros, tid, bytes});
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json;
  json.reserve(events_.size() * 96 + track_names_.size() * 80 + 64);
  json += "{\"traceEvents\":[";
  bool first = true;
  // Track-name metadata first, ordered by tid, so viewers label tracks
  // ("peer-3", "thread-1") instead of showing bare tids and the
  // document layout is a pure function of the recorded state.
  for (const auto& [tid, name] : track_names_) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json += std::to_string(tid);
    json += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&json, name.c_str());
    json += "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":\"";
    AppendJsonEscaped(&json, e.name);
    json += "\",\"cat\":\"";
    json += category_;
    json += "\",\"ph\":\"";
    json.push_back(e.phase);
    json += "\",\"ts\":";
    json += std::to_string(e.ts_micros);
    json += ",\"pid\":1,\"tid\":";
    json += std::to_string(e.tid);
    if (e.phase == 'I') json += ",\"s\":\"t\"";
    if (e.bytes >= 0) {
      json += ",\"args\":{\"bytes\":";
      json += std::to_string(e.bytes);
      json += '}';
    }
    json += '}';
  }
  json += "],\"displayTimeUnit\":\"ms\"}\n";
  return json;
}

Status Tracer::WriteTo(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace orchestra

// Structural checks for Chrome trace_event JSON written by
// common/trace.h, shared by the wall-clock and simulated-time trace
// tests: a minimal JSON validator, an event extractor, and the per-track
// span-nesting check.
#ifndef ORCHESTRA_TESTS_COMMON_TRACE_CHECK_H_
#define ORCHESTRA_TESTS_COMMON_TRACE_CHECK_H_

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace orchestra::testing {

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Minimal structural JSON validator (objects, arrays, strings with
// escapes, numbers, true/false/null). Returns true when the whole input
// is exactly one well-formed value.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

struct ParsedEvent {
  std::string name;
  char phase = '?';
  long tid = -1;
  long long ts = -1;  // absent on metadata rows
  long long bytes = -1;  // an event's "args":{"bytes":...}, if it has one
};

// Pulls name/ph/ts/tid/bytes out of each {"name":...} element; the JSON
// is machine-written, so field order is fixed. Top-level events follow '['
// or ','; a metadata row's args payload ({"name":"thread-0"}) follows
// ':' and is skipped.
inline std::vector<ParsedEvent> ParseEvents(const std::string& json) {
  std::vector<ParsedEvent> events;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    if (pos > 0 && json[pos - 1] != '[' && json[pos - 1] != ',') {
      pos += 9;
      continue;
    }
    ParsedEvent event;
    pos += 9;
    const size_t name_end = json.find('"', pos);
    event.name = json.substr(pos, name_end - pos);
    const size_t ph = json.find("\"ph\":\"", name_end);
    event.phase = json[ph + 6];
    // Timed events write "ts" right after "ph"; metadata rows have none.
    if (json.compare(ph + 9, 5, "\"ts\":") == 0) {
      event.ts = std::strtoll(json.c_str() + ph + 14, nullptr, 10);
    }
    const size_t tid = json.find("\"tid\":", ph);
    event.tid = std::strtol(json.c_str() + tid + 6, nullptr, 10);
    const size_t next = json.find("{\"name\":\"", tid);
    const std::string_view rest = std::string_view(json).substr(tid, next - tid);
    if (const size_t bytes = rest.find("\"args\":{\"bytes\":");
        bytes != std::string_view::npos) {
      event.bytes = std::strtoll(rest.data() + bytes + 16, nullptr, 10);
    }
    events.push_back(std::move(event));
    pos = name_end;
  }
  return events;
}

// Every 'B' on a track closes, in LIFO order, with an 'E' of the same
// name, and no span stays open. Metadata and instant events are ignored.
inline ::testing::AssertionResult SpansNestPerTrack(
    const std::vector<ParsedEvent>& events) {
  std::map<long, std::vector<std::string>> open_per_tid;
  for (const ParsedEvent& event : events) {
    if (event.phase != 'B' && event.phase != 'E') continue;
    std::vector<std::string>& stack = open_per_tid[event.tid];
    if (event.phase == 'B') {
      stack.push_back(event.name);
      continue;
    }
    if (stack.empty()) {
      return ::testing::AssertionFailure()
             << "E without B for " << event.name << " on tid " << event.tid;
    }
    if (stack.back() != event.name) {
      return ::testing::AssertionFailure()
             << "interleaved spans on tid " << event.tid << ": "
             << stack.back() << " closed by " << event.name;
    }
    stack.pop_back();
  }
  for (const auto& [tid, stack] : open_per_tid) {
    if (!stack.empty()) {
      return ::testing::AssertionFailure()
             << "unclosed span " << stack.back() << " on tid " << tid;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace orchestra::testing

#endif  // ORCHESTRA_TESTS_COMMON_TRACE_CHECK_H_

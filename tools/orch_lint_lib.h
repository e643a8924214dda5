#ifndef ORCHESTRA_TOOLS_ORCH_LINT_LIB_H_
#define ORCHESTRA_TOOLS_ORCH_LINT_LIB_H_

#include <map>
#include <set>
#include <string>
#include <vector>

/// orch_lint: the project's determinism & concurrency static-analysis
/// pass. A tokenizer plus heuristic matchers (no libclang, so it builds
/// and runs everywhere the project builds) enforcing the rulebook that
/// the dynamic determinism tests (provenance/trace determinism,
/// fault/churn/delta sweeps) depend on:
///
///   D1  wall-clock reads (std::chrono::*_clock, time(), clock(), ...)
///       only inside common/clock.* and common/trace.*
///   D2  ambient randomness (rand(), std::random_device, default-seeded
///       engines) only inside common/random.*
///   D3  no range-for / .begin() iteration over std::unordered_map /
///       std::unordered_set in decision-bearing layers (core/, store/,
///       sim/) unless annotated order-insensitive
///   D4  no ordered container keyed by pointer value (std::map<T*, ...>,
///       std::set<T*>, std::less<T*>), and no pointer-keyed hash
///       containers either - pointer values change run to run
///   C1  no bare mutex .lock()/.unlock()/.try_lock() - RAII guards only
///   C2  no network send / fault-injection call while a lock guard is
///       live in the same scope (lock-ordering and latency hazard)
///   S1  no discarded Status / Result return value at statement position
///   S2  no discarded envelope decode (UnwrapEnvelope / ReadEnvelope) -
///       dropping that Result silently ignores detected corruption; the
///       canonical names make this checkable without declaration facts
///
/// Every rule supports an inline, audited suppression:
///
///   // ORCH_LINT(allow:D3): <written reason>
///
/// on the violating line or on its own line directly above. Suppressions
/// without a reason (or naming an unknown rule) are themselves errors;
/// used suppressions are counted and reported so exceptions stay visible.
namespace orchestra::lint {

/// One finding. `suppressed` findings are reported but do not fail the
/// run; `rule` is one of D1..D4, C1, C2, S1, S2, or SUP for malformed
/// suppression comments.
struct Violation {
  std::string file;  // path as given (repo-relative in the CLI)
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
  std::string reason;  // the suppression's written reason, if suppressed
};

/// A source file to lint. `rel_path` decides which rules apply (layer
/// detection and the common/clock, common/trace, common/random
/// exemptions) and how `#include "..."` directives resolve.
struct FileInput {
  std::string rel_path;
  std::string content;
};

/// Aggregate outcome of a lint run over a set of files.
struct RunResult {
  std::vector<Violation> violations;  // sorted by (file, line, rule)
  std::map<std::string, int> unsuppressed_by_rule;
  std::map<std::string, int> suppressed_by_rule;
  int files_scanned = 0;
  int unsuppressed = 0;
  int suppressed = 0;
  int unused_suppressions = 0;
  std::vector<std::string> unused_suppression_notes;  // informational

  bool clean() const { return unsuppressed == 0; }
};

/// Lints `files` as one project: declaration facts (unordered-container
/// names, Status/Result-returning functions, type aliases) are collected
/// from every file first, then each file is checked against the facts
/// visible through its `#include "..."` closure.
RunResult Run(const std::vector<FileInput>& files);

/// Renders the standard report (one line per finding plus a summary).
std::string FormatReport(const RunResult& result, bool verbose);

/// Reads the "file" entries of a compile_commands.json. Returns absolute
/// or build-relative paths exactly as recorded; the caller filters and
/// normalizes. Returns false when the file cannot be read.
bool ReadCompileCommands(const std::string& path,
                         std::vector<std::string>* files);

}  // namespace orchestra::lint

#endif  // ORCHESTRA_TOOLS_ORCH_LINT_LIB_H_

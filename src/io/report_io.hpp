#pragma once

// RunReport JSONL persistence: one compact JSON object per line, append-only
// — the machine-readable run log the benches and the CLI write so a perf /
// accuracy trajectory can be tracked across commits (see docs/FORMATS.md).

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/run_report.hpp"

namespace starlab::io {

/// Write one report as a single JSON line (with trailing newline).
void append_run_report(std::ostream& out, const obs::RunReport& report);

/// Write each report as one JSON line.
void save_run_reports(std::ostream& out,
                      const std::vector<obs::RunReport>& reports);

/// Parse a JSONL stream written by the functions above. Blank lines are
/// skipped; a malformed line throws std::runtime_error naming the line
/// number. Unknown keys are ignored (forward compatibility).
[[nodiscard]] std::vector<obs::RunReport> load_run_reports(std::istream& in);

/// File conveniences.
void save_run_reports_file(const std::string& path,
                           const std::vector<obs::RunReport>& reports);
[[nodiscard]] std::vector<obs::RunReport> load_run_reports_file(
    const std::string& path);

}  // namespace starlab::io

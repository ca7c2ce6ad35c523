#pragma once

// Structured skip-and-report accounting for lenient parsers.
//
// Production catalogs and campaign files arrive damaged (truncated pulls,
// corrupted records, half-written rows). The strict parsers throw on the
// first problem; their *_lenient counterparts keep every record that parses
// and log each skip here with its line/row provenance, so a caller can
// decide whether 3 skipped records out of 4000 is acceptable — instead of
// losing the whole file.
//
// Header-only on purpose: tle:: sits below io:: in the library graph and
// includes this without linking starlab::io.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace starlab::io {

/// One skipped record/row.
struct ParseIssue {
  std::size_t line = 0;  ///< 1-based line (or row) number in the source
  std::string reason;
};

struct ParseReport {
  std::size_t records_ok = 0;       ///< records that survived
  std::size_t records_skipped = 0;  ///< records dropped (== issues.size())
  std::vector<ParseIssue> issues;

  void add(std::size_t line, std::string reason) {
    ++records_skipped;
    issues.push_back({line, std::move(reason)});
  }
};

}  // namespace starlab::io

#pragma once

// Append-only, CRC-guarded record journal — the persistence layer behind
// campaign checkpoint/resume.
//
// A journal is a sequence of single-line framed records spread over
// numbered segment files (`<path>.seg000000`, `.seg000001`, ...). Each
// record is framed as
//
//     J1 <crc32:8 hex> <len:decimal> <payload>\n
//
// where the CRC-32 (IEEE) covers exactly the payload bytes. Frames are
// written with plain write(2) followed by fdatasync, so after a crash the
// on-disk state is a valid prefix plus at most one torn frame; replay
// walks segments in order, verifies every frame, and stops at the first
// damaged one — whatever follows (the torn tail, later segments) is
// reported but never trusted. A writer reopening an existing journal
// truncates that torn tail and removes the untrusted later segments before
// appending, so the journal is always a clean prefix of the logical record
// stream. Rotation starts a fresh segment once the current one exceeds
// segment_bytes; the old segment is synced before the new one is created.
//
// Payloads are opaque bytes minus '\n' (the frame terminator); encoding
// structure into them is the caller's business (see resilience/checkpoint).
// The fault::WriteKillPoint hook makes every byte offset of this format a
// testable crash site.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injectors.hpp"

namespace starlab::io {

/// CRC-32 (IEEE 802.3, reflected) — the journal's per-record guard.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

struct JournalConfig {
  std::string path;  ///< base path; segments live at path.segNNNNNN
  /// Rotate to a new segment once the current one reaches this size.
  // starlint:allow(option-reachability): test seam that forces segment rotation
  std::uint64_t segment_bytes = 1u << 20;
  /// fdatasync after every append (the durability the resume contract
  /// assumes). The degradation ladder sheds this first.
  bool fsync = true;
};

/// What replay found on disk.
struct JournalReplay {
  std::vector<std::string> records;  ///< valid payloads, in append order
  std::size_t segments = 0;          ///< segment files present
  /// Bytes after the last valid record (torn frame + untrusted segments).
  std::uint64_t untrusted_bytes = 0;
  bool torn = false;  ///< replay stopped at a damaged frame
};

/// Replay every valid record of the journal at `path`. A journal with no
/// segments yields an empty replay (not an error).
[[nodiscard]] JournalReplay replay_journal(const std::string& path);

/// Existing segment files of the journal, in index order.
[[nodiscard]] std::vector<std::string> journal_segment_paths(
    const std::string& path);

/// Delete every segment of the journal (a missing journal is a no-op).
void remove_journal(const std::string& path);

class JournalWriter {
 public:
  /// Open for append. An existing journal is first repaired: the torn tail
  /// of the last valid segment is truncated and untrusted later segments
  /// are deleted, so appends continue the valid record stream. `kill` is a
  /// non-owning crash gate for torn-write tests; writes beyond its budget
  /// throw fault::WriteKilled after persisting exactly the granted prefix.
  explicit JournalWriter(JournalConfig config,
                         fault::WriteKillPoint* kill = nullptr);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one record. The payload must not contain '\n'.
  void append(std::string_view payload);

  /// Flush and close (idempotent; the destructor calls it).
  void close();

  /// Toggle per-append fdatasync (degradation ladder: shed fsync first).
  void set_fsync(bool on) { config_.fsync = on; }

 private:
  void open_segment(std::size_t index, std::uint64_t resume_size);
  void write_all(const char* data, std::size_t n);

  JournalConfig config_;
  fault::WriteKillPoint* kill_;
  int fd_ = -1;
  std::size_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;
};

}  // namespace starlab::io

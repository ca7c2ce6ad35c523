#include "io/journal_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fault/injectors.hpp"

namespace starlab::io {
namespace {

/// Fresh journal base path per test (segments are <base>.segNNNNNN).
std::string journal_path(const char* name) {
  const std::string base =
      std::string(::testing::TempDir()) + "starlab_journal_" + name;
  remove_journal(base);
  return base;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(JournalIo, Crc32MatchesKnownVectors) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xcbf43926.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(JournalIo, RoundTripsRecordsInOrder) {
  const std::string path = journal_path("roundtrip");
  const std::vector<std::string> payloads = {"alpha", "beta gamma", "",
                                             "x y z 1 2 3"};
  {
    JournalWriter writer({path});
    for (const std::string& p : payloads) writer.append(p);
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.untrusted_bytes, 0u);
  EXPECT_EQ(replay.records, payloads);
  remove_journal(path);
}

TEST(JournalIo, MissingJournalReplaysEmpty) {
  const JournalReplay replay =
      replay_journal(journal_path("nonexistent"));
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.segments, 0u);
  EXPECT_FALSE(replay.torn);
}

TEST(JournalIo, PayloadWithNewlineIsRejected) {
  const std::string path = journal_path("newline");
  JournalWriter writer({path});
  EXPECT_THROW(writer.append("two\nlines"), std::invalid_argument);
  remove_journal(path);
}

TEST(JournalIo, RotatesSegmentsAndReplaysAcrossThem) {
  const std::string path = journal_path("rotate");
  JournalConfig config{path};
  config.segment_bytes = 64;  // force rotation every couple of records
  std::vector<std::string> payloads;
  {
    JournalWriter writer(config);
    for (int i = 0; i < 20; ++i) {
      payloads.push_back("record number " + std::to_string(i));
      writer.append(payloads.back());
    }
  }
  EXPECT_GT(journal_segment_paths(path).size(), 1u);
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.records, payloads);
  EXPECT_FALSE(replay.torn);
  remove_journal(path);
  EXPECT_TRUE(journal_segment_paths(path).empty());
}

TEST(JournalIo, AppendsContinueAnExistingJournal) {
  const std::string path = journal_path("reopen");
  {
    JournalWriter writer({path});
    writer.append("first");
  }
  {
    JournalWriter writer({path});
    writer.append("second");
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.records, (std::vector<std::string>{"first", "second"}));
  remove_journal(path);
}

TEST(JournalIo, TruncationAtEveryByteLeavesAValidPrefix) {
  // The crash model: the journal dies at an arbitrary byte boundary. For
  // every possible length of a single-segment journal, replay must yield a
  // prefix of the record stream and never throw; a writer reopening the
  // truncated journal must repair it and append cleanly.
  const std::string path = journal_path("truncate");
  const std::vector<std::string> payloads = {"one", "two", "three", "four"};
  {
    JournalWriter writer({path});
    for (const std::string& p : payloads) writer.append(p);
  }
  const std::string seg0 = journal_segment_paths(path).at(0);
  const std::string full = read_file(seg0);
  ASSERT_FALSE(full.empty());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    {
      std::ofstream out(seg0, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const JournalReplay replay = replay_journal(path);
    ASSERT_LE(replay.records.size(), payloads.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i], payloads[i]) << "cut=" << cut;
    }
    // A cut exactly on a frame boundary leaves a valid shorter journal;
    // anywhere else leaves a torn frame. (Frames end in '\n' and these
    // payloads contain none, so boundaries are the positions after '\n'.)
    const bool at_boundary = cut == 0 || full[cut - 1] == '\n';
    EXPECT_EQ(replay.torn, !at_boundary) << "cut=" << cut;

    // Repair-and-append: the journal continues from the valid prefix.
    const std::size_t kept = replay.records.size();
    {
      JournalWriter writer({path});
      writer.append("appended");
    }
    const JournalReplay repaired = replay_journal(path);
    ASSERT_EQ(repaired.records.size(), kept + 1) << "cut=" << cut;
    EXPECT_EQ(repaired.records.back(), "appended") << "cut=" << cut;
    EXPECT_FALSE(repaired.torn) << "cut=" << cut;

    // Restore the pristine journal for the next cut.
    std::ofstream out(seg0, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  remove_journal(path);
}

TEST(JournalIo, CorruptedPayloadByteFailsItsCrc) {
  const std::string path = journal_path("corrupt");
  {
    JournalWriter writer({path});
    writer.append("good record");
    writer.append("tampered record");
  }
  const std::string seg0 = journal_segment_paths(path).at(0);
  std::string bytes = read_file(seg0);
  // Flip one character inside the second record's payload.
  const std::size_t pos = bytes.find("tampered");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'T';
  {
    std::ofstream out(seg0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.records, (std::vector<std::string>{"good record"}));
  EXPECT_TRUE(replay.torn);
  EXPECT_GT(replay.untrusted_bytes, 0u);
  remove_journal(path);
}

TEST(JournalIo, UntrustedLaterSegmentsAreDroppedOnRepair) {
  // A torn frame in segment 0 makes segment 1 unreachable: the writer must
  // unlink it on reopen rather than leave orphaned records behind.
  const std::string path = journal_path("orphan");
  JournalConfig config{path};
  config.segment_bytes = 32;
  {
    JournalWriter writer(config);
    for (int i = 0; i < 8; ++i) {
      writer.append("padding record " + std::to_string(i));
    }
  }
  const std::vector<std::string> segments = journal_segment_paths(path);
  ASSERT_GT(segments.size(), 1u);
  // Tear the first segment mid-frame.
  const std::string seg0_bytes = read_file(segments[0]);
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::trunc);
    out.write(seg0_bytes.data(),
              static_cast<std::streamsize>(seg0_bytes.size() / 2));
  }
  {
    JournalWriter writer(config);
    writer.append("after repair");
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.records.back(), "after repair");
  for (const std::string& r : replay.records) {
    EXPECT_NE(r, "padding record 7");  // lived in the unlinked tail
  }
  remove_journal(path);
}

TEST(JournalIo, KillPointPersistsExactlyTheGrantedPrefix) {
  const std::string path = journal_path("kill");
  std::string full;
  {
    JournalWriter writer({path});
    writer.append("first record");
    writer.append("second record");
    full = read_file(journal_segment_paths(path).at(0));
  }
  remove_journal(path);

  for (std::uint64_t budget = 0; budget < full.size(); ++budget) {
    remove_journal(path);
    fault::WriteKillPoint kill(budget);
    JournalWriter writer({path}, &kill);
    try {
      writer.append("first record");
      writer.append("second record");
      FAIL() << "budget=" << budget << " did not kill";
    } catch (const fault::WriteKilled&) {
      EXPECT_EQ(kill.granted(), budget);
    }
    // On-disk bytes are exactly the granted prefix of the full stream.
    const std::string on_disk = read_file(journal_segment_paths(path).at(0));
    EXPECT_EQ(on_disk, full.substr(0, budget)) << "budget=" << budget;
  }
  remove_journal(path);
}

}  // namespace
}  // namespace starlab::io

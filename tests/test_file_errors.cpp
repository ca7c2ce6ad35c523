// Classified file-error reporting for every load_*_file / save_*_file
// helper. The contract: a failed
// open throws io::FileError whose kind() distinguishes missing vs
// unreadable vs empty, and whose message names the artifact, the path and
// the errno text — enough to diagnose a dead campaign from the log alone.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "io/campaign_io.hpp"
#include "io/file_util.hpp"
#include "io/rtt_io.hpp"

namespace starlab::io {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "starlab_file_errors_" + name;
}

void touch_empty(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
}

template <typename Fn>
FileError::Kind error_kind(Fn&& fn, std::string* message = nullptr) {
  try {
    fn();
  } catch (const FileError& e) {
    if (message != nullptr) *message = e.what();
    return e.kind();
  }
  ADD_FAILURE() << "expected a FileError";
  return FileError::Kind::kWrite;
}

TEST(FileErrors, MissingFileIsClassifiedWithPathAndArtifact) {
  const std::string path = temp_path("does_not_exist.csv");
  std::string msg;
  EXPECT_EQ(error_kind([&] { (void)load_campaign_file(path); }, &msg),
            FileError::Kind::kMissing);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("campaign CSV"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
}

TEST(FileErrors, DirectoryIsUnreadableNotMissing) {
  // A directory path always defeats reads, even for root (chmod-based
  // unreadable fixtures do not: tests may run with CAP_DAC_OVERRIDE).
  const std::string msg_path = std::string(::testing::TempDir());
  std::string msg;
  EXPECT_EQ(error_kind([&] { (void)load_campaign_file(msg_path); }, &msg),
            FileError::Kind::kUnreadable);
  EXPECT_NE(msg.find("unreadable"), std::string::npos) << msg;
  EXPECT_NE(msg.find("directory"), std::string::npos) << msg;
}

TEST(FileErrors, EmptyFileIsItsOwnClass) {
  const std::string path = temp_path("empty.csv");
  touch_empty(path);
  std::string msg;
  EXPECT_EQ(error_kind([&] { (void)load_campaign_file(path); }, &msg),
            FileError::Kind::kEmpty);
  EXPECT_NE(msg.find("empty"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(FileErrors, EveryLoaderFamilyClassifiesConsistently) {
  const std::string missing = temp_path("nope");
  const std::string empty = temp_path("zero_bytes");
  touch_empty(empty);

  EXPECT_EQ(error_kind([&] { (void)load_rtt_series_file(missing); }),
            FileError::Kind::kMissing);
  EXPECT_EQ(error_kind([&] { (void)load_rtt_series_file(empty); }),
            FileError::Kind::kEmpty);
  EXPECT_EQ(error_kind([&] { (void)load_campaign_file(missing); }),
            FileError::Kind::kMissing);
  EXPECT_EQ(error_kind([&] { (void)load_campaign_file(empty); }),
            FileError::Kind::kEmpty);
  std::remove(empty.c_str());
}

TEST(FileErrors, UnwritableSavePathThrowsWriteError) {
  const std::string path =
      temp_path("no_such_dir") + "/deeper/campaign.csv";
  core::CampaignData data;
  std::string msg;
  EXPECT_EQ(error_kind([&] { save_campaign_file(path, data); }, &msg),
            FileError::Kind::kWrite);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
}

}  // namespace
}  // namespace starlab::io

#include "io/journal_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/file_util.hpp"

namespace starlab::io {

namespace {

std::string segment_path(const std::string& base, std::size_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".seg%06zu", index);
  return base + suffix;
}

bool file_exists(const std::string& path) {
  struct ::stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw FileError(FileError::Kind::kUnreadable, path,
                    "journal segment unreadable: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Walk the frames of one segment. Valid payloads are appended to
/// `records` (when non-null) and `valid_len` tracks the byte length of the
/// verified prefix. Returns false when the segment ends in a damaged or
/// torn frame.
bool scan_segment(const std::string& data, std::vector<std::string>* records,
                  std::uint64_t* valid_len) {
  if (valid_len != nullptr) *valid_len = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t p = pos;
    if (data.size() - p < 3 || data.compare(p, 3, "J1 ") != 0) return false;
    p += 3;
    if (data.size() - p < 9) return false;
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      const char c = data[p + i];
      std::uint32_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint32_t>(c - 'a' + 10);
      else return false;
      crc = (crc << 4) | nibble;
    }
    if (data[p + 8] != ' ') return false;
    p += 9;
    std::uint64_t len = 0;
    bool any_digit = false;
    while (p < data.size() && data[p] >= '0' && data[p] <= '9') {
      len = len * 10 + static_cast<std::uint64_t>(data[p] - '0');
      if (len > data.size()) return false;  // cannot possibly fit
      ++p;
      any_digit = true;
    }
    if (!any_digit || p >= data.size() || data[p] != ' ') return false;
    ++p;
    if (data.size() - p < len + 1) return false;  // torn payload
    const std::string_view payload(data.data() + p, len);
    if (data[p + len] != '\n') return false;
    if (crc32(payload) != crc) return false;
    if (records != nullptr) records->emplace_back(payload);
    pos = p + len + 1;
    if (valid_len != nullptr) *valid_len = pos;
  }
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::string> journal_segment_paths(const std::string& path) {
  std::vector<std::string> out;
  for (std::size_t i = 0;; ++i) {
    std::string seg = segment_path(path, i);
    if (!file_exists(seg)) break;
    out.push_back(std::move(seg));
  }
  return out;
}

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  const std::vector<std::string> segments = journal_segment_paths(path);
  replay.segments = segments.size();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string data = read_file_bytes(segments[i]);
    std::uint64_t valid_len = 0;
    if (!scan_segment(data, &replay.records, &valid_len)) {
      replay.torn = true;
      replay.untrusted_bytes += data.size() - valid_len;
      // Segments past a damaged frame were written after it and cannot be
      // ordered relative to the lost record — report, never trust.
      for (std::size_t j = i + 1; j < segments.size(); ++j) {
        struct ::stat st = {};
        if (::stat(segments[j].c_str(), &st) == 0) {
          replay.untrusted_bytes += static_cast<std::uint64_t>(st.st_size);
        }
      }
      break;
    }
  }
  return replay;
}

void remove_journal(const std::string& path) {
  for (const std::string& seg : journal_segment_paths(path)) {
    (void)::unlink(seg.c_str());
  }
}

JournalWriter::JournalWriter(JournalConfig config,
                             fault::WriteKillPoint* kill)
    : config_(std::move(config)), kill_(kill) {
  if (config_.path.empty()) {
    throw std::invalid_argument("journal path is empty");
  }
  const std::vector<std::string> segments =
      journal_segment_paths(config_.path);
  if (segments.empty()) {
    open_segment(0, 0);
    return;
  }
  // Repair-on-open: find the last fully valid frame, truncate the torn
  // tail, and drop untrusted later segments so appends extend a clean
  // prefix of the record stream.
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string data = read_file_bytes(segments[i]);
    std::uint64_t valid_len = 0;
    const bool clean = scan_segment(data, nullptr, &valid_len);
    if (clean && i + 1 < segments.size()) continue;
    for (std::size_t j = i + 1; j < segments.size(); ++j) {
      (void)::unlink(segments[j].c_str());
    }
    open_segment(i, valid_len);
    return;
  }
}

JournalWriter::~JournalWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a failed final sync leaves a valid
    // prefix on disk, which is the journal's crash contract anyway.
  }
}

void JournalWriter::open_segment(std::size_t index,
                                 std::uint64_t resume_size) {
  const std::string path = segment_path(config_.path, index);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    throw FileError(FileError::Kind::kWrite, path,
                    "cannot open journal segment: " + path);
  }
  if (::ftruncate(fd, static_cast<off_t>(resume_size)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    throw FileError(FileError::Kind::kWrite, path,
                    "cannot position journal segment: " + path);
  }
  fd_ = fd;
  segment_index_ = index;
  segment_size_ = resume_size;
}

void JournalWriter::write_all(const char* data, std::size_t n) {
  std::size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd_, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw FileError(FileError::Kind::kWrite,
                      segment_path(config_.path, segment_index_),
                      "journal write failed: " +
                          segment_path(config_.path, segment_index_));
    }
    written += static_cast<std::size_t>(rc);
  }
}

void JournalWriter::append(std::string_view payload) {
  if (fd_ < 0) throw std::logic_error("append on a closed journal writer");
  if (payload.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("journal payload contains a newline");
  }
  char head[32];
  const int head_len =
      std::snprintf(head, sizeof(head), "J1 %08x %zu ", crc32(payload),
                    payload.size());
  std::string frame;
  frame.reserve(static_cast<std::size_t>(head_len) + payload.size() + 1);
  frame.append(head, static_cast<std::size_t>(head_len));
  frame.append(payload);
  frame.push_back('\n');

  if (segment_size_ > 0 && segment_size_ + frame.size() > config_.segment_bytes) {
    // Rotate: the finished segment is synced before the next one exists,
    // so a crash between the two leaves a fully valid journal.
    (void)::fdatasync(fd_);
    (void)::close(fd_);
    fd_ = -1;
    open_segment(segment_index_ + 1, 0);
  }

  const std::uint64_t want = frame.size();
  const std::uint64_t granted = kill_ != nullptr ? kill_->grant(want) : want;
  write_all(frame.data(), static_cast<std::size_t>(granted));
  if (granted < want) {
    // Simulated process death mid-write: the granted prefix is on disk,
    // nothing else ever will be.
    const int fd = fd_;
    fd_ = -1;
    (void)::close(fd);
    throw fault::WriteKilled(kill_->granted());
  }
  segment_size_ += want;
  if (config_.fsync) (void)::fdatasync(fd_);
}

void JournalWriter::close() {
  if (fd_ < 0) return;
  const int fd = fd_;
  fd_ = -1;
  (void)::fdatasync(fd);
  if (::close(fd) != 0) {
    throw FileError(FileError::Kind::kWrite,
                    segment_path(config_.path, segment_index_),
                    "cannot close journal segment: " +
                        segment_path(config_.path, segment_index_));
  }
}

}  // namespace starlab::io

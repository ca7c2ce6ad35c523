#include "io/campaign_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "io/csv.hpp"
#include "io/file_util.hpp"

namespace starlab::io {

namespace {

constexpr std::size_t kLegacyColumns = 11;   // pre-quality exports
constexpr std::size_t kCurrentColumns = 13;  // + quality, confidence

std::string fmt(double v, const char* spec = "%.6f") {
  char buf[40];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

double to_double(const std::string& s, std::size_t row, const char* column) {
  double v = 0.0;
  try {
    v = std::stod(s);
  } catch (const std::exception&) {
    throw std::runtime_error("campaign CSV row " + std::to_string(row) +
                             ": bad " + column + " value '" + s + "'");
  }
  if (!std::isfinite(v)) {
    throw std::runtime_error("campaign CSV row " + std::to_string(row) +
                             ": non-finite " + column + " value '" + s + "'");
  }
  return v;
}

int to_int(const std::string& s, std::size_t row, const char* column) {
  try {
    return std::stoi(s);
  } catch (const std::exception&) {
    throw std::runtime_error("campaign CSV row " + std::to_string(row) +
                             ": bad " + column + " value '" + s + "'");
  }
}

long long to_ll(const std::string& s, std::size_t row, const char* column) {
  try {
    return std::stoll(s);
  } catch (const std::exception&) {
    throw std::runtime_error("campaign CSV row " + std::to_string(row) +
                             ": bad " + column + " value '" + s + "'");
  }
}

core::CampaignData load_campaign_impl(std::istream& in, ParseReport* report) {
  const std::vector<CsvRow> rows = read_csv(in);
  if (rows.empty()) throw std::runtime_error("empty campaign CSV");
  const std::size_t width = rows.front().size();
  if ((width != kLegacyColumns && width != kCurrentColumns) ||
      rows.front()[0] != "slot") {
    throw std::runtime_error("campaign CSV header mismatch");
  }

  core::CampaignData data;
  core::SlotObs* current = nullptr;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    try {
      if (row.size() != width) {
        throw std::runtime_error("campaign CSV " +
                                 csv_width_error(r + 1, width, row.size()));
      }
      const auto slot =
          static_cast<time::SlotIndex>(to_ll(row[0], r + 1, "slot"));
      const auto terminal_index =
          static_cast<std::size_t>(to_int(row[1], r + 1, "terminal_index"));

      if (terminal_index >= data.terminal_names.size()) {
        data.terminal_names.resize(terminal_index + 1);
      }
      if (data.terminal_names[terminal_index].empty()) {
        data.terminal_names[terminal_index] = row[2];
      }

      const bool new_slot = current == nullptr || current->slot != slot ||
                            current->terminal_index != terminal_index;
      if (new_slot) {
        core::SlotObs obs;
        obs.slot = slot;
        obs.terminal_index = terminal_index;
        obs.unix_mid = to_double(row[3], r + 1, "unix_mid");
        obs.local_hour = to_double(row[4], r + 1, "local_hour");
        if (width == kCurrentColumns) {
          obs.quality =
              static_cast<std::uint32_t>(to_ll(row[11], r + 1, "quality"));
          obs.confidence = to_double(row[12], r + 1, "confidence");
        } else {
          obs.confidence = 0.0;  // fixed up when a chosen row arrives
        }
        data.slots.push_back(std::move(obs));
        current = &data.slots.back();
      }

      if (row[5].empty()) continue;  // candidate-less slot marker
      core::CandidateObs c;
      c.norad_id = to_int(row[5], r + 1, "norad_id");
      c.azimuth_deg = to_double(row[6], r + 1, "azimuth_deg");
      c.elevation_deg = to_double(row[7], r + 1, "elevation_deg");
      c.age_days = to_double(row[8], r + 1, "age_days");
      c.sunlit = row[9] == "1";
      if (row[10] == "1") {
        current->chosen = static_cast<int>(current->available.size());
        // Legacy files carry no confidence column; a labeled slot there
        // means an oracle-grade label.
        if (width == kLegacyColumns) current->confidence = 1.0;
      }
      current->available.push_back(c);
      if (report != nullptr) ++report->records_ok;
    } catch (const std::runtime_error& e) {
      if (report == nullptr) throw;
      report->add(r + 1, e.what());
    }
  }
  return data;
}

}  // namespace

void save_campaign(std::ostream& out, const core::CampaignData& data) {
  write_csv_row(out, {"slot", "terminal_index", "terminal", "unix_mid",
                      "local_hour", "norad_id", "azimuth_deg", "elevation_deg",
                      "age_days", "sunlit", "chosen", "quality", "confidence"});
  for (const core::SlotObs& s : data.slots) {
    const std::string terminal =
        s.terminal_index < data.terminal_names.size()
            ? data.terminal_names[s.terminal_index]
            : "";
    const std::string quality = std::to_string(s.quality);
    const std::string confidence = fmt(s.confidence, "%.4f");
    for (std::size_t i = 0; i < s.available.size(); ++i) {
      const core::CandidateObs& c = s.available[i];
      write_csv_row(
          out, {std::to_string(s.slot), std::to_string(s.terminal_index),
                terminal, fmt(s.unix_mid, "%.3f"), fmt(s.local_hour, "%.5f"),
                std::to_string(c.norad_id), fmt(c.azimuth_deg, "%.4f"),
                fmt(c.elevation_deg, "%.4f"), fmt(c.age_days, "%.3f"),
                c.sunlit ? "1" : "0",
                static_cast<int>(i) == s.chosen ? "1" : "0", quality,
                confidence});
    }
    // Slots with no candidates still need a row to survive the round trip.
    if (s.available.empty()) {
      write_csv_row(out,
                    {std::to_string(s.slot), std::to_string(s.terminal_index),
                     terminal, fmt(s.unix_mid, "%.3f"),
                     fmt(s.local_hour, "%.5f"), "", "", "", "", "", "",
                     quality, confidence});
    }
  }
}

core::CampaignData load_campaign(std::istream& in) {
  return load_campaign_impl(in, nullptr);
}

core::CampaignData load_campaign_lenient(std::istream& in,
                                         ParseReport& report) {
  return load_campaign_impl(in, &report);
}

void save_campaign_file(const std::string& path,
                        const core::CampaignData& data) {
  std::ofstream out = open_output_file(path, "campaign CSV");
  save_campaign(out, data);
  require_write_ok(out, path, "campaign CSV");
}

core::CampaignData load_campaign_file(const std::string& path) {
  std::ifstream in = open_input_file(path, "campaign CSV");
  return load_campaign(in);
}

}  // namespace starlab::io

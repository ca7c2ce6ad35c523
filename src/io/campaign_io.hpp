#pragma once

// Campaign-data release format: one CSV row per (slot, candidate), with the
// chosen candidate flagged — the shape of the dataset the paper published
// alongside its model. Round-trips losslessly to the precision written.
//
// Since the fault-injection work the export also carries each slot's
// data-quality flags and identification confidence (see docs/FORMATS.md);
// files written by older versions (11 columns, no quality/confidence) are
// still read, with clean-slot defaults.

#include <iosfwd>
#include <string>

#include "core/campaign.hpp"
#include "io/parse_report.hpp"

namespace starlab::io {

/// Column layout written by save_campaign (header row included):
///   slot, terminal_index, terminal, unix_mid, local_hour,
///   norad_id, azimuth_deg, elevation_deg, age_days, sunlit, chosen,
///   quality, confidence
void save_campaign(std::ostream& out, const core::CampaignData& data);

/// Load a campaign written by save_campaign (current 13-column or legacy
/// 11-column layout). Throws std::runtime_error on a malformed file, naming
/// the offending row and what was expected.
[[nodiscard]] core::CampaignData load_campaign(std::istream& in);

/// Lenient load: malformed rows (wrong width, unparsable numbers) are
/// skipped and logged in `report` with row provenance; every well-formed
/// row is kept. Only a missing/mismatched header still throws.
[[nodiscard]] core::CampaignData load_campaign_lenient(std::istream& in,
                                                       ParseReport& report);

/// File conveniences.
void save_campaign_file(const std::string& path,
                        const core::CampaignData& data);
[[nodiscard]] core::CampaignData load_campaign_file(const std::string& path);

}  // namespace starlab::io

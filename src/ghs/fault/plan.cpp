#include "ghs/fault/plan.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

namespace ghs::fault {

namespace {

// parse_duration that blames a bad time on `where`: the plan line or the
// schedule entry holding it.
SimTime parse_time(const std::string& text, const std::string& where) {
  try {
    return parse_duration(text);
  } catch (const Error& err) {
    GHS_REQUIRE(false, where << ": " << err.what());
  }
  return 0;
}

std::string plan_line(int line_no) {
  return "fault plan line " + std::to_string(line_no);
}

Target parse_target(const std::string& text, int line_no) {
  if (text == "gpu") return Target::kGpu;
  if (text == "cpu") return Target::kCpu;
  GHS_REQUIRE(false, "fault plan line " << line_no << ": unknown target '"
                                        << text << "' (gpu|cpu)");
  return Target::kGpu;
}

// Splits "key=value" tokens into the window/probability/scale fields a
// fault line may carry; unknown keys are an error so typos do not silently
// arm a different fault.
struct LineArgs {
  Window window;
  double probability = -1.0;  // < 0 = not given
  double scale = -1.0;
  bool has_window = false;
};

LineArgs parse_args(const std::vector<std::string>& tokens,
                    std::size_t first, int line_no) {
  LineArgs args;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    GHS_REQUIRE(eq != std::string::npos,
                "fault plan line " << line_no << ": expected key=value, got '"
                                   << tokens[i] << "'");
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "from") {
      args.window.begin = parse_time(value, plan_line(line_no));
      args.has_window = true;
    } else if (key == "until") {
      args.window.end = parse_time(value, plan_line(line_no));
      args.has_window = true;
    } else if (key == "p") {
      try {
        args.probability = std::stod(value);
      } catch (const std::exception&) {
        args.probability = -1.0;
      }
      GHS_REQUIRE(args.probability >= 0.0 && args.probability <= 1.0,
                  "fault plan line " << line_no << ": p='" << value
                                     << "' must be in [0, 1]");
    } else if (key == "scale") {
      try {
        args.scale = std::stod(value);
      } catch (const std::exception&) {
        args.scale = -1.0;
      }
      GHS_REQUIRE(args.scale > 0.0 && args.scale <= 1.0,
                  "fault plan line " << line_no << ": scale='" << value
                                     << "' must be in (0, 1]");
    } else {
      GHS_REQUIRE(false, "fault plan line " << line_no << ": unknown key '"
                                            << key << "'");
    }
  }
  GHS_REQUIRE(!args.has_window || args.window.end > args.window.begin,
              "fault plan line " << line_no << ": until must be after from");
  return args;
}

// One `node@at[:restart_at]` entry of a `kind` schedule ("crash" or
// "drain"); the restart is only read when `restart` allows it.
NodeCrash parse_node_entry(const std::string& entry, const char* kind,
                           bool restart) {
  const auto at_sep = entry.find('@');
  GHS_REQUIRE(at_sep != std::string::npos && at_sep > 0,
              kind << " spec '" << entry << "': expected node@at"
                   << (restart ? "[:restart]" : ""));
  NodeCrash crash;
  std::size_t used = 0;
  try {
    crash.node = std::stoi(entry.substr(0, at_sep), &used);
  } catch (const std::exception&) {
    used = 0;  // not a number, or out of int range
  }
  GHS_REQUIRE(used == at_sep && crash.node >= 0,
              kind << " spec '" << entry << "': needs a node index >= 0");
  const std::string where = std::string(kind) + " spec '" + entry + "'";
  std::string times = entry.substr(at_sep + 1);
  const auto restart_sep = times.find(':');
  if (restart_sep != std::string::npos) {
    GHS_REQUIRE(restart, kind << " spec '" << entry << "': takes no restart");
    crash.restart_at = parse_time(times.substr(restart_sep + 1), where);
    times = times.substr(0, restart_sep);
  }
  crash.at = parse_time(times, where);
  return crash;
}

// Splits a node schedule into entries on commas and whitespace alike, so
// both the compact CLI form "1@300us:2ms,2@1ms" and a spaced file form
// work.
std::vector<std::string> schedule_entries(const std::string& text) {
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ',', ' ');
  std::istringstream words(normalized);
  std::vector<std::string> entries;
  std::string entry;
  while (words >> entry) entries.push_back(entry);
  return entries;
}

}  // namespace

const char* target_name(Target target) {
  return target == Target::kGpu ? "gpu" : "cpu";
}

SimTime parse_duration(const std::string& text) {
  std::size_t unit = 0;
  while (unit < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[unit])) != 0 ||
          text[unit] == '.' || text[unit] == '-')) {
    ++unit;
  }
  double value = 0.0;
  bool parsed = false;
  try {
    std::size_t pos = 0;
    value = std::stod(text.substr(0, unit), &pos);
    parsed = pos == unit && unit > 0;
  } catch (const std::exception&) {
    parsed = false;
  }
  GHS_REQUIRE(parsed && value >= 0.0, "bad time '" << text << "'");
  const std::string suffix = text.substr(unit);
  double per_unit = 0.0;
  if (suffix == "ps") {
    per_unit = static_cast<double>(kPicosecond);
  } else if (suffix == "ns") {
    per_unit = static_cast<double>(kNanosecond);
  } else if (suffix == "us") {
    per_unit = static_cast<double>(kMicrosecond);
  } else if (suffix == "ms") {
    per_unit = static_cast<double>(kMillisecond);
  } else if (suffix == "s") {
    per_unit = static_cast<double>(kSecond);
  } else {
    GHS_REQUIRE(false,
                "time '" << text << "' needs a ps|ns|us|ms|s unit");
  }
  const double ps = value * per_unit;
  // 2^63 ps (about 106 days) is the first value SimTime cannot hold.
  GHS_REQUIRE(ps < 0x1p63, "time '" << text
                                    << "' is beyond the simulated clock's "
                                       "range (2^63 ps)");
  return static_cast<SimTime>(ps);
}

NodeCrashPlan parse_crash_plan(const std::string& text) {
  NodeCrashPlan plan;
  for (const std::string& entry : schedule_entries(text)) {
    const NodeCrash crash = parse_node_entry(entry, "crash", true);
    GHS_REQUIRE(crash.restart_at == 0 || crash.restart_at > crash.at,
                "crash spec '" << entry
                               << "': restart must come after the crash");
    plan.crashes.push_back(crash);
  }
  return plan;
}

std::vector<DrainSpec> parse_drain_plan(const std::string& text) {
  std::vector<DrainSpec> drains;
  for (const std::string& entry : schedule_entries(text)) {
    const NodeCrash drain = parse_node_entry(entry, "drain", false);
    GHS_REQUIRE(drain.at > 0,
                "drain spec '" << entry << "': needs a positive time");
    drains.push_back({drain.node, drain.at});
  }
  return drains;
}

std::string format_crash_plan(const NodeCrashPlan& plan) {
  std::ostringstream out;
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const NodeCrash& crash = plan.crashes[i];
    if (i > 0) out << ",";
    out << crash.node << "@" << crash.at << "ps";
    if (crash.restart_at > 0) out << ":" << crash.restart_at << "ps";
  }
  return out.str();
}

FaultPlan parse_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream words(line);
    std::vector<std::string> tokens;
    std::string token;
    while (words >> token) tokens.push_back(token);
    if (tokens.empty()) continue;
    const std::string& kind = tokens.front();
    if (kind == "kernel-fault") {
      GHS_REQUIRE(tokens.size() >= 2, "fault plan line "
                                          << line_no
                                          << ": kernel-fault needs a target");
      const auto args = parse_args(tokens, 2, line_no);
      GHS_REQUIRE(args.scale < 0.0, "fault plan line "
                                        << line_no
                                        << ": kernel-fault takes no scale");
      KernelFaultSpec spec;
      spec.target = parse_target(tokens[1], line_no);
      spec.probability = args.probability < 0.0 ? 1.0 : args.probability;
      spec.window = args.window;
      GHS_REQUIRE(args.has_window || args.probability >= 0.0,
                  "fault plan line " << line_no
                                     << ": kernel-fault needs p= or a "
                                        "from=/until= window");
      plan.kernel_faults.push_back(spec);
    } else if (kind == "bandwidth") {
      GHS_REQUIRE(tokens.size() >= 2,
                  "fault plan line " << line_no << ": bandwidth needs a "
                                                   "target");
      const auto args = parse_args(tokens, 2, line_no);
      GHS_REQUIRE(args.scale > 0.0, "fault plan line "
                                        << line_no
                                        << ": bandwidth needs scale=");
      BandwidthEpisode episode;
      episode.target = parse_target(tokens[1], line_no);
      episode.scale = args.scale;
      episode.window = args.window;
      plan.bandwidth_episodes.push_back(episode);
    } else if (kind == "device-down") {
      GHS_REQUIRE(tokens.size() >= 2, "fault plan line "
                                          << line_no
                                          << ": device-down needs a target");
      const auto args = parse_args(tokens, 2, line_no);
      GHS_REQUIRE(args.has_window, "fault plan line "
                                       << line_no
                                       << ": device-down needs from=/until=");
      OutageWindow outage;
      outage.target = parse_target(tokens[1], line_no);
      outage.window = args.window;
      plan.outages.push_back(outage);
    } else if (kind == "migration-stall") {
      const auto args = parse_args(tokens, 1, line_no);
      GHS_REQUIRE(args.scale > 0.0, "fault plan line "
                                        << line_no
                                        << ": migration-stall needs scale=");
      MigrationStallEpisode episode;
      episode.scale = args.scale;
      episode.window = args.window;
      plan.migration_stalls.push_back(episode);
    } else if (kind == "error-latency") {
      GHS_REQUIRE(tokens.size() == 2, "fault plan line "
                                          << line_no
                                          << ": error-latency <time>");
      plan.down_error_latency = parse_time(tokens[1], plan_line(line_no));
    } else {
      GHS_REQUIRE(false, "fault plan line "
                             << line_no << ": unknown fault kind '" << kind
                             << "' (kernel-fault|bandwidth|device-down|"
                                "migration-stall|error-latency)");
    }
  }
  return plan;
}

FaultPlan load_plan(const std::string& path) {
  std::ifstream in(path);
  GHS_REQUIRE(in.good(), "cannot read fault plan " << path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_plan(text.str());
}

}  // namespace ghs::fault

#include "topo/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/check.hpp"

namespace np::topo {

namespace {

[[noreturn]] void parse_error(int line, const std::string& message) {
  throw std::runtime_error("topology parse error at line " + std::to_string(line) +
                           ": " + message);
}

/// Quote names so they survive round trips even with spaces.
std::string quoted(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The rest of one record line, consumed from the front the way
/// std::istream's extractors consume it: every read skips leading
/// whitespace, then takes the longest prefix its grammar accepts.
struct Fields {
  std::string_view rest;
  int line = 0;

  void skip_space() {
    std::size_t i = 0;
    while (i < rest.size() && is_space(rest[i])) ++i;
    rest.remove_prefix(i);
  }

  /// The next whitespace-delimited word; empty at the end of the line.
  std::string_view word() {
    skip_space();
    std::size_t i = 0;
    while (i < rest.size() && !is_space(rest[i])) ++i;
    const std::string_view out = rest.substr(0, i);
    rest.remove_prefix(i);
    return out;
  }
};

std::string read_token(Fields& f) {
  f.skip_space();
  if (f.rest.empty() || f.rest.front() != '"') {
    const std::string_view token = f.word();
    if (token.empty()) parse_error(f.line, "expected token");
    return std::string(token);
  }
  std::string out;
  std::size_t i = 1;  // past the opening quote
  for (;; ++i) {
    if (i >= f.rest.size()) parse_error(f.line, "unterminated quoted string");
    if (f.rest[i] == '"') break;
    if (f.rest[i] == '\\' && ++i >= f.rest.size()) {
      parse_error(f.line, "dangling escape");
    }
    out += f.rest[i];
  }
  f.rest.remove_prefix(i + 1);
  return out;
}

std::size_t skip_sign(std::string_view s, std::size_t i) {
  return i < s.size() && (s[i] == '+' || s[i] == '-') ? i + 1 : i;
}

std::size_t skip_digits(std::string_view s, std::size_t i) {
  while (i < s.size() && is_digit(s[i])) ++i;
  return i;
}

/// Length of the longest prefix of `s` that std::istream takes for a
/// double: [+-] digits [. digits] [(e|E) [+-] digits], with an exponent
/// only after a digit.
std::size_t float_prefix(std::string_view s) {
  std::size_t i = skip_sign(s, 0);
  bool digit = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    if (is_digit(s[i])) {
      digit = true;
    } else if (s[i] == '.' && !dot) {
      dot = true;
    } else if ((s[i] == 'e' || s[i] == 'E') && digit) {
      return skip_digits(s, skip_sign(s, i + 1));
    } else {
      break;
    }
  }
  return i;
}

/// The prefix without a leading '+', which std::from_chars rejects.
std::string_view without_plus(std::string_view prefix) {
  if (!prefix.empty() && prefix.front() == '+') prefix.remove_prefix(1);
  return prefix;
}

/// The whole prefix must convert, as std::istream requires ("1e" is an
/// error). Non-finite values are rejected: "inf" and "nan" never form a
/// prefix, and a literal beyond double's range is an error.
double read_double(Fields& f) {
  f.skip_space();
  const std::size_t length = float_prefix(f.rest);
  const std::string_view digits = without_plus(f.rest.substr(0, length));
  const char* last = digits.data() + digits.size();
  double value = 0.0;
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  if (ec == std::errc::result_out_of_range && end == last) {
    // Underflow reads as strtod's tiny value or signed zero, as
    // std::istream reads it; overflow gives an infinity, rejected below.
    value = std::strtod(std::string(digits).c_str(), nullptr);
  } else if (ec != std::errc() || end != last) {
    parse_error(f.line, "expected number");
  }
  if (!std::isfinite(value)) parse_error(f.line, "expected number");
  f.rest.remove_prefix(length);
  return value;
}

/// [+-] digits, within int's range.
int read_int(Fields& f) {
  f.skip_space();
  const std::size_t length = skip_digits(f.rest, skip_sign(f.rest, 0));
  const std::string_view digits = without_plus(f.rest.substr(0, length));
  const char* last = digits.data() + digits.size();
  int value = 0;
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  if (ec != std::errc() || end != last) parse_error(f.line, "expected integer");
  f.rest.remove_prefix(length);
  return value;
}

Topology parse(std::string_view text) {
  Topology topo;
  CostModel cost;
  ReliabilityPolicy policy;
  int line = 0;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    std::string_view raw = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
    ++line;
    raw = raw.substr(0, raw.find('#'));
    Fields fields{raw, line};
    const std::string_view kind = fields.word();
    if (kind.empty()) continue;  // blank line
    if (kind == "topology") {
      topo.set_name(read_token(fields));
    } else if (kind == "unit") {
      topo.set_capacity_unit_gbps(read_double(fields));
    } else if (kind == "costmodel") {
      cost.ip_cost_per_gbps_km = read_double(fields);
      cost.fiber_cost_per_ghz_fraction = read_double(fields);
      topo.set_cost_model(cost);
    } else if (kind == "policy") {
      policy.protected_under_failure = static_cast<CoS>(read_int(fields));
      topo.set_reliability_policy(policy);
    } else if (kind == "site") {
      Site s;
      s.name = read_token(fields);
      s.x = read_double(fields);
      s.y = read_double(fields);
      s.region = read_int(fields);
      topo.add_site(std::move(s));
    } else if (kind == "fiber") {
      Fiber f;
      f.name = read_token(fields);
      f.site_a = read_int(fields);
      f.site_b = read_int(fields);
      f.length_km = read_double(fields);
      f.spectrum_ghz = read_double(fields);
      f.build_cost = read_double(fields);
      f.existing = read_int(fields) != 0;
      topo.add_fiber(std::move(f));
    } else if (kind == "link") {
      IpLink l;
      l.name = read_token(fields);
      l.site_a = read_int(fields);
      l.site_b = read_int(fields);
      l.spectrum_per_unit_ghz = read_double(fields);
      l.initial_units = read_int(fields);
      const int k = read_int(fields);
      for (int i = 0; i < k; ++i) l.fiber_path.push_back(read_int(fields));
      topo.add_ip_link(std::move(l));
    } else if (kind == "flow") {
      Flow fl;
      fl.src = read_int(fields);
      fl.dst = read_int(fields);
      fl.demand_gbps = read_double(fields);
      fl.cos = static_cast<CoS>(read_int(fields));
      topo.add_flow(fl);
    } else if (kind == "failure") {
      Failure fa;
      fa.name = read_token(fields);
      const int k = read_int(fields);
      for (int i = 0; i < k; ++i) fa.fibers.push_back(read_int(fields));
      const int m = read_int(fields);
      for (int i = 0; i < m; ++i) fa.sites.push_back(read_int(fields));
      topo.add_failure(std::move(fa));
    } else {
      parse_error(line, "unknown record '" + std::string(kind) + "'");
    }
  }
  return topo;
}

}  // namespace

void save(const Topology& topo, std::ostream& out) {
  out << "topology " << quoted(topo.name()) << "\n";
  out << "unit " << topo.capacity_unit_gbps() << "\n";
  out << "costmodel " << topo.cost_model().ip_cost_per_gbps_km << " "
      << topo.cost_model().fiber_cost_per_ghz_fraction << "\n";
  out << "policy "
      << static_cast<int>(topo.reliability_policy().protected_under_failure) << "\n";
  for (const Site& s : topo.sites()) {
    out << "site " << quoted(s.name) << " " << s.x << " " << s.y << " " << s.region
        << "\n";
  }
  for (const Fiber& f : topo.fibers()) {
    out << "fiber " << quoted(f.name) << " " << f.site_a << " " << f.site_b << " "
        << f.length_km << " " << f.spectrum_ghz << " " << f.build_cost << " "
        << (f.existing ? 1 : 0) << "\n";
  }
  for (const IpLink& l : topo.links()) {
    out << "link " << quoted(l.name) << " " << l.site_a << " " << l.site_b << " "
        << l.spectrum_per_unit_ghz << " " << l.initial_units << " "
        << l.fiber_path.size();
    for (int f : l.fiber_path) out << " " << f;
    out << "\n";
  }
  for (const Flow& fl : topo.flows()) {
    out << "flow " << fl.src << " " << fl.dst << " " << fl.demand_gbps << " "
        << static_cast<int>(fl.cos) << "\n";
  }
  for (const Failure& fa : topo.failures()) {
    out << "failure " << quoted(fa.name) << " " << fa.fibers.size();
    for (int f : fa.fibers) out << " " << f;
    out << " " << fa.sites.size();
    for (int s : fa.sites) out << " " << s;
    out << "\n";
  }
}

Topology load(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse(text);
}

std::string to_text(const Topology& topo) {
  std::ostringstream os;
  save(topo, os);
  std::string text = os.str();
#if NP_CHECKS_ENABLED
  // Round-trip postcondition: the emitted text must parse back into an
  // equivalent topology, and re-serializing the reparsed topology must
  // reproduce the text bit-for-bit (the formatter is a deterministic
  // function of parsed values, so any difference means a lossy field).
  {
    const Topology reparsed = from_text(text);
    NP_ASSERT(reparsed.name() == topo.name(), "topo round-trip: name mismatch");
    NP_ASSERT(reparsed.num_sites() == topo.num_sites(),
              "topo round-trip: site count");
    NP_ASSERT(reparsed.num_fibers() == topo.num_fibers(),
              "topo round-trip: fiber count");
    NP_ASSERT(reparsed.num_links() == topo.num_links(),
              "topo round-trip: link count");
    NP_ASSERT(reparsed.num_flows() == topo.num_flows(),
              "topo round-trip: flow count");
    NP_ASSERT(reparsed.num_failures() == topo.num_failures(),
              "topo round-trip: failure count");
    std::ostringstream os2;
    save(reparsed, os2);
    NP_ASSERT(os2.str() == text, "topo round-trip: re-serialized text differs");
  }
#endif
  return text;
}

Topology from_text(const std::string& text) { return parse(text); }

void save_file(const Topology& topo, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  // Route through to_text so files get the round-trip postcondition.
  out << to_text(topo);
}

Topology load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load(in);
}

}  // namespace np::topo

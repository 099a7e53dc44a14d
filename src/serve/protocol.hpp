// np::serve wire protocol: length-prefixed frames carrying a versioned,
// whitespace-tokenized text payload. Robustness-first by construction:
//
//   * frames are bounded (kMaxFrameBytes) — a hostile or corrupt length
//     prefix can cost at most one bounded read, never an unbounded
//     allocation;
//   * the payload schema is versioned ("np1 ..."), parsed strictly
//     (unknown verbs, unknown keys, non-numeric values and trailing
//     junk are all typed ParseErrors), and every parse failure maps to
//     an ERROR reply — a malformed frame never kills the connection,
//     let alone the daemon;
//   * an *unframeable* stream (length prefix beyond the bound) is the
//     one fatal case: the reader reports it once and refuses further
//     input, because there is no way to resynchronize a length-prefixed
//     stream after a corrupt length.
//
// Requests  (ADDED units per link, matching `neuroplan_cli evaluate`):
//   np1 check id=<n> plan=<u0,u1,...> [deadline_ms=<ms>]
//   np1 cost  id=<n> plan=<u0,u1,...>
//   np1 info  id=<n>
//   np1 ping  id=<n>
// Replies:
//   np1 ok|degraded|shed|error id=<n> [key=value ...]
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace np::serve {

/// Protocol version token every payload must lead with.
inline constexpr const char* kProtocolVersion = "np1";

/// Hard bound on one frame's payload size. A length prefix above this
/// is unrecoverable stream corruption (FrameEvent::kFatal).
inline constexpr std::uint32_t kMaxFrameBytes = 64 * 1024;

enum class RequestKind { kCheck, kCost, kInfo, kPing };

const char* to_string(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kPing;
  long id = 0;
  /// Per-query deadline in milliseconds, measured from admission;
  /// <= 0 means "use the server default" (which may be unlimited).
  double deadline_ms = 0.0;
  /// ADDED units per link (kCheck / kCost).
  std::vector<int> plan;
};

/// The degradation ladder's terminal states — every accepted query is
/// answered with exactly one of these.
enum class ReplyStatus { kOk, kDegraded, kShed, kError };

const char* to_string(ReplyStatus status);

struct Reply {
  ReplyStatus status = ReplyStatus::kError;
  long id = -1;  ///< echoes the request id; -1 = unparseable request
  /// Machine-readable cause for shed/degraded/error replies
  /// (queue_full, backlog, draining, deadline, quarantined, fault,
  /// bad_request, ...). Empty for plain OK.
  std::string reason;
  bool feasible = false;
  /// feasible|infeasible|unknown for check replies, empty otherwise.
  std::string verdict;
  double cost = 0.0;
  double unserved_gbps = 0.0;
  /// Scenarios the check solved; those it skipped (§5) are not counted.
  int scenarios_checked = 0;
  int quarantined = 0;  ///< scenarios skipped as quarantined
  int retries = 0;      ///< cold-basis retries spent on this query
  double latency_us = 0.0;
  long links = 0;      ///< info replies
  long scenarios = 0;  ///< info replies
};

/// Typed parse failure: the payload was framed correctly but violates
/// the request schema. Maps to an ERROR reply, never a dropped
/// connection.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parse one payload against the strict request schema. Throws
/// ParseError on any deviation (wrong version, unknown verb/key,
/// non-numeric value, missing id, duplicate key, oversized plan).
Request parse_request(const std::string& payload);

std::string encode_request(const Request& request);

std::string encode_reply(const Reply& reply);

/// Parse a reply payload (loadgen and tests). Throws ParseError.
Reply parse_reply(const std::string& payload);

/// Prepend the 4-byte little-endian length prefix.
std::string frame(const std::string& payload);

enum class FrameEvent {
  kNeedMore,  ///< no complete frame buffered yet
  kFrame,     ///< one payload extracted
  kFatal,     ///< unframeable stream — reply the error, then hang up
};

/// Incremental length-prefixed frame extractor. feed() bytes as they
/// arrive, then drain next() until kNeedMore. After kFatal the reader
/// is poisoned: further next() calls keep returning kFatal and feed()
/// is ignored, so a corrupt stream cannot smuggle frames past the
/// error.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);

  /// Extract the next event. On kFrame, *payload is the frame body; on
  /// kFatal, *error describes the corruption.
  FrameEvent next(std::string* payload, std::string* error);

  bool poisoned() const { return poisoned_; }

 private:
  std::string buffer_;
  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace np::serve

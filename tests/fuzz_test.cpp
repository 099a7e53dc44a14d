// Robustness fuzzing (deterministic): mutated topology files must
// either parse into a structurally valid topology or throw a typed
// error — never crash, hang, or produce an inconsistent object.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ad/snapshot.hpp"
#include "serve/protocol.hpp"
#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "topo/serialize.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace np::topo {
namespace {

/// Deterministic per-test seed: fixed in (suite parameter), offset as a
/// whole by NEUROPLAN_TEST_SEED so a different corpus can be swept
/// reproducibly. Every assertion failure reports it via SCOPED_TRACE.
std::uint64_t fuzz_seed(unsigned param) {
  return static_cast<std::uint64_t>(env_long("NEUROPLAN_TEST_SEED", 0)) +
         param * 7919u + 101u;
}

class SerializeFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerializeFuzz, MutatedInputNeverCrashes) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "fuzz seed " << seed
               << " (offset the sweep with NEUROPLAN_TEST_SEED=<n>)");
  RecordProperty("seed", static_cast<int>(seed));
  const std::string base = to_text(make_preset('B'));
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int k = 0; k < mutations; ++k) {
      const std::size_t pos = rng.uniform_index(text.size());
      switch (rng.uniform_index(4)) {
        case 0:  // flip a character
          text[pos] = static_cast<char>(' ' + rng.uniform_index(95));
          break;
        case 1:  // delete a span
          text.erase(pos, 1 + rng.uniform_index(10));
          break;
        case 2:  // duplicate a span
          text.insert(pos, text.substr(pos, 1 + rng.uniform_index(10)));
          break;
        default:  // truncate
          text.resize(pos);
      }
    }
    try {
      Topology t = from_text(text);
      // Parsed: the object must at least be internally consistent
      // enough that accessors and re-serialization do not blow up.
      (void)to_text(t);
      for (int l = 0; l < t.num_links(); ++l) (void)t.link_length_km(l);
    } catch (const std::runtime_error&) {
      // typed parse error: fine
    } catch (const std::invalid_argument&) {
      // typed semantic error from Topology validation: fine
    } catch (const std::out_of_range&) {
      // typed index error from referencing records: fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz, ::testing::Range(0u, 10u));

/// Checkpoint containers under the same mutation model: a mutated
/// snapshot file must either round-trip the original payload untouched
/// (mutation landed outside the validated region — impossible here,
/// every byte is covered by the checksum or header grammar) or throw a
/// clean std::runtime_error. Anything else is a corruption-detection
/// hole that would let a torn checkpoint resume training silently.
class SnapshotFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SnapshotFuzz, MutatedSnapshotNeverResumesSilently) {
  const std::uint64_t seed = fuzz_seed(GetParam()) + 500009u;
  SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed);
  const std::string path = test::temp_path("fuzz_snapshot.state");
  std::string payload = "epoch 12\nrng deadbeef 1 2 3\nparams 0\nend\n";
  payload.push_back('\0');
  payload += "binary tail \xff\x01";
  ad::write_snapshot_file(path, "trainer", payload);
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pristine = buf.str();
  }
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes = pristine;
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int k = 0; k < mutations && !bytes.empty(); ++k) {
      const std::size_t pos = rng.uniform_index(bytes.size());
      switch (rng.uniform_index(4)) {
        case 0:  // flip a byte
          bytes[pos] = static_cast<char>(rng.uniform_index(256));
          break;
        case 1:  // delete a span
          bytes.erase(pos, 1 + rng.uniform_index(8));
          break;
        case 2:  // duplicate a span
          bytes.insert(pos, bytes.substr(pos, 1 + rng.uniform_index(8)));
          break;
        default:  // truncate
          bytes.resize(pos);
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const std::string got = ad::read_snapshot_file(path, "trainer");
      EXPECT_EQ(got, payload) << "trial " << trial
                              << ": accepted a corrupted snapshot";
    } catch (const std::runtime_error&) {
      // typed corruption verdict: fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Range(0u, 6u));

TEST(SerializeFuzz, EmptyAndDegenerateInputs) {
  EXPECT_NO_THROW(from_text(""));              // empty topology object
  EXPECT_NO_THROW(from_text("\n\n# only\n"));  // comments only
  EXPECT_THROW(from_text("site"), std::runtime_error);       // truncated
  EXPECT_THROW(from_text("fiber \"x\""), std::runtime_error);
  EXPECT_THROW(from_text("link \"x\" 0"), std::runtime_error);
  EXPECT_THROW(from_text("unit -5\n"), std::invalid_argument);
  EXPECT_THROW(from_text("policy notanint"), std::runtime_error);
}

// ---- np::serve framing/parse layer under hostile byte streams ----
//
// The serving contract: any byte stream either yields frames that parse
// (or map to typed ERROR replies) or poisons the reader with a typed
// fatal — never a crash, hang, or unbounded allocation. Sessions built
// on the reader must survive every malformed frame and die exactly once
// on unframeable input (the mid-frame-disconnect model: the stream just
// ends, which must leave kNeedMore, not an error).
class ServeFrameFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServeFrameFuzz, HostilePrefixesAndPayloadsNeverCrashTheReader) {
  const std::uint64_t seed = fuzz_seed(GetParam()) + 900007u;
  SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    serve::FrameReader reader;
    // Build a stream of valid frames, then corrupt it.
    std::string stream;
    const int frames = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < frames; ++f) {
      stream += serve::frame("np1 ping id=" + std::to_string(f));
    }
    const int mutations = 1 + static_cast<int>(rng.uniform_index(3));
    for (int k = 0; k < mutations && !stream.empty(); ++k) {
      const std::size_t pos = rng.uniform_index(stream.size());
      switch (rng.uniform_index(4)) {
        case 0:  // corrupt a byte (length prefixes included)
          stream[pos] = static_cast<char>(rng.uniform_index(256));
          break;
        case 1:  // drop a span (mid-frame truncation)
          stream.erase(pos, 1 + rng.uniform_index(6));
          break;
        case 2:  // inject garbage
          stream.insert(pos, std::string(1 + rng.uniform_index(6),
                                         static_cast<char>(
                                             rng.uniform_index(256))));
          break;
        default:  // disconnect mid-frame
          stream.resize(pos);
      }
    }
    // Deliver in random-sized chunks, as a socket would.
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform_index(std::min<std::size_t>(
                  stream.size() - offset, 64));
      reader.feed(stream.data() + offset, chunk);
      offset += chunk;
      // Drain: every frame either parses or throws the typed ParseError;
      // fatal poisons the reader permanently.
      std::string payload;
      std::string error;
      for (bool drained = false; !drained;) {
        switch (reader.next(&payload, &error)) {
          case serve::FrameEvent::kFrame:
            EXPECT_LE(payload.size(), serve::kMaxFrameBytes);
            try {
              (void)serve::parse_request(payload);
            } catch (const serve::ParseError&) {
              // typed rejection: fine
            }
            break;
          case serve::FrameEvent::kFatal:
            EXPECT_FALSE(error.empty());
            EXPECT_TRUE(reader.poisoned());
            drained = true;
            break;
          case serve::FrameEvent::kNeedMore:
            drained = true;
            break;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeFrameFuzz, ::testing::Range(0u, 8u));

// The specific hostile prefixes, deterministically.
TEST(ServeFrameFuzzEdges, TruncatedOversizedAndGarbagePrefixes) {
  std::string payload;
  std::string error;
  {
    // Truncated prefix: two bytes of length, then disconnect.
    serve::FrameReader reader;
    reader.feed("\x10\x00", 2);
    EXPECT_EQ(reader.next(&payload, &error), serve::FrameEvent::kNeedMore);
    EXPECT_FALSE(reader.poisoned());
  }
  {
    // Oversized length prefix: fatal, poisoned, typed error.
    serve::FrameReader reader;
    const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};
    reader.feed(huge, 4);
    EXPECT_EQ(reader.next(&payload, &error), serve::FrameEvent::kFatal);
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(error.empty());
    // Poison is permanent: a valid frame afterwards stays dead.
    const std::string ok = serve::frame("np1 ping id=1");
    reader.feed(ok.data(), ok.size());
    EXPECT_EQ(reader.next(&payload, &error), serve::FrameEvent::kFatal);
  }
  {
    // Garbage that happens to frame: parses as a request or throws the
    // typed ParseError — the session layer's containment contract.
    serve::FrameReader reader;
    const std::string garbage = serve::frame("\x01garbage !! not np1");
    reader.feed(garbage.data(), garbage.size());
    ASSERT_EQ(reader.next(&payload, &error), serve::FrameEvent::kFrame);
    EXPECT_THROW((void)serve::parse_request(payload), serve::ParseError);
  }
  {
    // Zero-length frame: delivered as an empty payload, which the
    // parser rejects as typed, not fatal.
    serve::FrameReader reader;
    const std::string empty = serve::frame("");
    reader.feed(empty.data(), empty.size());
    ASSERT_EQ(reader.next(&payload, &error), serve::FrameEvent::kFrame);
    EXPECT_TRUE(payload.empty());
    EXPECT_THROW((void)serve::parse_request(payload), serve::ParseError);
  }
}

}  // namespace
}  // namespace np::topo

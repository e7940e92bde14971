// Tests for the shared codec kit in src/common: hex16 / parse_hex16
// (format.hpp), the FNV-1a helper (bytes.hpp), whole-file IO (file.hpp)
// and the JSON number grammar (json.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/format.hpp"
#include "common/json.hpp"

namespace ptb {
namespace {

TEST(Codec, Hex16RoundTripsAndParsesStrictly) {
  EXPECT_EQ(hex16(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(hex16(~0ull), "ffffffffffffffff");
  std::uint64_t v = 7;
  ASSERT_TRUE(parse_hex16(hex16(0x0123456789abcdefull), v));
  EXPECT_EQ(v, 0x0123456789abcdefull);
  for (const char* bad : {"", "deadbeef", "00000000DEADBEEF",
                          "00000000deadbeeg", "000000000deadbeef"}) {
    v = 7;
    EXPECT_FALSE(parse_hex16(bad, v)) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(Codec, JsonNumbersFollowRfc8259) {
  json::Value v;
  std::string err;
  for (const char* ok : {"0", "-0", "0.5", "10", "1e5"}) {
    EXPECT_TRUE(json::parse(ok, v, err)) << ok << ": " << err;
    EXPECT_EQ(v.number_raw(), ok);
  }
  // A leading zero is the whole integer part: the digits after it are
  // trailing garbage, at top level and inside a document alike.
  for (const char* bad : {"02879", "-01", "00", "{\"cycles\":02879}"}) {
    EXPECT_FALSE(json::parse(bad, v, err)) << bad;
  }
}

TEST(Codec, FnvMatchesReferenceVectors) {
  // FNV-1a 64-bit reference values.
  std::uint64_t h = kFnvBasis;
  fnv_mix(h, "", 0);
  EXPECT_EQ(h, 0xcbf29ce484222325ull);
  h = kFnvBasis;
  fnv_mix(h, "a", 1);
  EXPECT_EQ(h, 0xaf63dc4c8601ec8cull);
  h = kFnvBasis;
  fnv_mix(h, "foobar", 6);
  EXPECT_EQ(h, 0x85944171f73967e8ull);
}

TEST(Codec, WriteFilePublishesWholeAndLeavesNoTemp) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "codec_write_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.bin").string();
  const std::string bytes("a\0b\nc", 5);
  std::string err;
  ASSERT_TRUE(write_file(path, bytes, &err)) << err;
  ASSERT_TRUE(write_file(path, bytes + bytes, &err)) << err;  // replaces
  std::string back = "stale";
  ASSERT_TRUE(read_file(path, back, &err)) << err;
  EXPECT_EQ(back, bytes + bytes);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);

  EXPECT_FALSE(write_file((dir / "no" / "such" / "dir").string(), bytes,
                          &err));
  EXPECT_NE(err.find("for writing"), std::string::npos) << err;
  EXPECT_FALSE(read_file((dir / "absent").string(), back, &err));
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(err, "cannot open file '" + (dir / "absent").string() + "'");
}

}  // namespace
}  // namespace ptb

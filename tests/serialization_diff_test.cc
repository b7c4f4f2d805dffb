// Differential tests for the serialization fast paths.  Each keeps the code
// it replaced as the reference and compares the two:
//   * JsonWriter::value(double) (std::to_chars) against the 6..17-digit
//     ostringstream + strtod precision loop, byte for byte, over more than
//     two million doubles from every class: uniforms, integers, integers at
//     and past 2^53, raw bit patterns, subnormals, every power of two, ±0.0,
//     ±DBL_MAX/±DBL_MIN and the 0.015 grid;
//   * JsonValue's number parse (std::from_chars on the document text)
//     against the substr + strtod parse, bit for bit, on every writer
//     output above and on edge tokens (underflow, overflow, -0, mantissas
//     of 17 digits and more);
//   * durable_io::crc32 (slicing-by-8) against the bytewise table loop on
//     random buffers of every length 0..1024 at every start alignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_io.h"
#include "core/json_reader.h"
#include "core/report.h"

namespace collie {
namespace {

// ---- References: the replaced implementations, verbatim in behaviour ----

// JsonWriter::value(double) before std::to_chars.
std::string reference_double(double v) {
  if (!std::isfinite(v)) return "null";
  std::string s;
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    s = os.str();
    if (std::strtod(s.c_str(), nullptr) == v) break;
  }
  return s;
}

// JsonParser::parse_number's conversion before std::from_chars: the token
// (already checked against the JSON number grammar) through strtod.
// Returns false where the parser threw "number out of range".
bool reference_parse(const std::string& token, double* out) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

// durable_io::crc32 before slicing-by-8.
u32 reference_crc32(const void* data, std::size_t n, u32 seed = 0) {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---- Inputs -----------------------------------------------------------------

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// The differential corpus: 2.1M finite doubles (plus the specials).
std::vector<double> corpus() {
  std::vector<double> out;
  out.reserve(2'200'000);
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Uniforms in [0,1) and scaled over twenty decades, both signs.
  for (int i = 0; i < 400'000; ++i) {
    const double u = unit(rng);
    const int decade = static_cast<int>(rng() % 21) - 10;
    out.push_back(i % 2 == 0 ? u : -u * std::pow(10.0, decade));
  }
  // Integers: small, 32-bit, and exactly representable up to 2^53.
  for (int i = 0; i < 300'000; ++i) {
    const std::int64_t k =
        i % 3 == 0   ? static_cast<std::int64_t>(rng() % 100'000)
        : i % 3 == 1 ? static_cast<std::int64_t>(static_cast<std::int32_t>(rng()))
                     : static_cast<std::int64_t>(rng() >> 11);
    out.push_back(static_cast<double>(i % 2 == 0 ? k : -k));
  }
  // Integers at and past 2^53 (spaced by 2, 4, ... up to 2^63 and beyond).
  for (int i = 0; i < 200'000; ++i) {
    const double mantissa = static_cast<double>((rng() >> 12) | (1ull << 52));
    const double v = std::ldexp(mantissa, 1 + static_cast<int>(rng() % 40));
    out.push_back(i % 2 == 0 ? v : -v);
  }
  // Raw bit patterns over the whole finite range.
  while (out.size() < 1'400'000) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) out.push_back(v);
  }
  // Subnormals (biased exponent 0).
  for (int i = 0; i < 200'000; ++i) {
    out.push_back(from_bits((rng() & 0x800FFFFFFFFFFFFFull) | 1u));
  }
  // The 0.015 grid the search space's fractional knobs live on.
  for (int k = 0; k < 500'000; ++k) out.push_back(0.015 * k);
  // Every power of two, both signs, and its two neighbours: the values
  // whose rounding interval is asymmetric.
  for (std::uint64_t e = 0; e < 2047; ++e) {
    for (const std::uint64_t sign : {0ull, 1ull << 63}) {
      const double p = from_bits(sign | (e << 52));
      out.push_back(p);
      out.push_back(std::nextafter(p, 0.0));
      if (e < 2046) out.push_back(std::nextafter(p, p * 2));
    }
  }
  for (const double v :
       {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, 1048576.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 100.0, 1e21,
        1e22, 1e-5, 123456.0, 1234567.0, 9007199254740993.0}) {
    out.push_back(v);
  }
  return out;
}

// Runs `check(i)` for i in [0, n) on up to four threads; returns the number
// of failing indices and appends the first few of each thread to
// `examples`, so a broken build prints a handful of cases, not millions.
template <typename Check>
std::size_t parallel_mismatches(std::size_t n, Check check,
                                std::vector<std::size_t>* examples) {
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::size_t> bad(threads, 0);
  std::vector<std::vector<std::size_t>> first(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) {
        if (check(i)) continue;
        bad[t] += 1;
        if (first[t].size() < 5) first[t].push_back(i);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::size_t total = 0;
  for (unsigned t = 0; t < threads; ++t) {
    total += bad[t];
    examples->insert(examples->end(), first[t].begin(), first[t].end());
  }
  return total;
}

std::string written(double v) {
  core::JsonWriter json;
  json.value(v);
  return std::move(json).str();
}

// ---- Writer -----------------------------------------------------------------

TEST(DoubleWriter, MatchesThePrecisionLoopOnTwoMillionDoubles) {
  const std::vector<double> values = corpus();
  ASSERT_GE(values.size(), 2'000'000u);
  std::vector<std::size_t> examples;
  const std::size_t bad = parallel_mismatches(
      values.size(),
      [&](std::size_t i) {
        return written(values[i]) == reference_double(values[i]);
      },
      &examples);
  EXPECT_EQ(bad, 0u);
  for (const std::size_t i : examples) {
    ADD_FAILURE() << "bits 0x" << std::hex << to_bits(values[i])
                  << ": writer " << written(values[i]) << ", reference "
                  << reference_double(values[i]);
  }
}

TEST(DoubleWriter, NonFiniteValuesPrintNull) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         from_bits(0x7FF0000000000001ull)}) {
    EXPECT_EQ(written(v), "null");
    EXPECT_EQ(reference_double(v), "null");
  }
  // Inside a document the separators are unchanged.
  core::JsonWriter json;
  json.begin_array().value(1.5).value(std::nan("")).value(-0.0).end_array();
  EXPECT_EQ(std::move(json).str(), "[1.5,null,-0]");
}

// ---- Reader -----------------------------------------------------------------

// True when parsing `token` as a document matches the reference: the same
// bits when the reference accepts it, "number out of range" when not.
bool parse_matches_reference(const std::string& token) {
  double want = 0.0;
  const bool ok = reference_parse(token, &want);
  try {
    const double got = core::JsonValue::parse(token).as_double();
    return ok && to_bits(got) == to_bits(want);
  } catch (const core::JsonError& e) {
    return !ok && std::string(e.what()).find("number out of range") !=
                      std::string::npos;
  }
}

TEST(NumberReader, MatchesStrtodOnEveryWriterOutput) {
  const std::vector<double> values = corpus();
  std::vector<std::size_t> examples;
  const std::size_t bad = parallel_mismatches(
      values.size(),
      [&](std::size_t i) {
        const std::string token = written(values[i]);
        return parse_matches_reference(token) &&
               core::JsonValue::parse(token).as_double() == values[i];
      },
      &examples);
  EXPECT_EQ(bad, 0u);
  for (const std::size_t i : examples) {
    ADD_FAILURE() << "token " << written(values[i]);
  }
}

TEST(NumberReader, MatchesStrtodOnEdgeTokens) {
  const std::vector<std::string> tokens = {
      // Underflow: the reference accepts the zero or subnormal it rounds to.
      "1e-400", "-1e-400", "2e-324", "2.4e-324", "2.5e-324", "-2.5e-324",
      "4.9406564584124654e-324", "4.9e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "0e-999", "0.000e+500",
      // Overflow: rejected as out of range.
      "1e400", "-1e400", "1.7976931348623159e308", "2e308",
      // At the top of the range.
      "1.7976931348623157e308", "1.7976931348623158e308", "-1.7976931348623157E+308",
      // Signed zeros and integers.
      "-0", "0", "-0.0", "0.0", "-0e0", "9007199254740993", "18446744073709551616",
      // Mantissas of 17 digits and more.
      "0.30000000000000004", "0.1000000000000000055511151231257827",
      "123456789012345678901234567890", "1.00000000000000000000000000001",
      "9.999999999999999999999999e22", "7.1202363472230444e-307",
      "2.470328229206232720882e-324", "00012.5000e-0003"};
  for (const std::string& token : tokens) {
    EXPECT_TRUE(parse_matches_reference(token)) << token;
  }
  // The pinned readings.
  const double tiny = core::JsonValue::parse("1e-400").as_double();
  EXPECT_EQ(tiny, 0.0);
  EXPECT_FALSE(std::signbit(tiny));
  EXPECT_TRUE(std::signbit(core::JsonValue::parse("-1e-400").as_double()));
  EXPECT_TRUE(std::signbit(core::JsonValue::parse("-0").as_double()));
  EXPECT_THROW(core::JsonValue::parse("1e400"), core::JsonError);
  try {
    core::JsonValue::parse("[1,-1e400]");
    ADD_FAILURE() << "1e400 parsed";
  } catch (const core::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("number out of range at offset 3"),
              std::string::npos)
        << e.what();
  }
  // Numbers inside documents convert in place, next to their neighbours.
  const core::JsonValue doc =
      core::JsonValue::parse("{\"a\":[0.015,-2.5e-3,7],\"b\":1e2}");
  EXPECT_EQ(doc.at("a").items()[0].as_double(), 0.015);
  EXPECT_EQ(doc.at("a").items()[1].as_double(), -0.0025);
  EXPECT_EQ(doc.at("a").items()[2].as_i64(), 7);
  EXPECT_EQ(doc.at("b").as_double(), 100.0);
}

TEST(NumberReader, KeepsTheGrammarStrict) {
  for (const char* bad :
       {"+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10", "1.5e", "inf",
        "nan", "Infinity", "1,", "[1 2]", "01a", "1e5.5"}) {
    EXPECT_THROW(core::JsonValue::parse(bad), core::JsonError) << bad;
  }
}

// ---- CRC-32 -----------------------------------------------------------------

TEST(Crc32Slicing, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(7);
  std::vector<unsigned char> buf(1024 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(durable_io::crc32(p, len), reference_crc32(p, len))
          << "align " << align << " len " << len;
      const u32 seed = static_cast<u32>(rng());
      ASSERT_EQ(durable_io::crc32(p, len, seed),
                reference_crc32(p, len, seed))
          << "seeded, align " << align << " len " << len;
    }
  }
  EXPECT_EQ(durable_io::crc32(std::string("123456789")), 0xCBF43926u);
}

}  // namespace
}  // namespace collie

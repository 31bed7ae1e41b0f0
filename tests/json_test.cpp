#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "json/merge_patch.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/schema.hpp"
#include "json/serialize.hpp"
#include "json/value.hpp"

namespace ofmf::json {
namespace {

using ::testing::HasSubstr;

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json(3).is_number());
  EXPECT_TRUE(Json("x").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
}

TEST(ValueTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::Obj({{"z", 1}, {"a", 2}, {"m", 3}});
  std::vector<std::string> keys;
  for (const auto& [k, v] : obj.as_object()) {
    (void)v;
    keys.push_back(k);
  }
  EXPECT_THAT(keys, ::testing::ElementsAre("z", "a", "m"));
}

TEST(ValueTest, ObjectSetOverwritesInPlace) {
  Json obj = Json::Obj({{"a", 1}, {"b", 2}});
  obj.as_object().Set("a", 10);
  EXPECT_EQ(obj.at("a").as_int(), 10);
  EXPECT_EQ(obj.as_object().size(), 2u);
}

TEST(ValueTest, EqualityIsOrderInsensitiveForObjects) {
  EXPECT_EQ(Json::Obj({{"a", 1}, {"b", 2}}), Json::Obj({{"b", 2}, {"a", 1}}));
  EXPECT_NE(Json::Obj({{"a", 1}}), Json::Obj({{"a", 2}}));
}

TEST(ValueTest, AtReturnsNullForMissing) {
  const Json obj = Json::Obj({{"a", 1}});
  EXPECT_TRUE(obj.at("missing").is_null());
  EXPECT_TRUE(Json(5).at("anything").is_null());
}

TEST(ValueTest, IndexOperatorInsertsNull) {
  Json obj = Json::MakeObject();
  obj["new"] = "value";
  EXPECT_EQ(obj.at("new").as_string(), "value");
}

TEST(ValueTest, GettersWithFallback) {
  const Json obj = Json::Obj({{"s", "str"}, {"i", 9}, {"d", 2.5}, {"b", true}});
  EXPECT_EQ(obj.GetString("s"), "str");
  EXPECT_EQ(obj.GetString("nope", "fb"), "fb");
  EXPECT_EQ(obj.GetInt("i"), 9);
  EXPECT_EQ(obj.GetInt("d"), 2);  // double truncates
  EXPECT_DOUBLE_EQ(obj.GetDouble("d"), 2.5);
  EXPECT_DOUBLE_EQ(obj.GetDouble("i"), 9.0);
  EXPECT_TRUE(obj.GetBool("b"));
  EXPECT_TRUE(obj.GetBool("nope", true));
}

// A double outside [-2^63, 2^63) has no int64 value (the conversion would be
// undefined behaviour), so GetInt answers the fallback for it.
TEST(ValueTest, GetIntFallsBackForDoublesOutsideInt64) {
  const Json obj = Json::Obj({{"huge", 1e300},
                              {"tiny", -1e300},
                              {"past_max", 9.3e18},
                              {"whole", 42.0},
                              {"min", -9223372036854775808.0}});
  EXPECT_EQ(obj.GetInt("huge", 7), 7);
  EXPECT_EQ(obj.GetInt("tiny", 7), 7);
  EXPECT_EQ(obj.GetInt("past_max", 7), 7);
  EXPECT_EQ(obj.GetInt("whole", 7), 42);
  EXPECT_EQ(obj.GetInt("min", 7), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(IntOr(*Parse("1e300"), -1), -1);
  EXPECT_EQ(IntOr(*Parse("9223372036854775807"), -1),
            std::numeric_limits<std::int64_t>::max());
}

// ----------------------------------------------------------------- Parse ---

/// ParseRaw runs Parse's grammar: the same verdict and the same error (and so
/// the same offset) for `text`. For an accepted object its members joined back
/// together parse to the same document, and give Serialize(Parse(text)) byte
/// for byte when `text` is already in that form; each array member's elements
/// are the array's elements.
void ExpectRawAgrees(std::string_view text, const ParseOptions& options = {}) {
  const auto dom = Parse(text, options);
  const auto raw = ParseRaw(text, options);
  ASSERT_EQ(raw.ok(), dom.ok()) << text;
  if (!dom.ok()) {
    EXPECT_EQ(raw.status().ToString(), dom.status().ToString()) << text;
    return;
  }
  ASSERT_EQ(raw->is_object, dom->is_object()) << text;
  if (!dom->is_object()) {
    EXPECT_TRUE(raw->members.empty());
    return;
  }
  std::string joined = "{";
  for (const RawMember& member : raw->members) {
    if (joined.size() > 1) joined += ',';
    joined += QuoteString(member.key) + ":" + std::string(member.value);
    const Json& value = dom->at(member.key);
    ASSERT_EQ(member.value.front() == '[', value.is_array()) << member.key;
    if (!value.is_array()) {
      EXPECT_TRUE(member.elements.empty());
      continue;
    }
    ASSERT_EQ(member.elements.size(), value.as_array().size()) << member.key;
    for (std::size_t i = 0; i < member.elements.size(); ++i) {
      EXPECT_EQ(*Parse(member.elements[i]), value.as_array()[i]) << member.elements[i];
    }
  }
  joined += '}';
  EXPECT_EQ(*Parse(joined), *dom) << text;
  if (text == Serialize(*dom)) {
    EXPECT_EQ(joined, text);
  }
}

TEST(ParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->as_bool(), true);
  EXPECT_EQ(Parse("false")->as_bool(), false);
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Parse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("-2.5E-2")->as_double(), -0.025);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(ParseTest, NestedStructure) {
  auto doc = Parse(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("a").as_array().size(), 3u);
  EXPECT_TRUE(doc->at("a").as_array()[2].at("b").is_null());
  EXPECT_TRUE(doc->at("c").at("d").as_bool());
}

TEST(ParseTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\/d\n\t")")->as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Parse(R"("é")")->as_string(), "\xC3\xA9");          // é
  EXPECT_EQ(Parse(R"("中")")->as_string(), "\xE4\xB8\xAD");      // 中
  EXPECT_EQ(Parse(R"("😀")")->as_string(), "\xF0\x9F\x98\x80");  // 😀
}

TEST(ParseTest, WhitespaceTolerant) {
  auto doc = Parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("a").as_array().size(), 2u);
}

TEST(ParseTest, IntegerOverflowBecomesDouble) {
  auto doc = Parse("99999999999999999999999999");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->is_double());
  EXPECT_GT(doc->as_double(), 1e25);
}

struct BadJsonCase {
  const char* name;
  const char* text;
};

class ParseRejects : public ::testing::TestWithParam<BadJsonCase> {};

TEST_P(ParseRejects, Input) {
  auto result = Parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << GetParam().text;
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  ExpectRawAgrees(GetParam().text);
  // The same defects inside a member, and inside an element of an array
  // member, where ParseRaw records bytes instead of checking a whole value.
  ExpectRawAgrees(std::string("{\"k\":") + GetParam().text + "}");
  ExpectRawAgrees(std::string("{\"k\":[0,") + GetParam().text + "]}");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParseRejects,
    ::testing::Values(
        BadJsonCase{"empty", ""}, BadJsonCase{"bare_word", "nope"},
        BadJsonCase{"trailing", "1 2"}, BadJsonCase{"trailing_comma_obj", "{\"a\":1,}"},
        BadJsonCase{"trailing_comma_arr", "[1,]"}, BadJsonCase{"unclosed_obj", "{\"a\":1"},
        BadJsonCase{"unclosed_str", "\"abc"}, BadJsonCase{"leading_zero", "012"},
        BadJsonCase{"bare_minus", "-"}, BadJsonCase{"dot_no_digits", "1."},
        BadJsonCase{"bad_escape", "\"\\x\""}, BadJsonCase{"control_char", "\"a\nb\""},
        BadJsonCase{"lone_high_surrogate", R"("\ud83d")"},
        BadJsonCase{"lone_low_surrogate", R"("\ude00")"},
        BadJsonCase{"colon_missing", "{\"a\" 1}"},
        BadJsonCase{"nonstring_key", "{1:2}"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(ParseTest, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  ParseOptions opts;
  opts.max_depth = 64;
  EXPECT_FALSE(Parse(deep, opts).ok());
  // And within the limit it parses.
  std::string shallow = "[[[[[1]]]]]";
  EXPECT_TRUE(Parse(shallow, opts).ok());
  // ParseRaw enforces the same limit at every level it records.
  for (std::size_t max_depth = 0; max_depth <= 3; ++max_depth) {
    ParseOptions limited;
    limited.max_depth = max_depth;
    for (const char* text : {"1", "[]", "{}", "[[1]]", R"({"a":1})", R"({"a":[1]})",
                             R"({"a":[[1]]})", R"({"a":[{"b":2}]})", R"({"a":{"b":[3]}})"}) {
      ExpectRawAgrees(text, limited);
    }
  }
}

// ------------------------------------------------------------- Serialize ---

TEST(SerializeTest, CompactForms) {
  EXPECT_EQ(Serialize(Json()), "null");
  EXPECT_EQ(Serialize(Json(true)), "true");
  EXPECT_EQ(Serialize(Json(-5)), "-5");
  EXPECT_EQ(Serialize(Json("a\"b")), "\"a\\\"b\"");
  EXPECT_EQ(Serialize(Json::Arr({1, 2})), "[1,2]");
  EXPECT_EQ(Serialize(Json::Obj({{"a", 1}})), "{\"a\":1}");
  EXPECT_EQ(Serialize(Json::MakeObject()), "{}");
  EXPECT_EQ(Serialize(Json::MakeArray()), "[]");
}

TEST(SerializeTest, DoublesRoundTripAndStayDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, -2.0}) {
    const std::string s = Serialize(Json(v));
    auto parsed = Parse(s);
    ASSERT_TRUE(parsed.ok()) << s;
    EXPECT_TRUE(parsed->is_double()) << s;
    EXPECT_DOUBLE_EQ(parsed->as_double(), v) << s;
  }
}

TEST(SerializeTest, NanAndInfBecomeNull) {
  EXPECT_EQ(Serialize(Json(std::nan(""))), "null");
  EXPECT_EQ(Serialize(Json(std::numeric_limits<double>::infinity())), "null");
}

TEST(SerializeTest, PrettyIsIndentedAndReparses) {
  const Json doc = Json::Obj({{"a", Json::Arr({1, 2})}, {"b", Json::Obj({{"c", true}})}});
  const std::string pretty = SerializePretty(doc);
  EXPECT_THAT(pretty, HasSubstr("\n  \"a\": [\n"));
  auto round = Parse(pretty);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, doc);
}

TEST(SerializeTest, ControlCharsEscaped) {
  EXPECT_EQ(Serialize(Json(std::string("\x01"))), "\"\\u0001\"");
  EXPECT_EQ(QuoteString("tab\there"), "\"tab\\there\"");
}

TEST(SerializeTest, Int64ExtremesAreExact) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Serialize(Json(min)), "-9223372036854775808");
  EXPECT_EQ(Serialize(Json(max)), "9223372036854775807");
  EXPECT_EQ(Parse("-9223372036854775808")->as_int(), min);
  EXPECT_EQ(Parse("9223372036854775807")->as_int(), max);
}

TEST(ParseTest, DuplicateKeyKeepsFirstPositionAndLastValue) {
  auto doc = Parse(R"({"a":1,"b":2,"a":{"c":3}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_object().size(), 2u);
  EXPECT_EQ(Serialize(*doc), R"({"a":{"c":3},"b":2})");
  auto raw = ParseRaw(R"({"a":[1,2],"b":2,"a":{"c":3}})");
  ASSERT_TRUE(raw.ok());
  ASSERT_EQ(raw->members.size(), 2u);
  EXPECT_EQ(raw->members[0].key, "a");
  EXPECT_EQ(raw->members[0].value, R"({"c":3})");
  EXPECT_TRUE(raw->members[0].elements.empty());
  EXPECT_EQ(raw->members[1].value, "2");
}

TEST(ParseRawTest, RecordsMembersAndElementsAsSourceBytes) {
  const std::string text = " { \"Members\" : [ {\"@odata.id\":\"/a\"} , 2 ,\"\\u00fc\"] ,"
                           "\"k\\\"ey\":null}\n";
  auto raw = ParseRaw(text);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(raw->is_object);
  ASSERT_EQ(raw->members.size(), 2u);
  const RawMember* members = raw->Find("Members");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->value, R"([ {"@odata.id":"/a"} , 2 ,"\u00fc"])");
  EXPECT_THAT(members->elements,
              ::testing::ElementsAre(R"({"@odata.id":"/a"})", "2", R"("\u00fc")"));
  ASSERT_NE(raw->Find("k\"ey"), nullptr);
  EXPECT_EQ(raw->Find("k\"ey")->value, "null");
  EXPECT_EQ(raw->Find("missing"), nullptr);
  ExpectRawAgrees(text);

  auto array = ParseRaw("[1,2]");
  ASSERT_TRUE(array.ok());
  EXPECT_FALSE(array->is_object);
  EXPECT_TRUE(array->members.empty());
}

// ------------------------------------------------------ Run boundaries ---
// Parse and Serialize copy runs of bytes that need no escaping in bulk,
// eight bytes per step; these cases pin behaviour at the edges of a run.

std::string EveryByte() {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  return bytes;
}

TEST(RunBoundaryTest, EveryByteSerializesToGoldenAndParsesBack) {
  const std::string bytes = EveryByte();
  std::string golden =
      R"json("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r)json"
      R"json(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018)json"
      R"json(\u0019\u001a\u001b\u001c\u001d\u001e\u001f !\"#$%&'()*+,-./0123456789)json"
      R"json(:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)json";
  // DEL and every byte >= 0x80 pass through raw: no escaping, no UTF-8 check.
  golden += bytes.substr(0x7F);
  golden += '"';
  EXPECT_EQ(Serialize(Json(bytes)), golden);
  auto parsed = Parse(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->as_string(), bytes);
}

TEST(RunBoundaryTest, EscapeAtEveryOffsetOfARun) {
  const std::vector<std::pair<char, std::string>> forms = {
      {'"', "\\\""},        {'\\', "\\\\"},       {'\n', "\\n"},
      {'\x01', "\\u0001"},  {'\x1f', "\\u001f"},  {'\x7f', "\x7f"},
      {'\x80', "\x80"},     {'\xff', "\xff"}};
  for (std::size_t before = 0; before <= 17; ++before) {
    for (const auto& [byte, escaped] : forms) {
      const std::string text = std::string(before, 'a') + byte + std::string(9, 'b');
      const std::string expected =
          "\"" + std::string(before, 'a') + escaped + std::string(9, 'b') + "\"";
      EXPECT_EQ(Serialize(Json(text)), expected) << before;
      auto parsed = Parse(expected);
      ASSERT_TRUE(parsed.ok()) << expected;
      EXPECT_EQ(parsed->as_string(), text) << before;
    }
  }
}

struct RunEdgeCase {
  const char* name;
  std::string text;
};

class ParseRejectsAtRunEdge : public ::testing::TestWithParam<RunEdgeCase> {};

TEST_P(ParseRejectsAtRunEdge, Input) {
  auto result = Parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << GetParam().text;
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  ExpectRawAgrees(GetParam().text);
  ExpectRawAgrees("{\"k\":" + GetParam().text);
  ExpectRawAgrees("{\"k\":[" + GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParseRejectsAtRunEdge,
    ::testing::Values(
        RunEdgeCase{"control_after_long_run", "\"" + std::string(100, 'a') + "\x01\""},
        RunEdgeCase{"del_run_then_control", "\"" + std::string(40, '\x7f') + "\x1f\""},
        RunEdgeCase{"high_run_then_control", "\"" + std::string(40, '\x80') + "\n\""},
        RunEdgeCase{"long_run_unterminated", "\"" + std::string(100, 'a')},
        RunEdgeCase{"lone_trailing_backslash", "\"" + std::string(37, 'a') + "\\"},
        RunEdgeCase{"cut_unicode_escape", "\"" + std::string(21, 'a') + "\\u00e"},
        RunEdgeCase{"cut_key_in_object", "{\"" + std::string(30, 'k')}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(RunBoundaryTest, RejectsAtEveryRunLength) {
  for (std::size_t run = 0; run <= 24; ++run) {
    const std::string plain = "\"" + std::string(run, 'a');
    EXPECT_FALSE(Parse(plain + "\x01\"").ok()) << run;
    EXPECT_FALSE(Parse(plain).ok()) << run;
    EXPECT_FALSE(Parse(plain + "\\").ok()) << run;
    EXPECT_FALSE(Parse(plain + "\\u12").ok()) << run;
    EXPECT_TRUE(Parse(plain + "\"").ok()) << run;
    for (const std::string& tail : {std::string("\x01\""), std::string(), std::string("\\"),
                                    std::string("\\u12"), std::string("\"")}) {
      ExpectRawAgrees("{\"k\":[" + plain + tail + "]}");
    }
  }
}

// Property: random documents round-trip byte-compare after one normalization.
Json RandomJson(Rng& rng, int depth) {
  const int pick = depth > 3 ? static_cast<int>(rng.UniformInt(0, 3))
                             : static_cast<int>(rng.UniformInt(0, 5));
  switch (pick) {
    case 0: return Json();
    case 1: return Json(rng.Chance(0.5));
    case 2: return Json(static_cast<std::int64_t>(rng.NextU64() >> 12));
    case 3: {
      std::string s;
      const std::size_t len = rng.UniformInt(0, 12);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.UniformInt(32, 126)));
      }
      return Json(std::move(s));
    }
    case 4: {
      Array arr;
      const std::size_t n = rng.UniformInt(0, 4);
      for (std::size_t i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth + 1));
      return Json(std::move(arr));
    }
    default: {
      Object obj;
      const std::size_t n = rng.UniformInt(0, 4);
      for (std::size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(i), RandomJson(rng, depth + 1));
      }
      return Json(std::move(obj));
    }
  }
}

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTrip, SerializeParseSerializeIsStable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 50; ++i) {
    const Json doc = RandomJson(rng, 0);
    const std::string once = Serialize(doc);
    auto parsed = Parse(once);
    ASSERT_TRUE(parsed.ok()) << once;
    EXPECT_EQ(*parsed, doc);
    EXPECT_EQ(Serialize(*parsed), once);
    ExpectRawAgrees(once);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 9));

// --------------------------------------------------------------- Pointer ---

TEST(PointerTest, ResolveBasics) {
  auto doc = *Parse(R"({"Members":[{"Name":"a"},{"Name":"b"}],"x~y":1,"a/b":2})");
  EXPECT_EQ(ResolvePointer(doc, "/Members/1/Name")->as_string(), "b");
  EXPECT_EQ(ResolvePointer(doc, "/x~0y")->as_int(), 1);
  EXPECT_EQ(ResolvePointer(doc, "/a~1b")->as_int(), 2);
  EXPECT_EQ(ResolvePointer(doc, "")->at("x~y").as_int(), 1);  // whole doc
}

TEST(PointerTest, ResolveErrors) {
  auto doc = *Parse(R"({"a":[1]})");
  EXPECT_EQ(ResolvePointer(doc, "/missing").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResolvePointer(doc, "/a/5").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResolvePointer(doc, "/a/x").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(SplitPointer("no-slash").ok());
  EXPECT_EQ(ResolvePointerRef(doc, "/a/0/deeper"), nullptr);
}

TEST(PointerTest, SetCreatesIntermediateObjects) {
  Json doc = Json::MakeObject();
  ASSERT_TRUE(SetPointer(doc, "/a/b/c", 42).ok());
  EXPECT_EQ(ResolvePointer(doc, "/a/b/c")->as_int(), 42);
}

TEST(PointerTest, SetArrayAppendAndIndex) {
  Json doc = *Parse(R"({"arr":[1,2]})");
  ASSERT_TRUE(SetPointer(doc, "/arr/-", 3).ok());
  ASSERT_TRUE(SetPointer(doc, "/arr/0", 9).ok());
  EXPECT_EQ(Serialize(doc.at("arr")), "[9,2,3]");
  EXPECT_FALSE(SetPointer(doc, "/arr/9", 0).ok());
}

TEST(PointerTest, SetWholeDocument) {
  Json doc = Json(1);
  ASSERT_TRUE(SetPointer(doc, "", Json("whole")).ok());
  EXPECT_EQ(doc.as_string(), "whole");
}

TEST(PointerTest, RemoveMemberAndElement) {
  Json doc = *Parse(R"({"a":1,"arr":[1,2,3]})");
  ASSERT_TRUE(RemovePointer(doc, "/a").ok());
  EXPECT_FALSE(doc.Contains("a"));
  ASSERT_TRUE(RemovePointer(doc, "/arr/1").ok());
  EXPECT_EQ(Serialize(doc.at("arr")), "[1,3]");
  EXPECT_FALSE(RemovePointer(doc, "/arr/7").ok());
  EXPECT_FALSE(RemovePointer(doc, "").ok());
}

TEST(PointerTest, EscapeTokenInverse) {
  EXPECT_EQ(EscapeToken("a/b~c"), "a~1b~0c");
}

// Property: every leaf of a random document is reachable by the pointer
// built from its path, including keys needing ~0/~1 escapes.
void EnumerateLeaves(const Json& node, const std::string& pointer,
                     std::vector<std::pair<std::string, Json>>& leaves) {
  if (node.is_object()) {
    for (const auto& [k, v] : node.as_object()) {
      EnumerateLeaves(v, pointer + "/" + EscapeToken(k), leaves);
    }
  } else if (node.is_array()) {
    const auto& arr = node.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EnumerateLeaves(arr[i], pointer + "/" + std::to_string(i), leaves);
    }
  } else {
    leaves.emplace_back(pointer, node);
  }
}

class PointerProperty : public ::testing::TestWithParam<int> {};

TEST_P(PointerProperty, EveryLeafResolvesByItsPointer) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int round = 0; round < 20; ++round) {
    Json doc = RandomJson(rng, 0);
    // Add pathological keys at the top level when it's an object.
    if (doc.is_object()) {
      doc.as_object().Set("a/b", Json(1));
      doc.as_object().Set("t~ilde", Json(2));
      doc.as_object().Set("", Json(3));  // empty key is legal JSON
    }
    std::vector<std::pair<std::string, Json>> leaves;
    EnumerateLeaves(doc, "", leaves);
    for (const auto& [pointer, expected] : leaves) {
      const Json* found = ResolvePointerRef(doc, pointer);
      ASSERT_NE(found, nullptr) << pointer << " in " << Serialize(doc);
      EXPECT_EQ(*found, expected) << pointer;
    }
  }
}

TEST_P(PointerProperty, SetThenResolveRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 30; ++round) {
    Json doc = Json::MakeObject();
    // Random object path of depth 1-4.
    std::string pointer;
    const int depth = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int d = 0; d < depth; ++d) {
      pointer += "/k" + std::to_string(rng.UniformInt(0, 5));
    }
    const Json value = RandomJson(rng, 2);
    ASSERT_TRUE(SetPointer(doc, pointer, value).ok()) << pointer;
    auto resolved = ResolvePointer(doc, pointer);
    ASSERT_TRUE(resolved.ok()) << pointer;
    EXPECT_EQ(*resolved, value) << pointer;
    // Remove and verify gone.
    ASSERT_TRUE(RemovePointer(doc, pointer).ok()) << pointer;
    EXPECT_FALSE(ResolvePointer(doc, pointer).ok()) << pointer;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointerProperty, ::testing::Range(1, 6));

// ----------------------------------------------------------- Merge patch ---

TEST(MergePatchTest, Rfc7386Examples) {
  Json target = *Parse(R"({"a":"b","c":{"d":"e","f":"g"}})");
  MergePatch(target, *Parse(R"({"a":"z","c":{"f":null}})"));
  EXPECT_EQ(target, *Parse(R"({"a":"z","c":{"d":"e"}})"));
}

TEST(MergePatchTest, NonObjectPatchReplaces) {
  Json target = *Parse(R"({"a":1})");
  MergePatch(target, Json::Arr({1, 2}));
  EXPECT_TRUE(target.is_array());
}

TEST(MergePatchTest, PatchIntoScalarCreatesObject) {
  Json target = Json(5);
  MergePatch(target, *Parse(R"({"a":1})"));
  EXPECT_EQ(target, *Parse(R"({"a":1})"));
}

TEST(MergePatchTest, DiffThenPatchReachesTarget) {
  Rng rng(404);
  for (int i = 0; i < 40; ++i) {
    Json from = RandomJson(rng, 1);
    Json to = RandomJson(rng, 1);
    if (!from.is_object()) from = Json::Obj({{"v", from}});
    if (!to.is_object()) to = Json::Obj({{"v", to}});
    // Merge-patch cannot represent null members; scrub them from `to`.
    // (RandomJson only nests under object/array; scrub top level members.)
    std::vector<std::string> null_keys;
    for (auto& [k, v] : to.as_object()) {
      if (v.is_null()) null_keys.push_back(k);
    }
    for (const auto& k : null_keys) to.as_object().Erase(k);
    const Json patch = DiffToMergePatch(from, to);
    Json applied = from;
    MergePatch(applied, patch);
    EXPECT_EQ(applied, to) << Serialize(from) << " + " << Serialize(patch);
  }
}

// ---------------------------------------------------------------- Schema ---

Json StorageSchema() {
  return *Parse(R"({
    "type": "object",
    "required": ["Name", "CapacityBytes"],
    "properties": {
      "Name": {"type": "string", "minLength": 1, "maxLength": 64},
      "CapacityBytes": {"type": "integer", "minimum": 0},
      "Status": {"$ref": "#/$defs/Status"},
      "AccessModes": {
        "type": "array",
        "items": {"type": "string", "enum": ["Read", "Write", "ReadWrite"]},
        "minItems": 1, "maxItems": 3
      },
      "Id": {"type": "string", "readonly": true},
      "Utilization": {"type": "number", "minimum": 0, "maximum": 1}
    },
    "additionalProperties": false,
    "$defs": {
      "Status": {
        "type": "object",
        "properties": {
          "State": {"type": "string", "enum": ["Enabled", "Disabled", "Absent"]},
          "Health": {"type": "string"}
        }
      }
    }
  })");
}

TEST(SchemaTest, AcceptsValidDocument) {
  SchemaValidator validator(StorageSchema());
  const Json doc = *Parse(R"({
    "Name": "pool0", "CapacityBytes": 1024,
    "Status": {"State": "Enabled", "Health": "OK"},
    "AccessModes": ["Read", "Write"], "Utilization": 0.5
  })");
  EXPECT_TRUE(validator.Check(doc).ok()) << validator.Check(doc).ToString();
}

TEST(SchemaTest, ReportsEveryViolation) {
  SchemaValidator validator(StorageSchema());
  const Json doc = *Parse(R"({
    "CapacityBytes": -5,
    "Status": {"State": "Bogus"},
    "AccessModes": [],
    "Utilization": 2.0,
    "Extra": 1
  })");
  const auto errors = validator.Validate(doc);
  // Missing Name, negative capacity, bad enum, empty array, >max, extra prop.
  EXPECT_GE(errors.size(), 6u);
}

TEST(SchemaTest, TypeMismatchMessages) {
  SchemaValidator validator(*Parse(R"({"type":"integer"})"));
  const Status status = validator.Check(Json("nope"));
  EXPECT_FALSE(status.ok());
  EXPECT_THAT(status.message(), HasSubstr("expected type"));
}

TEST(SchemaTest, TypeArrayAllowsAlternatives) {
  SchemaValidator validator(*Parse(R"({"type":["string","null"]})"));
  EXPECT_TRUE(validator.Check(Json("x")).ok());
  EXPECT_TRUE(validator.Check(Json()).ok());
  EXPECT_FALSE(validator.Check(Json(5)).ok());
}

TEST(SchemaTest, IntegerVersusNumber) {
  SchemaValidator int_validator(*Parse(R"({"type":"integer"})"));
  EXPECT_TRUE(int_validator.Check(Json(3)).ok());
  EXPECT_FALSE(int_validator.Check(Json(3.5)).ok());
  SchemaValidator num_validator(*Parse(R"({"type":"number"})"));
  EXPECT_TRUE(num_validator.Check(Json(3)).ok());
  EXPECT_TRUE(num_validator.Check(Json(3.5)).ok());
}

TEST(SchemaTest, PatternMatching) {
  SchemaValidator validator(*Parse(R"({"type":"string","pattern":"^node[0-9]+$"})"));
  EXPECT_TRUE(validator.Check(Json("node001")).ok());
  EXPECT_FALSE(validator.Check(Json("login")).ok());
}

TEST(SchemaTest, Combinators) {
  SchemaValidator any(*Parse(R"({"anyOf":[{"type":"string"},{"type":"integer"}]})"));
  EXPECT_TRUE(any.Check(Json("s")).ok());
  EXPECT_TRUE(any.Check(Json(1)).ok());
  EXPECT_FALSE(any.Check(Json(1.5)).ok());

  SchemaValidator one(*Parse(R"({"oneOf":[{"type":"number"},{"type":"integer"}]})"));
  EXPECT_FALSE(one.Check(Json(1)).ok());   // matches both branches
  EXPECT_TRUE(one.Check(Json(1.5)).ok());  // matches only "number"

  SchemaValidator all(*Parse(R"({"allOf":[{"type":"integer"},{"minimum":5}]})"));
  EXPECT_TRUE(all.Check(Json(7)).ok());
  EXPECT_FALSE(all.Check(Json(3)).ok());

  SchemaValidator nots(*Parse(R"({"not":{"type":"null"}})"));
  EXPECT_TRUE(nots.Check(Json(1)).ok());
  EXPECT_FALSE(nots.Check(Json()).ok());
}

TEST(SchemaTest, ConstAndMultipleOf) {
  SchemaValidator c(*Parse(R"({"const":"fixed"})"));
  EXPECT_TRUE(c.Check(Json("fixed")).ok());
  EXPECT_FALSE(c.Check(Json("other")).ok());
  SchemaValidator m(*Parse(R"({"type":"integer","multipleOf":8})"));
  EXPECT_TRUE(m.Check(Json(64)).ok());
  EXPECT_FALSE(m.Check(Json(63)).ok());
}

TEST(SchemaTest, BooleanSchemas) {
  EXPECT_TRUE(SchemaValidator(Json(true)).Check(Json(123)).ok());
  EXPECT_FALSE(SchemaValidator(Json(false)).Check(Json(123)).ok());
}

TEST(SchemaTest, UnresolvableRefIsError) {
  SchemaValidator validator(*Parse(R"({"$ref":"#/$defs/Missing"})"));
  EXPECT_FALSE(validator.Check(Json(1)).ok());
}

TEST(SchemaTest, ReadOnlyViolationsDetected) {
  SchemaValidator validator(StorageSchema());
  const Json patch = *Parse(R"({"Name":"ok","Id":"not-allowed"})");
  const auto violations = validator.ReadOnlyViolations(patch);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].pointer, "/Id");
  EXPECT_TRUE(validator.ReadOnlyViolations(*Parse(R"({"Name":"ok"})")).empty());
}

TEST(SchemaTest, MinProperties) {
  SchemaValidator validator(*Parse(R"({"type":"object","minProperties":2})"));
  EXPECT_FALSE(validator.Check(*Parse(R"({"a":1})")).ok());
  EXPECT_TRUE(validator.Check(*Parse(R"({"a":1,"b":2})")).ok());
}

TEST(SchemaTest, ExclusiveBounds) {
  SchemaValidator validator(
      *Parse(R"({"type":"number","exclusiveMinimum":0,"exclusiveMaximum":10})"));
  EXPECT_FALSE(validator.Check(Json(0)).ok());
  EXPECT_TRUE(validator.Check(Json(5)).ok());
  EXPECT_FALSE(validator.Check(Json(10)).ok());
}

}  // namespace
}  // namespace ofmf::json

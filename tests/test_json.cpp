// JSON writer + report-export tests. No JSON parser is shipped, so
// structural checks are done with a tiny validator below (balanced
// containers + well-formed strings), plus exact-output assertions for
// small documents.
#include <gtest/gtest.h>

#include <cmath>

#include "core/report.h"
#include "util/json.h"

namespace mum {
namespace {

// Minimal structural validation: balanced {}/[] outside strings, valid
// escapes. Good enough to catch writer bugs without a full parser.
bool structurally_valid(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, SmallObjectExactOutput) {
  util::JsonWriter json;
  json.begin_object();
  json.field("name", "mum");
  json.field("cycle", 60);
  json.field("ok", true);
  json.end_object();
  EXPECT_EQ(json.str(), R"({"name":"mum","cycle":60,"ok":true})");
}

TEST(JsonWriter, ArraysAndNesting) {
  util::JsonWriter json;
  json.begin_object();
  json.key("values");
  json.begin_array();
  json.value(1);
  json.value(2);
  json.begin_object();
  json.field("x", 3);
  json.end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"values":[1,2,{"x":3}]})");
}

TEST(JsonWriter, EmptyContainers) {
  util::JsonWriter json;
  json.begin_object();
  json.key("a");
  json.begin_array();
  json.end_array();
  json.key("b");
  json.begin_object();
  json.end_object();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"a":[],"b":{}})");
}

TEST(JsonWriter, EscapesSpecials) {
  util::JsonWriter json;
  json.begin_object();
  json.field("s", "a\"b\\c\nd");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, ControlCharactersAsUnicodeEscapes) {
  EXPECT_EQ(util::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, DoublesAndNull) {
  util::JsonWriter json;
  json.begin_array();
  json.value(0.5);
  json.value(std::nan(""));
  json.null();
  json.end_array();
  EXPECT_EQ(json.str(), "[0.5,null,null]");
}

TEST(JsonWriter, NegativeAndLargeIntegers) {
  util::JsonWriter json;
  json.begin_array();
  json.value(static_cast<std::int64_t>(-42));
  json.value(static_cast<std::uint64_t>(1) << 53);
  json.end_array();
  EXPECT_EQ(json.str(), "[-42,9007199254740992]");
}

// --- report export -----------------------------------------------------------

lpr::CycleReport sample_report() {
  lpr::CycleReport report;
  report.cycle_id = 59;
  report.date = "2014-12";
  report.extract_stats.traces_total = 100;
  report.extract_stats.traces_with_explicit_tunnel = 40;
  report.filter_stats.observed = 50;
  report.filter_stats.after_persistence = 30;

  lpr::IotpRecord rec;
  rec.key = lpr::IotpKey{7018, net::Ipv4Addr(1), net::Ipv4Addr(2)};
  rec.tunnel_class = lpr::TunnelClass::kMonoFec;
  rec.mono_fec_kind = lpr::MonoFecKind::kParallelLinks;
  rec.length = 3;
  rec.width = 2;
  rec.dst_asns = {1, 2};
  report.iotps.push_back(rec);
  report.global.mono_fec = 1;
  report.global.parallel_links = 1;
  report.per_as[7018] = report.global;
  report.dynamic_as[1273] = true;
  return report;
}

TEST(ReportJson, CycleReportStructureAndFields) {
  const std::string text = sample_report().to_json();
  EXPECT_TRUE(structurally_valid(text)) << text;
  EXPECT_NE(text.find("\"cycle\":60"), std::string::npos);  // 1-based
  EXPECT_NE(text.find("\"date\":\"2014-12\""), std::string::npos);
  EXPECT_NE(text.find("\"mono_fec\":1"), std::string::npos);
  EXPECT_NE(text.find("\"asn\":7018"), std::string::npos);
  // IOTPs excluded by default.
  EXPECT_EQ(text.find("\"iotps\""), std::string::npos);
}

TEST(ReportJson, IotpsIncludedOnRequest) {
  const std::string text = sample_report().to_json(/*include_iotps=*/true);
  EXPECT_TRUE(structurally_valid(text)) << text;
  EXPECT_NE(text.find("\"iotps\""), std::string::npos);
  EXPECT_NE(text.find("\"class\":\"Mono-FEC\""), std::string::npos);
  EXPECT_NE(text.find("\"mono_fec_kind\":\"Parallel Links\""),
            std::string::npos);
  EXPECT_NE(text.find("\"width\":2"), std::string::npos);
}

TEST(ReportJson, LongitudinalIsArrayOfCycles) {
  lpr::LongitudinalReport longitudinal;
  longitudinal.cycles.push_back(sample_report());
  longitudinal.cycles.push_back(sample_report());
  const std::string text = longitudinal.to_json();
  EXPECT_TRUE(structurally_valid(text)) << text;
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), ']');
  // Two cycle objects.
  std::size_t hits = 0, pos = 0;
  while ((pos = text.find("\"cycle\":60", pos)) != std::string::npos) {
    ++hits;
    pos += 1;
  }
  EXPECT_EQ(hits, 2u);
}

}  // namespace
}  // namespace mum

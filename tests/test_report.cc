// Tests for the JSON report writer and the exported result shapes.
#include <gtest/gtest.h>

#include "measure/domain_tester.h"
#include "measure/report.h"
#include "measure/scan.h"
#include "topo/national.h"
#include "topo/scenario.h"

using namespace tspu;

namespace {

TEST(JsonWriter, ScalarsAndNesting) {
  measure::JsonWriter w;
  w.begin_object();
  w.field("name", "tspu");
  w.field("count", 42);
  w.field("ratio", 0.25);
  w.field("flag", true);
  w.begin_array("items");
  w.value(1);
  w.value(2);
  w.end_array();
  w.begin_object();  // anonymous nested? (inside object, after array)
  w.end_object();
  w.end_object();
  const std::string s = w.str();
  EXPECT_NE(s.find("\"name\":\"tspu\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"count\":42"), std::string::npos) << s;
  EXPECT_NE(s.find("\"ratio\":0.25"), std::string::npos) << s;
  EXPECT_NE(s.find("\"flag\":true"), std::string::npos) << s;
  EXPECT_NE(s.find("\"items\":[1,2]"), std::string::npos) << s;
}

TEST(JsonWriter, Escaping) {
  EXPECT_EQ(measure::escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(measure::escape_json(std::string(1, '\x01')), "\\u0001");
  measure::JsonWriter w;
  w.begin_object();
  w.field("k\"ey", "v\nal");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriter, CommaAfterKeyedArrays) {
  measure::JsonWriter w;
  w.begin_object();
  w.begin_array("a");
  w.value(1);
  w.end_array();
  w.begin_array("b");
  w.end_array();
  w.field("n", 2);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[1],\"b\":[],\"n\":2}");
}

TEST(Report, ScanSummaryExports) {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0004;
  cfg.n_ases = 40;
  cfg.echo_servers = 30;
  measure::ParallelScanConfig sc;
  sc.localize = true;
  sc.trace_links = true;
  sc.max_endpoints = 120;
  const measure::ScanSummary summary =
      measure::parallel_scan(cfg, sc, /*jobs=*/2).summary;

  const std::string json = measure::scan_summary_json(summary);
  EXPECT_NE(json.find("\"endpoints_probed\":120"), std::string::npos) << json;
  EXPECT_NE(json.find("\"by_port\":["), std::string::npos);
  EXPECT_NE(json.find("\"hops_histogram\":["), std::string::npos);
  // Balanced braces/brackets (a structural smoke check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Report, DomainVerdictsExport) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.005;
  cfg.perfect_devices = true;
  topo::Scenario scenario(cfg);
  measure::DomainTester tester(scenario);
  std::vector<const topo::DomainInfo*> domains = {
      scenario.corpus().find("facebook.com"),
      scenario.corpus().find("nordvpn.com"),
  };
  auto verdicts = tester.run(domains);
  const std::string json = measure::domain_verdicts_json(
      verdicts, {"Rostelecom", "ER-Telecom", "OBIT"});
  EXPECT_NE(json.find("\"domain\":\"facebook.com\""), std::string::npos);
  EXPECT_NE(json.find("\"tspu\":\"RST/ACK (SNI-I)\""), std::string::npos);
  EXPECT_NE(json.find("\"tspu\":\"delayed drop (SNI-II)\""), std::string::npos);
  EXPECT_NE(json.find("\"isp\":\"OBIT\""), std::string::npos);
  EXPECT_NE(json.find("\"tspu_uniform\":true"), std::string::npos);
}

}  // namespace

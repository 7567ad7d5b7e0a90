// Regression: the full Table-8 sequence/timeout matrix under this model's
// documented semantics (EXPERIMENTS.md records the three rows where the
// model deliberately diverges from the paper's OCR-ambiguous values).
#include <gtest/gtest.h>

#include "measure/timeout_estimator.h"
#include "topo/scenario.h"

using namespace tspu;

namespace {

struct Row {
  const char* name;
  std::vector<std::string> prefix;
  bool drop;          ///< fresh-state action
  int timeout;        ///< model's expected flip (seconds)
};

// Without this gtest names each row by a byte dump of the struct, whose
// pointers change from build to build.
void PrintTo(const Row& row, std::ostream* os) {
  for (const auto& step : row.prefix) *os << step << ' ';
  *os << "Lt: " << (row.drop ? "drop " : "pass ") << row.timeout << 's';
}

class Table8Row : public ::testing::TestWithParam<Row> {
 protected:
  static topo::Scenario& scenario() {
    static topo::Scenario s([] {
      topo::ScenarioConfig cfg;
      cfg.corpus.scale = 0.01;
      cfg.perfect_devices = true;
      return cfg;
    }());
    return s;
  }
};

TEST_P(Table8Row, ActionAndTimeout) {
  const Row& row = GetParam();
  auto& s = scenario();
  auto& vp = s.vp("ER-Telecom");
  auto& remote = s.us_raw_machine();
  const std::string sni = "nordvpn.com";  // t = SNI-II, per the caption

  measure::TimeoutProbe fresh;
  fresh.steps = row.prefix;
  fresh.steps.push_back("SLEEP");
  fresh.steps.push_back("Lt");
  fresh.trigger_sni = sni;
  const bool dropped = measure::probe_blocked_at(
      s.net(), *vp.host, remote, fresh, util::Duration::seconds(1));
  EXPECT_EQ(dropped, row.drop);

  std::optional<int> seconds;
  if (row.drop) {
    seconds = measure::estimate_block_residual(s.net(), *vp.host, remote, sni,
                                               {}, row.prefix)
                  .seconds;
  } else {
    seconds = measure::estimate_timeout(s.net(), *vp.host, remote, fresh)
                  .seconds;
  }
  ASSERT_TRUE(seconds.has_value());
  EXPECT_NEAR(*seconds, row.timeout, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, Table8Row,
    ::testing::Values(
        Row{"Lt", {}, true, 420},
        Row{"Rs_Lt", {"Rs"}, false, 30},
        Row{"Rs_Ls_Lt", {"Rs", "Ls"}, false, 30},
        Row{"Ls_Rs_Lt", {"Ls", "Rs"}, true, 420},
        Row{"Rs_Ls_Rsa_Lt", {"Rs", "Ls", "Rsa"}, false, 30},
        Row{"Rs_Ls_Lsa_Lt", {"Rs", "Ls", "Lsa"}, false, 180},
        Row{"Ra_Lt", {"Ra"}, false, 480},
        Row{"Ra_Lsa_Lt", {"Ra", "Lsa"}, false, 480},
        Row{"Lsa_Lt", {"Lsa"}, true, 420},
        Row{"Rs_Lsa_Lt", {"Rs", "Lsa"}, false, 180},
        Row{"Ra_Lsa_Ra_Lt", {"Ra", "Lsa", "Ra"}, false, 480},
        Row{"Rsa_Lt", {"Rsa"}, false, 480},
        Row{"Ls_Ra_Lt", {"Ls", "Ra"}, true, 420},
        Row{"Rsa_Lsa_Lt", {"Rsa", "Lsa"}, false, 480},
        Row{"Rsa_La_Lt", {"Rsa", "La"}, false, 480}),
    [](const ::testing::TestParamInfo<Row>& tpi) { return tpi.param.name; });

}  // namespace

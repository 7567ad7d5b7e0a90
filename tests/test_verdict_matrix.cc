// Parameterized verdict matrix: every named domain from the paper, from
// every vantage point, must classify to its Table-3 blocking type.
#include <gtest/gtest.h>

#include "measure/behavior.h"
#include "topo/scenario.h"

using namespace tspu;

namespace {

struct MatrixCase {
  const char* domain;
  const char* isp;
  measure::SniOutcome expected;
};

// Without this gtest names each case by a byte dump of the struct, whose
// pointers change from run to run.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.domain << " from " << c.isp << ": "
      << measure::sni_outcome_name(c.expected);
}

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = std::string(info.param.domain) + "_" + info.param.isp;
  for (char& c : name) {
    if (c == '.' || c == '-') c = '_';
  }
  return name;
}

class VerdictMatrix : public ::testing::TestWithParam<MatrixCase> {
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

TEST_P(VerdictMatrix, ClassifiesToTable3Type) {
  const auto& c = GetParam();
  auto& s = scenario();
  auto& vp = s.vp(c.isp);
  auto r = measure::test_sni(s.net(), *vp.host, s.us_machine(0).addr(),
                             c.domain, measure::ClassifyDepth::kStandard);
  EXPECT_EQ(r.outcome, c.expected)
      << c.domain << " via " << c.isp << ": got "
      << measure::sni_outcome_name(r.outcome);
  vp.host->reset_traffic_state();
  s.us_machine(0).reset_traffic_state();
  s.net().sim().run_for(util::Duration::seconds(1));
}

constexpr auto kOk = measure::SniOutcome::kOk;
constexpr auto kRst = measure::SniOutcome::kRstAck;
constexpr auto kDelay = measure::SniOutcome::kDelayedDrop;

INSTANTIATE_TEST_SUITE_P(
    NamedDomains, VerdictMatrix,
    ::testing::Values(
        // SNI-I family (Table 3), every vantage point.
        MatrixCase{"facebook.com", "Rostelecom", kRst},
        MatrixCase{"facebook.com", "ER-Telecom", kRst},
        MatrixCase{"facebook.com", "OBIT", kRst},
        MatrixCase{"twitter.com", "Rostelecom", kRst},
        MatrixCase{"twitter.com", "ER-Telecom", kRst},
        MatrixCase{"twitter.com", "OBIT", kRst},
        MatrixCase{"instagram.com", "Rostelecom", kRst},
        MatrixCase{"dw.com", "ER-Telecom", kRst},
        MatrixCase{"tor.eff.org", "OBIT", kRst},
        MatrixCase{"theins.ru", "Rostelecom", kRst},
        MatrixCase{"twimg.com", "ER-Telecom", kRst},
        MatrixCase{"t.co", "OBIT", kRst},
        MatrixCase{"googlesyndication.com", "Rostelecom", kRst},
        MatrixCase{"fbcdn.net", "OBIT", kRst},
        // SNI-II group (exact Table-3 list), every vantage point.
        MatrixCase{"nordvpn.com", "Rostelecom", kDelay},
        MatrixCase{"nordvpn.com", "ER-Telecom", kDelay},
        MatrixCase{"nordvpn.com", "OBIT", kDelay},
        MatrixCase{"play.google.com", "Rostelecom", kDelay},
        MatrixCase{"news.google.com", "ER-Telecom", kDelay},
        MatrixCase{"nordaccount.com", "OBIT", kDelay},
        // Unblocked controls.
        MatrixCase{"example.com", "Rostelecom", kOk},
        MatrixCase{"example.com", "ER-Telecom", kOk},
        MatrixCase{"example.com", "OBIT", kOk},
        MatrixCase{"wikipedia.org", "Rostelecom", kOk},
        MatrixCase{"kremlin.ru", "OBIT", kOk}),
    case_name);

}  // namespace

// Survey-level integration tests: trigger reliability ordering (Table 1),
// the §6 domain-testing pipeline, residual censorship (§3's fresh-port
// methodology), and out-registry blocking invisibility to ISP resolvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ispdpi/resolver.h"
#include "measure/domain_tester.h"
#include "measure/rawflow.h"
#include "measure/reliability.h"
#include "measure/topic_model.h"
#include "topo/scenario.h"

using namespace tspu;

namespace {

/// Trials of one (ISP, trigger) cell where censorship failed to engage,
/// run the way Table 1 runs them: one begin_trial-isolated item per trial.
int unblocked_trials(const topo::ScenarioConfig& cfg, const std::string& isp,
                     measure::TriggerKind kind, std::size_t trials) {
  const std::vector<bool> flags = measure::sharded_reliability_trials(
      cfg, isp, kind, trials, /*seed=*/0x7ab1e1, /*jobs=*/1);
  EXPECT_EQ(flags.size(), trials);
  return static_cast<int>(std::count(flags.begin(), flags.end(), true));
}

TEST(Reliability, SingleDeviceIspFailsMoreOften) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  // ER-Telecom has one device; Rostelecom paths cross two. For SNI-II, both
  // Rostelecom devices must fail, so its unblocked count stays at/near zero
  // while ER-Telecom's is visibly larger (Table 1's ordering).
  const int ert = unblocked_trials(cfg, "ER-Telecom",
                                   measure::TriggerKind::kSniII, 250);
  const int rt = unblocked_trials(cfg, "Rostelecom",
                                  measure::TriggerKind::kSniII, 250);
  EXPECT_GT(ert, 0);
  EXPECT_GE(ert, rt);
}

TEST(Reliability, PerfectDevicesNeverFail) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  cfg.perfect_devices = true;
  for (const char* isp : {"Rostelecom", "ER-Telecom", "OBIT"}) {
    for (measure::TriggerKind kind :
         {measure::TriggerKind::kSniI, measure::TriggerKind::kSniII,
          measure::TriggerKind::kSniIV, measure::TriggerKind::kQuic,
          measure::TriggerKind::kIpBased}) {
      EXPECT_EQ(unblocked_trials(cfg, isp, kind, 40), 0)
          << isp << " " << measure::trigger_kind_name(kind);
    }
  }
}

class Survey : public ::testing::Test {
 protected:
  Survey() : scenario([] {
    topo::ScenarioConfig cfg;
    cfg.corpus.scale = 0.01;
    cfg.perfect_devices = true;
    return cfg;
  }()) {}
  topo::Scenario scenario;
};

TEST_F(Survey, TspuVerdictsUniformAcrossVantagePoints) {
  measure::DomainTester tester(scenario);
  auto verdicts = tester.run(scenario.corpus().registry_sample());
  for (const auto& v : verdicts) {
    // Centralized control: all three vantage points agree (§6.3).
    EXPECT_EQ(v.tspu_blocked_anywhere(), v.tspu_blocked_everywhere())
        << v.domain;
  }
}

TEST_F(Survey, TspuOutpacesIspResolversOnRecentAdditions) {
  measure::DomainTester tester(scenario);
  auto verdicts = tester.run(scenario.corpus().registry_sample());
  int tspu = 0;
  std::vector<int> isp(3, 0);
  for (const auto& v : verdicts) {
    if (v.tspu_blocked_anywhere()) ++tspu;
    for (int i = 0; i < 3; ++i) isp[i] += v.isp_blockpage[i];
  }
  // Order: TSPU > ER-Telecom (nearly current) > OBIT > Rostelecom (§6.3).
  EXPECT_GT(tspu, isp[1]);
  EXPECT_GT(isp[1], isp[2]);
  EXPECT_GT(isp[2], isp[0]);
}

TEST_F(Survey, OutRegistryBlockingInvisibleToResolvers) {
  // play.google.com: not in any registry/blocklist, so the ISP resolver
  // answers normally — yet the TSPU kills the TLS connection (the reason
  // Censored Planet misses it while OONI flags it, §5.3.2).
  auto& vp = scenario.vp("ER-Telecom");
  const auto id = ispdpi::send_dns_query(*vp.host, vp.resolver,
                                         "play.google.com", 41999);
  scenario.settle();
  auto answer = ispdpi::read_dns_answer(*vp.host, id);
  ASSERT_TRUE(answer);
  EXPECT_NE(*answer, vp.blockpage);

  auto tls = measure::test_sni(scenario.net(), *vp.host,
                               scenario.us_machine(0).addr(),
                               "play.google.com",
                               measure::ClassifyDepth::kStandard);
  EXPECT_EQ(tls.outcome, measure::SniOutcome::kDelayedDrop);
}

TEST_F(Survey, ResolversAnswerIdenticallyFromInsideAndOutside) {
  // §6.2: "we send queries to them once from the RU vantage points and once
  // from US measurement machines. We find no difference in responses."
  auto& vp = scenario.vp("Rostelecom");
  const auto* blocked = [&]() -> const topo::DomainInfo* {
    for (const auto* d : scenario.corpus().registry_sample()) {
      if (d->registry_added_day <= 10) return d;  // old enough to be synced
    }
    return nullptr;
  }();
  ASSERT_NE(blocked, nullptr);

  const auto id_in = ispdpi::send_dns_query(*vp.host, vp.resolver,
                                            blocked->name, 42001);
  const auto id_out = ispdpi::send_dns_query(scenario.us_machine(0),
                                             vp.resolver, blocked->name, 42002);
  scenario.settle();
  auto from_inside = ispdpi::read_dns_answer(*vp.host, id_in);
  auto from_outside = ispdpi::read_dns_answer(scenario.us_machine(0), id_out);
  ASSERT_TRUE(from_inside);
  ASSERT_TRUE(from_outside);
  EXPECT_EQ(*from_inside, *from_outside);
}

TEST_F(Survey, SniIvProbeIdentifiesBackupTargets) {
  measure::DomainTester tester(scenario);
  auto& vp = scenario.vp("OBIT");
  EXPECT_EQ(tester.probe_sni_iv(vp, "twitter.com"),
            measure::SniOutcome::kFullDrop);
  EXPECT_EQ(tester.probe_sni_iv(vp, "facebook.com"), measure::SniOutcome::kOk);
}

TEST_F(Survey, TopicModelRecoversCategories) {
  measure::TopicModel model;
  // The corpus pages are keyword-generated; the classifier must recover the
  // category from text alone with high accuracy.
  EXPECT_GT(model.accuracy(scenario.corpus()), 0.9);
  util::Rng rng(5);
  EXPECT_EQ(model.classify(
                topo::synth_page_text(topo::Category::kGambling, rng)),
            topo::Category::kGambling);
  EXPECT_EQ(model.classify(""), topo::Category::kErrorPage);
}

// ------------------------------------------------------ residual censorship

TEST_F(Survey, ResidualCensorshipOnSameTuple) {
  // §3: "each test used a fresh source port ... to prevent residual
  // censorship affecting results of subsequent tests." Demonstrate why.
  auto& vp = scenario.vp("ER-Telecom");
  auto& remote = scenario.us_raw_machine();
  auto& net = scenario.net();
  const std::uint16_t port = 35501;

  {
    measure::RawFlow flow(net, *vp.host, remote, port);
    flow.local_trigger("facebook.com");
    flow.settle();
  }
  net.sim().run_for(util::Duration::seconds(10));
  {
    // Same tuple, benign payload, 10 s later: still censored.
    measure::RawFlow flow(net, *vp.host, remote, port);
    flow.local_send(wire::kPshAck, util::to_bytes("benign-on-same-tuple"));
    flow.settle();
    flow.remote_send(wire::kPshAck, util::to_bytes("response"));
    flow.settle();
    EXPECT_TRUE(flow.local_saw_rst_ack());
  }
  {
    // Fresh port at the same instant: clean.
    measure::RawFlow flow(net, *vp.host, remote, port + 1);
    flow.local_send(wire::kPshAck, util::to_bytes("benign-fresh-port"));
    flow.settle();
    flow.remote_send(wire::kPshAck, util::to_bytes("response"));
    flow.settle();
    EXPECT_FALSE(flow.local_saw_rst_ack());
    EXPECT_GT(flow.local_data_segments(), 0);
  }
  net.sim().run_for(util::Duration::seconds(80));  // > SNI-I residual (75 s)
  {
    // The blocking state expired: the tuple is usable again.
    measure::RawFlow flow(net, *vp.host, remote, port);
    flow.local_send(wire::kPshAck, util::to_bytes("after-expiry"));
    flow.settle();
    flow.remote_send(wire::kPshAck, util::to_bytes("response"));
    flow.settle();
    EXPECT_FALSE(flow.local_saw_rst_ack());
  }
}

TEST_F(Survey, BehaviorClassifierHandlesDeadServer) {
  auto& vp = scenario.vp("OBIT");
  // No TLS listener at the raw machine: handshake never completes.
  auto r = measure::test_sni(scenario.net(), *vp.host,
                             scenario.us_raw_machine().addr(), "example.com");
  EXPECT_EQ(r.outcome, measure::SniOutcome::kNoConnection);
}

}  // namespace

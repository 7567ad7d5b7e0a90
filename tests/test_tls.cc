// Unit tests for the TLS ClientHello codec and the Figure-13 field map.
#include <gtest/gtest.h>

#include "tls/clienthello.h"
#include "tls/fuzz.h"

using namespace tspu::tls;
using tspu::util::Bytes;

namespace tspu::tls {

// Found by ADL. Without it gtest names each AlterationSuite case by a byte
// dump of the struct, whose pointers change from run to run.
void PrintTo(const Alteration& alt, std::ostream* os) {
  *os << alt.name << (alt.sni_still_visible ? ": SNI visible" : ": SNI hidden");
}

}  // namespace tspu::tls

namespace {

TEST(ClientHello, BuildAndExtractSni) {
  ClientHelloSpec spec;
  spec.sni = "facebook.com";
  const Bytes ch = build_client_hello(spec);
  auto parsed = parse_client_hello(ch);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->sni, "facebook.com");
  EXPECT_EQ(parsed->record_version, kVersionTls10);
  EXPECT_EQ(parsed->hello_version, kVersionTls12);
  EXPECT_EQ(parsed->cipher_suite_count, spec.cipher_suites.size());
  EXPECT_EQ(extract_sni(ch), "facebook.com");
}

TEST(ClientHello, NoSniExtension) {
  ClientHelloSpec spec;  // empty sni
  auto parsed = parse_client_hello(build_client_hello(spec));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->sni.empty());
  EXPECT_FALSE(extract_sni(build_client_hello(spec)));
}

TEST(ClientHello, SessionIdAndExtraExtensions) {
  ClientHelloSpec spec;
  spec.sni = "example.org";
  spec.session_id = Bytes(32, 0x5a);
  spec.extra_extensions.push_back({0x002b, {0x02, 0x03, 0x04}});
  auto parsed = parse_client_hello(build_client_hello(spec));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->sni, "example.org");
  EXPECT_EQ(parsed->extension_count, 2u);  // server_name + supported_versions
}

TEST(ClientHello, PaddingGrowsRecordAndKeepsSni) {
  ClientHelloSpec spec;
  spec.sni = "a.com";
  spec.pad_to = 1200;
  const Bytes ch = build_client_hello(spec);
  EXPECT_GE(ch.size(), 1200u);
  EXPECT_EQ(extract_sni(ch), "a.com");
}

TEST(ClientHello, RejectsNonHandshakeRecord) {
  ClientHelloSpec spec;
  spec.sni = "x.com";
  Bytes ch = build_client_hello(spec);
  ch[0] = kContentTypeApplicationData;
  EXPECT_FALSE(parse_client_hello(ch));
}

TEST(ClientHello, RejectsTruncated) {
  ClientHelloSpec spec;
  spec.sni = "x.com";
  Bytes ch = build_client_hello(spec);
  ch.resize(ch.size() / 2);
  EXPECT_FALSE(parse_client_hello(ch));
  EXPECT_FALSE(parse_client_hello(Bytes{}));
  EXPECT_FALSE(parse_client_hello(Bytes{0x16}));
}

TEST(ClientHello, RejectsNonTlsVersionMajor) {
  ClientHelloSpec spec;
  spec.sni = "x.com";
  Bytes ch = build_client_hello(spec);
  ch[1] = 0x07;  // absurd record version major
  EXPECT_FALSE(parse_client_hello(ch));
}

TEST(ServerHello, Parses) {
  const Bytes sh = build_server_hello();
  ASSERT_GE(sh.size(), 9u);
  EXPECT_EQ(sh[0], kContentTypeHandshake);
  EXPECT_EQ(sh[5], kHandshakeServerHello);
}

// ---------------------------------------------------- Figure 13 fuzzing

class AlterationSuite
    : public ::testing::TestWithParam<Alteration> {};

TEST_P(AlterationSuite, ParserAgreesWithGroundTruth) {
  const Alteration& alt = GetParam();
  const auto sni = extract_sni(alt.bytes);
  if (alt.sni_still_visible) {
    ASSERT_TRUE(sni.has_value()) << alt.name;
    EXPECT_EQ(*sni, "facebook.com") << alt.name;
  } else {
    EXPECT_TRUE(!sni || *sni != "facebook.com") << alt.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figure13, AlterationSuite,
    ::testing::ValuesIn(alteration_suite("facebook.com")),
    [](const ::testing::TestParamInfo<Alteration>& tpi) {
      return tpi.param.name;
    });

TEST(Figure13, ClassifyBytesShadesStructureAndSni) {
  ClientHelloSpec spec;
  spec.sni = "twitter.com";
  const Bytes ch = build_client_hello(spec);
  const auto classes = classify_bytes(ch);
  ASSERT_EQ(classes.size(), ch.size());

  // The record header's type and length positions are structural.
  EXPECT_EQ(classes[0], FieldClass::kStructural);  // content type
  EXPECT_EQ(classes[3], FieldClass::kStructural);  // record length hi
  EXPECT_EQ(classes[5], FieldClass::kStructural);  // handshake type
  // The 32 "random" bytes are opaque (offset 11..42).
  for (std::size_t i = 11; i < 43; ++i)
    EXPECT_EQ(classes[i], FieldClass::kOpaque) << i;
  // Some byte somewhere carries the SNI data.
  int sni_bytes = 0;
  for (auto c : classes) sni_bytes += c == FieldClass::kSniBytes;
  EXPECT_GE(sni_bytes, static_cast<int>(std::string("twitter.com").size()));
}

}  // namespace

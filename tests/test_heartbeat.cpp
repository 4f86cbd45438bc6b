#include <gtest/gtest.h>

#include "scan/scanner.hpp"
#include "wire/heartbeat.hpp"

namespace tls::wire {
namespace {

TEST(Heartbeat, WellFormedRoundTrip) {
  HeartbeatMessage m;
  m.type = HeartbeatMessageType::kRequest;
  m.payload = {1, 2, 3};
  m.claimed_payload_length = 3;
  const auto bytes = m.serialize_record(0x0303);
  const auto parsed = HeartbeatMessage::parse_record(bytes);
  EXPECT_EQ(parsed.type, HeartbeatMessageType::kRequest);
  EXPECT_EQ(parsed.claimed_payload_length, 3);
  EXPECT_EQ(parsed.payload, m.payload);
  EXPECT_TRUE(parsed.well_formed());
}

TEST(Heartbeat, ProbeIsDeliberatelyMalformed) {
  const auto probe = make_heartbleed_probe(64);
  EXPECT_FALSE(probe.well_formed());
  EXPECT_EQ(probe.claimed_payload_length, probe.payload.size() + 64);
}

TEST(Heartbeat, ParseRejectsNonHeartbeatRecord) {
  Record rec;
  rec.type = ContentType::kHandshake;
  rec.fragment = {1, 0, 3, 1, 2, 3};
  EXPECT_THROW(HeartbeatMessage::parse_record(rec.serialize()), ParseError);
}

TEST(Heartbeat, VulnerableResponderOverReads) {
  std::vector<std::uint8_t> memory(256, 0xEE);
  const HeartbeatResponder responder(/*vulnerable=*/true, memory);
  const auto probe = make_heartbleed_probe(64);
  const auto response = responder.respond(probe.serialize_record(0x0303));
  ASSERT_TRUE(response.has_value());
  const auto parsed = HeartbeatMessage::parse_record(*response);
  EXPECT_EQ(parsed.type, HeartbeatMessageType::kResponse);
  // Leaked bytes come from the synthetic memory buffer.
  ASSERT_EQ(parsed.payload.size(), probe.payload.size() + 64);
  EXPECT_EQ(parsed.payload.back(), 0xEE);
  EXPECT_TRUE(probe_indicates_vulnerable(response));
}

TEST(Heartbeat, PatchedResponderDiscardsSilently) {
  const HeartbeatResponder responder(/*vulnerable=*/false, {});
  const auto probe = make_heartbleed_probe(64);
  const auto response = responder.respond(probe.serialize_record(0x0303));
  EXPECT_FALSE(response.has_value());  // RFC 6520 §4: discard silently
  EXPECT_FALSE(probe_indicates_vulnerable(response));
}

TEST(Heartbeat, PatchedResponderAnswersWellFormedRequests) {
  const HeartbeatResponder responder(/*vulnerable=*/false, {});
  HeartbeatMessage req;
  req.payload = {9, 9};
  req.claimed_payload_length = 2;
  const auto response = responder.respond(req.serialize_record(0x0303));
  ASSERT_TRUE(response.has_value());
  const auto parsed = HeartbeatMessage::parse_record(*response);
  EXPECT_EQ(parsed.payload, req.payload);
  // A well-formed echo must never register as vulnerable.
  EXPECT_FALSE(probe_indicates_vulnerable(response));
}

TEST(Heartbeat, ResponderIgnoresResponsesAndGarbage) {
  const HeartbeatResponder responder(/*vulnerable=*/true,
                                     std::vector<std::uint8_t>(16, 1));
  HeartbeatMessage resp;
  resp.type = HeartbeatMessageType::kResponse;
  resp.claimed_payload_length = 0;
  EXPECT_FALSE(responder.respond(resp.serialize_record(0x0303)).has_value());
  const std::uint8_t garbage[] = {0x17, 0x03, 0x03, 0x00, 0x01, 0x00};
  EXPECT_FALSE(responder.respond(garbage).has_value());
}

}  // namespace
}  // namespace tls::wire

namespace tls::scan {
namespace {

using tls::core::Month;

TEST(HeartbleedProbe, MatchesAnalyticFraction) {
  const auto pop = tls::servers::ServerPopulation::standard();
  const ActiveScanner scanner(pop);
  tls::core::Rng rng(404);
  for (const auto& [y, mo] :
       {std::pair{2014, 3}, std::pair{2014, 6}, std::pair{2016, 6}}) {
    const Month m(y, mo);
    const double analytic = scanner.scan(m).heartbleed_vulnerable;
    const double probed = scanner.heartbleed_probe_fraction(m, 20000, rng);
    EXPECT_NEAR(probed, analytic, 0.02) << m.to_string();
  }
}

TEST(HeartbleedProbe, NonHeartbeatSegmentsNeverVulnerable) {
  const auto pop = tls::servers::ServerPopulation::standard();
  const ActiveScanner scanner(pop);
  tls::core::Rng rng(11);
  const auto* seg = pop.find("web-legacy-cbcfirst");
  ASSERT_NE(seg, nullptr);
  ASSERT_FALSE(seg->config.echo_heartbeat);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(scanner.probe_heartbleed(*seg, Month(2014, 4), rng));
  }
}

}  // namespace
}  // namespace tls::scan

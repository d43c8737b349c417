// Token and session wire-message unit tests: ring operations and
// serialization round trips, including adversarial (malformed) inputs —
// plus live-ring checks that the session metrics agree with the protocol
// (token hops vs. token sequence numbers, ring-size gauge, dwell times).
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "session/messages.h"
#include "session/token.h"
#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using session::Token;

Token sample_token() {
  Token t;
  t.lineage = 0xFEEDFACE;
  t.seq = 99;
  t.view_id = 7;
  t.tbm = true;
  t.merge_target = 4;
  t.ring = {1, 3, 2};
  session::BatchBuilder b(/*origin=*/3, /*incarnation=*/123, /*base_seq=*/55,
                         /*safe=*/true);
  b.add(Slice::copy(Bytes{9, 8, 7}));
  t.batches.push_back(b.finish(/*ring_at_attach=*/3));
  t.batches.back().hops = 2;
  return t;
}

TEST(TokenTest, GroupIdIsLowestMember) {
  Token t;
  t.ring = {5, 2, 9};
  EXPECT_EQ(t.group_id(), 2u);
}

TEST(TokenTest, SuccessorWrapsAround) {
  Token t;
  t.ring = {1, 3, 2};
  EXPECT_EQ(t.successor_of(1), 3u);
  EXPECT_EQ(t.successor_of(3), 2u);
  EXPECT_EQ(t.successor_of(2), 1u);  // wrap
}

TEST(TokenTest, SuccessorOfSingleton) {
  Token t;
  t.ring = {4};
  EXPECT_EQ(t.successor_of(4), 4u);
}

TEST(TokenTest, SuccessorOfNonMemberIsFront) {
  Token t;
  t.ring = {1, 2};
  EXPECT_EQ(t.successor_of(99), 1u);
}

TEST(TokenTest, RemovePreservesOrder) {
  Token t;
  t.ring = {1, 3, 2, 4};
  EXPECT_TRUE(t.remove(2));
  EXPECT_EQ(t.ring, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_FALSE(t.remove(2));
}

TEST(TokenTest, InsertAfterPlacesJoinerCorrectly) {
  Token t;
  t.ring = {1, 2, 3};
  t.insert_after(2, 9);
  EXPECT_EQ(t.ring, (std::vector<NodeId>{1, 2, 9, 3}));
  t.insert_after(3, 8);  // after last element
  EXPECT_EQ(t.ring, (std::vector<NodeId>{1, 2, 9, 3, 8}));
  t.insert_after(77, 6);  // unknown anchor: append
  EXPECT_EQ(t.ring.back(), 6u);
}

TEST(TokenTest, SerializationRoundTrip) {
  Token t = sample_token();
  Slice b = t.encode();
  ByteReader r(b);
  Token out;
  ASSERT_TRUE(Token::deserialize(r, out));
  EXPECT_EQ(out, t);
}

TEST(TokenTest, EmptyTokenRoundTrip) {
  Token t;
  Slice b = t.encode();
  ByteReader r(b);
  Token out;
  ASSERT_TRUE(Token::deserialize(r, out));
  EXPECT_EQ(out, t);
}

TEST(TokenTest, TruncatedBufferFailsDeserialize) {
  Slice b = sample_token().encode();
  for (std::size_t cut : {std::size_t{0}, b.size() / 2, b.size() - 1}) {
    Bytes partial(b.begin(), b.begin() + cut);
    ByteReader r(partial);
    Token out;
    EXPECT_FALSE(Token::deserialize(r, out)) << "cut at " << cut;
  }
}

TEST(TokenTest, HugeCountsRejected) {
  ByteWriter w;
  w.u64(1);   // lineage
  w.u64(1);   // seq
  w.u64(1);   // view
  w.u8(0);    // tbm
  w.u32(0);   // merge target
  w.u32(0xFFFFFFFF);  // absurd ring size
  ByteReader r(w.view());
  Token out;
  EXPECT_FALSE(Token::deserialize(r, out));
}

TEST(SessionMessagesTest, Msg911RoundTrip) {
  session::Msg911 m{42, 7, 12345};
  Slice b = session::encode_911(m);
  session::SessionMsgType type;
  ASSERT_TRUE(session::peek_type(b, type));
  EXPECT_EQ(type, session::SessionMsgType::k911);
  session::Msg911 out;
  ASSERT_TRUE(session::decode_911(b, out));
  EXPECT_EQ(out.requester, 42u);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.last_copy_seq, 12345u);
}

TEST(SessionMessagesTest, Msg911ReplyRoundTrip) {
  session::Msg911Reply m{3, 9, true, 777};
  Slice b = session::encode_911_reply(m);
  session::Msg911Reply out;
  ASSERT_TRUE(session::decode_911_reply(b, out));
  EXPECT_EQ(out.responder, 3u);
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_TRUE(out.granted);
  EXPECT_EQ(out.responder_copy_seq, 777u);
}

TEST(SessionMessagesTest, BodyOdorRoundTrip) {
  session::MsgBodyOdor m{8, 2};
  Slice b = session::encode_bodyodor(m);
  session::MsgBodyOdor out;
  ASSERT_TRUE(session::decode_bodyodor(b, out));
  EXPECT_EQ(out.sender, 8u);
  EXPECT_EQ(out.group_id, 2u);
}

TEST(SessionMessagesTest, TokenMessageRoundTrip) {
  Token t = sample_token();
  Slice b = session::encode_token_msg(t);
  Token out;
  ASSERT_TRUE(session::decode_token_msg(b, out));
  EXPECT_EQ(out, t);
}

TEST(SessionMessagesTest, WrongTypeRejected) {
  Slice b = session::encode_911(session::Msg911{1, 2, 3});
  Token out;
  EXPECT_FALSE(session::decode_token_msg(b, out));
  session::MsgBodyOdor bo;
  EXPECT_FALSE(session::decode_bodyodor(b, bo));
}

TEST(SessionMessagesTest, TrailingGarbageRejected) {
  Bytes b = session::encode_911(session::Msg911{1, 2, 3}).to_bytes();
  b.push_back(0xFF);
  session::Msg911 out;
  EXPECT_FALSE(session::decode_911(Slice::take(std::move(b)), out));
}

TEST(SessionMessagesTest, EmptyPayloadPeekFails) {
  session::SessionMsgType type;
  EXPECT_FALSE(session::peek_type({}, type));
}

// --- Live-ring metric consistency -----------------------------------------

namespace ringmetrics {

/// Steps the simulation in small increments until `id` is EATING.
bool run_until_holder(testing::SimCluster& c, NodeId id) {
  for (int i = 0; i < 200000 && !c.session(id).holds_token(); ++i) {
    c.run(micros(100));
  }
  return c.session(id).holds_token();
}

std::uint64_t total_passed(testing::SimCluster& c) {
  std::uint64_t sum = 0;
  for (NodeId id : c.ids()) sum += c.session(id).stats().tokens_passed.value();
  return sum;
}

}  // namespace ringmetrics

TEST(TokenRingMetrics, TokenHopCountMatchesSeqDelta) {
  // Every hop increments the token's sequence number exactly once and one
  // node's "session.token.passed" counter exactly once, so on a healthy
  // ring (no 911, no merges) the cluster-wide hop count between two
  // sightings of the token at the same node equals the seq delta.
  testing::SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());

  ASSERT_TRUE(ringmetrics::run_until_holder(c, 1));
  std::uint64_t seq_before = c.session(1).last_copy().seq;
  std::uint64_t passed_before = ringmetrics::total_passed(c);
  c.run(seconds(1));
  ASSERT_TRUE(ringmetrics::run_until_holder(c, 1));
  std::uint64_t seq_after = c.session(1).last_copy().seq;
  std::uint64_t passed_after = ringmetrics::total_passed(c);

  EXPECT_GT(seq_after, seq_before) << "token did not advance";
  EXPECT_EQ(seq_after - seq_before, passed_after - passed_before);
  // No recovery traffic should have contributed to the deltas.
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.session(id).stats().regenerations.value(), 0u) << "node " << id;
    EXPECT_EQ(c.session(id).metrics().counter("session.911.rounds").value(), 0u)
        << "node " << id;
  }
}

TEST(TokenRingMetrics, RingSizeGaugeTracksMembership) {
  testing::SimCluster c({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap_via_join());
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.session(id).metrics().gauge("session.ring.size").value(), 4.0)
        << "node " << id;
  }
}

TEST(TokenRingMetrics, StateDwellHistogramsPopulateOnAHealthyRing) {
  testing::SimCluster c({1, 2});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    metrics::Registry& reg = c.session(id).metrics();
    // Both nodes alternate HUNGRY <-> EATING; STARVING never happens here.
    EXPECT_GT(reg.histogram("session.state.eating_dwell_ns").count(), 10u);
    EXPECT_GT(reg.histogram("session.state.hungry_dwell_ns").count(), 10u);
    EXPECT_EQ(reg.histogram("session.state.starving_dwell_ns").count(), 0u);
    EXPECT_GT(reg.histogram("session.token.rotation_ns").count(), 10u);
    // EATING dwell should track the configured hold interval (5 ms).
    double mean = reg.histogram("session.state.eating_dwell_ns").mean();
    EXPECT_NEAR(mean, 5e6, 4e6) << "node " << id;
  }
}

TEST(TokenRingMetrics, SnapshotDiffIsolatesAQuietWindow) {
  // Registry snapshots taken around an idle window (no app traffic) must
  // show zero message deliveries but continued token circulation.
  testing::SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.send(1, "warmup");
  c.run(seconds(1));

  metrics::Snapshot before = c.session(2).metrics().snapshot();
  c.run(seconds(1));
  metrics::Snapshot delta = c.session(2).metrics().snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("session.msgs.delivered"), 0u);
  EXPECT_GT(delta.counters.at("session.token.received"), 10u);
}

}  // namespace
}  // namespace raincore

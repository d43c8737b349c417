// Real-socket driver: the same protocol stack over UDP on loopback.
// These tests use real time and real sockets, so they are kept short and
// use generous assertions; determinism tests live against the simulator.
#include <gtest/gtest.h>

#include <memory>

#include "common/metrics.h"
#include "net/udp_endpoint.h"
#include "net/udp_network.h"
#include "session/session_mux.h"
#include "session/session_node.h"
#include "transport/transport.h"

namespace raincore {
namespace {

TEST(UdpNetworkTest, DatagramRoundTrip) {
  net::UdpConfig cfg;
  cfg.base_port = 46100;
  net::UdpNetwork net(cfg);
  auto& e1 = net.add_node(1);
  auto& e2 = net.add_node(2);
  std::vector<net::Datagram> inbox;
  e2.set_receiver([&](net::Datagram&& d) { inbox.push_back(std::move(d)); });
  e1.send(net::Address{2, 0}, Bytes{1, 2, 3}, 0);
  net.run_for(millis(200));
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].src, (net::Address{1, 0}));
  EXPECT_EQ(inbox[0].payload, (Bytes{1, 2, 3}));
}

TEST(UdpNetworkTest, RefusedSendIsCounted) {
  // A frame over the 65,507-byte UDP payload limit never leaves the host:
  // sendmsg fails with EMSGSIZE, and the endpoint must count the loss
  // instead of dropping it silently.
  net::RealTimeLoop loop;
  net::AddressBook book;
  net::UdpEndpoint ep(loop, book, net::UdpEndpointConfig{});
  const auto failed = [&ep] {
    return ep.metrics().snapshot().counters.at("net.udp.send_failed");
  };
  ep.send(net::Address{0, 0}, Slice::take(Bytes(64, 1)), 0);
  EXPECT_EQ(failed(), 0u);
  ep.send(net::Address{0, 0}, Slice::take(Bytes(70000, 1)), 0);
  EXPECT_EQ(failed(), 1u);
  ep.send(net::Address{0, 0}, Slice::take(Bytes(70000, 2)), 0);
  EXPECT_EQ(failed(), 2u);
}

TEST(UdpNetworkTest, TimersFireInOrder) {
  net::UdpConfig cfg;
  cfg.base_port = 46120;
  net::UdpNetwork net(cfg);
  auto& e1 = net.add_node(1);
  std::vector<int> order;
  e1.schedule(millis(60), [&] { order.push_back(2); });
  e1.schedule(millis(20), [&] { order.push_back(1); });
  net.run_for(millis(200));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UdpNetworkTest, TimerCancel) {
  net::UdpConfig cfg;
  cfg.base_port = 46140;
  net::UdpNetwork net(cfg);
  auto& e1 = net.add_node(1);
  bool ran = false;
  auto id = e1.schedule(millis(20), [&] { ran = true; });
  e1.cancel(id);
  net.run_for(millis(100));
  EXPECT_FALSE(ran);
}

TEST(UdpNetworkTest, ReliableTransportOverRealSockets) {
  net::UdpConfig cfg;
  cfg.base_port = 46160;
  net::UdpNetwork net(cfg);
  auto& e1 = net.add_node(1);
  auto& e2 = net.add_node(2);
  transport::ReliableTransport t1(e1), t2(e2);
  std::vector<Slice> got;
  t2.set_message_handler([&](NodeId, Slice p) { got.push_back(std::move(p)); });
  bool delivered = false;
  t1.send(2, Bytes{9, 9, 9},
          [&](transport::TransferId, NodeId) { delivered = true; });
  net.run_for(millis(300));
  EXPECT_TRUE(delivered);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Bytes{9, 9, 9}));
}

TEST(UdpNetworkTest, SessionGroupFormsOverUdp) {
  net::UdpConfig cfg;
  cfg.base_port = 46200;
  net::UdpNetwork net(cfg);
  session::SessionConfig scfg;
  scfg.token_hold = millis(5);
  scfg.eligible = {1, 2, 3};

  std::map<NodeId, std::unique_ptr<session::SessionNode>> nodes;
  std::map<NodeId, int> delivered;
  for (NodeId id = 1; id <= 3; ++id) {
    nodes[id] = std::make_unique<session::SessionNode>(net.add_node(id), scfg);
    nodes[id]->set_deliver_handler(
        [&delivered, id](NodeId, const Slice&, session::Ordering) {
          delivered[id]++;
        });
  }
  nodes[1]->found();
  nodes[2]->join({1});
  nodes[3]->join({1});
  net.run_for(seconds(2));
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(nodes[id]->view().members.size(), 3u) << "node " << id;
  }
  nodes[2]->multicast(Bytes{42});
  net.run_for(seconds(1));
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(delivered[id], 1) << "node " << id;
  }
}

TEST(UdpNetworkTest, TwoSessionsDemuxOverOneBoundPort) {
  // Multi-session smoke test: each node binds ONE UDP socket and runs two
  // independent rings (demux groups 0 and 1) through a SessionMux over it.
  // Both rings must form full views and deliver independently, and the node
  // must hold exactly one failure-detector state (one unprefixed
  // "transport.rtt_samples" — not one per ring).
  net::UdpConfig cfg;
  cfg.base_port = 46220;
  net::UdpNetwork net(cfg);
  session::SessionConfig scfg;
  scfg.token_hold = millis(5);
  scfg.eligible = {1, 2, 3};

  std::map<NodeId, std::unique_ptr<session::SessionMux>> muxes;
  // delivered[node][group]
  std::map<NodeId, std::map<transport::MuxGroup, int>> delivered;
  for (NodeId id = 1; id <= 3; ++id) {
    muxes[id] = std::make_unique<session::SessionMux>(net.add_node(id));
    for (transport::MuxGroup g : {transport::MuxGroup{0}, transport::MuxGroup{1}}) {
      auto& ring = muxes[id]->create_ring(g, scfg);
      ring.set_deliver_handler(
          [&delivered, id, g](NodeId, const Slice&, session::Ordering) {
            delivered[id][g]++;
          });
    }
  }
  for (transport::MuxGroup g : {transport::MuxGroup{0}, transport::MuxGroup{1}}) {
    muxes[1]->ring(g)->found();
    muxes[2]->ring(g)->join({1});
    muxes[3]->ring(g)->join({1});
  }
  net.run_for(seconds(2));
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(muxes[id]->ring(0)->view().members.size(), 3u) << "node " << id;
    EXPECT_EQ(muxes[id]->ring(1)->view().members.size(), 3u) << "node " << id;
  }

  // One multicast per ring: deliveries stay within their group.
  muxes[2]->ring(0)->multicast(Bytes{1});
  muxes[3]->ring(1)->multicast(Bytes{2});
  muxes[3]->ring(1)->multicast(Bytes{3});
  net.run_for(seconds(1));
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(delivered[id][0], 1) << "node " << id;
    EXPECT_EQ(delivered[id][1], 2) << "node " << id;
  }

  // Single shared detector: exactly one unprefixed transport.rtt_samples,
  // with per-ring session instruments under their group prefixes.
  metrics::Snapshot s = muxes[1]->metrics_snapshot();
  EXPECT_EQ(s.counters.count("transport.rtt_samples"), 1u);
  EXPECT_EQ(s.counters.count("ring0.transport.rtt_samples"), 0u);
  EXPECT_TRUE(s.counters.count("ring0.session.token.received"));
  EXPECT_TRUE(s.counters.count("ring1.session.token.received"));
}

}  // namespace
}  // namespace raincore

// End-to-end determinism: a full protocol scenario (bootstrap, traffic,
// failure, recovery, merge) replays bit-identically from the same seed —
// the property that makes every benchmark and failure test in this repo
// reproducible.
#include <gtest/gtest.h>

#include <sstream>

#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using testing::SimCluster;

std::string run_scenario(std::uint64_t seed) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  ncfg.default_drop = 0.02;
  std::vector<NodeId> ids = {1, 2, 3, 4};
  SimCluster c(ids, {}, ncfg);
  c.session(1).found();
  for (NodeId id : {2, 3, 4}) c.session(id).join({1});
  c.run(seconds(5));
  for (int i = 0; i < 10; ++i) {
    c.send(1 + (i % 4), "m" + std::to_string(i));
    c.run(millis(20));
  }
  c.crash(3);
  c.run(seconds(3));
  c.send(1, "post");
  c.run(seconds(2));

  // Serialise the observable history of node 2.
  std::ostringstream os;
  os << "view:";
  for (NodeId n : c.session(2).view().members) os << n << ",";
  os << " seq:" << c.session(2).last_copy().seq;
  os << " deliveries:";
  for (const auto& d : c.delivered(2)) os << d.origin << ":" << d.payload << ";";
  os << " rx:" << c.session(2).stats().tokens_received.value();
  os << " pkts:" << c.net().totals().pkts_sent.value();
  return os.str();
}

TEST(DeterminismTest, IdenticalSeedsReplayIdentically) {
  std::string a = run_scenario(12345);
  std::string b = run_scenario(12345);
  EXPECT_EQ(a, b) << "simulation is not deterministic";
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  std::string a = run_scenario(12345);
  std::string b = run_scenario(54321);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace raincore

// Hierarchical Raincore demo (the paper's §5 scalability extension): three
// local token rings bridged by a global ring of ring leaders. Cross-ring
// multicast, leader fail-over, and the latency benefit over one flat ring.
//
// Run: ./hierarchy_demo
#include <cstdio>
#include <map>
#include <memory>

#include "net/sim_network.h"
#include "session/hierarchical.h"

using namespace raincore;
using namespace raincore::session;

int main() {
  HierarchyConfig cfg;
  cfg.rings = {{1, 2, 3, 4}, {11, 12, 13, 14}, {21, 22, 23, 24}};
  cfg.session.token_hold = millis(5);

  // One HierarchicalNode per member, each on its own simulated endpoint.
  net::SimNetwork net;
  std::map<NodeId, std::unique_ptr<HierarchicalNode>> nodes;
  for (const auto& ring : cfg.rings) {
    for (NodeId id : ring) {
      nodes[id] = std::make_unique<HierarchicalNode>(net.add_node(id), cfg);
    }
  }
  for (auto& [id, node] : nodes) {
    node->set_deliver_handler([id](NodeId origin, const Slice& p) {
      if (id % 10 == 2) {  // print from one member per ring only
        std::printf("  node %2u <- %2u: %.*s\n", id, origin,
                    static_cast<int>(p.size()), p.data());
      }
    });
  }

  std::printf("== starting 12 nodes in 3 rings of 4 ==\n");
  for (auto& [id, node] : nodes) node->start();
  net.loop().run_for(seconds(5));
  for (auto& [id, node] : nodes) {
    if (node->is_leader()) {
      std::printf("  ring leader: node %u (global ring size %zu)\n", id,
                  node->global_view().members.size());
    }
  }

  std::printf("== cross-ring multicast from node 13 ==\n");
  std::string m1 = "hello from ring 1";
  nodes.at(13)->multicast(Bytes(m1.begin(), m1.end()));
  net.loop().run_for(seconds(2));

  std::printf("== killing ring 0's leader (node 1) ==\n");
  net.set_node_up(1, false);
  nodes.at(1)->stop();
  net.loop().run_for(seconds(8));
  for (auto& [id, node] : nodes) {
    if (node->is_leader()) {
      std::printf("  ring leader now: node %u\n", id);
    }
  }

  std::printf("== cross-ring multicast still works ==\n");
  std::string m2 = "after leader failover";
  nodes.at(22)->multicast(Bytes(m2.begin(), m2.end()));
  net.loop().run_for(seconds(3));

  std::printf("done\n");
  return 0;
}

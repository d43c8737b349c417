// The TOKEN (paper §2.2): the single message that carries the authoritative
// group membership, a per-hop sequence number, and the piggybacked multicast
// messages ("the token is the locomotive for the reliable multicast").
//
// Messages ride the token in BATCHES (RPC-formation style): one origin's
// run of same-ordering-class messages shares a single wire header and a
// single length-prefixed payload area, so the per-hop gather copies one
// contiguous blob per batch instead of one range per message and the
// per-message wire overhead is the 4-byte inner length prefix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"

namespace raincore::session {

/// A coalesced run of multicast messages riding the token as one wire unit:
/// one origin, one ordering class, consecutive sequence numbers (message i
/// carries seq base_seq + i), one hop/retire clock, and ONE payload area of
/// `count` length-prefixed bodies ([u32 len][len bytes] × count).
///
/// The payload slice is the zero-copy handle: built once at attach time,
/// gathered into the token frame as a single blob per hop, and aliased as a
/// sub-view of the inbound datagram on decode. Inner message bodies are
/// opened as aliasing sub-views only at delivery.
struct AttachedBatch {
  NodeId origin = kInvalidNode;
  std::uint32_t incarnation = 0;
  MsgSeq base_seq = 0;       ///< seq of the first message in the batch
  std::uint32_t count = 0;   ///< messages in the batch (wire-rejected if 0)
  bool safe = false;
  std::uint16_t hops = 0;    ///< nodes that have processed this batch
  std::uint16_t ring_at_attach = 0;  ///< ring size when attached
  Slice payload;             ///< count × [u32 len][len bytes]

  MsgSeq last_seq() const { return base_seq + count - 1; }

  /// Structural validation of the inner frame: exactly `count` length
  /// prefixes whose bodies tile the payload with no slack and no overrun.
  /// Decode rejects batches that fail this, so a corrupted inner prefix can
  /// never make a delivery read past the datagram.
  bool well_formed() const;

  /// Visits each inner message body as an aliasing sub-view of `payload`
  /// (fn(index, body)). Requires well_formed().
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint8_t* p = payload.data() + pos;
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                static_cast<std::uint32_t>(p[1]) << 8 |
                                static_cast<std::uint32_t>(p[2]) << 16 |
                                static_cast<std::uint32_t>(p[3]) << 24;
      fn(i, payload.subslice(pos + 4, len));
      pos += 4 + static_cast<std::size_t>(len);
    }
  }

  bool operator==(const AttachedBatch&) const = default;
};

/// Accumulates one origin's same-class message run into a batch frame. The
/// gather here is each message's only copy on the send path: every later
/// token hop copies the finished blob as one contiguous range.
class BatchBuilder {
 public:
  BatchBuilder(NodeId origin, std::uint32_t incarnation, MsgSeq base_seq,
               bool safe)
      : origin_(origin),
        incarnation_(incarnation),
        base_seq_(base_seq),
        safe_(safe) {}

  void add(const Slice& body);
  std::uint32_t count() const { return count_; }
  std::size_t body_bytes() const { return body_bytes_; }
  /// Seals the batch (hops = 0; the attacher's own visit is counted by the
  /// delivery pass, same as the pre-batching protocol).
  AttachedBatch finish(std::uint16_t ring_at_attach);

 private:
  NodeId origin_;
  std::uint32_t incarnation_;
  MsgSeq base_seq_;
  bool safe_;
  std::uint32_t count_ = 0;
  std::size_t body_bytes_ = 0;
  ByteWriter w_;
};

struct Token {
  /// Token lineage: random id minted when a group is founded and re-minted
  /// on every merge. Duplicate/stale-token suppression compares sequence
  /// numbers only within a lineage, so tokens of distinct groups are never
  /// misjudged against each other's sequence space.
  std::uint64_t lineage = 0;
  TokenSeq seq = 0;        ///< incremented on every hop; 911 arbitration key
  std::uint64_t view_id = 0;  ///< incremented on every membership change
  bool tbm = false;        ///< To-Be-Merged flag (paper §2.4)
  NodeId merge_target = kInvalidNode;  ///< BODYODOR sender being merged
  std::vector<NodeId> ring;            ///< membership in ring order
  std::vector<AttachedBatch> batches;  ///< piggybacked multicast batches

  /// Total messages riding the token (sum of batch counts).
  std::size_t msg_count() const {
    std::size_t n = 0;
    for (const AttachedBatch& b : batches) n += b.count;
    return n;
  }
  /// Total batch payload bytes riding the token.
  std::size_t msg_bytes() const {
    std::size_t n = 0;
    for (const AttachedBatch& b : batches) n += b.payload.size();
    return n;
  }

  /// Group ID: by convention the lowest node ID in the membership.
  GroupId group_id() const {
    GroupId g = kInvalidNode;
    for (NodeId n : ring) g = std::min(g, n);
    return g;
  }

  bool has(NodeId n) const {
    return std::find(ring.begin(), ring.end(), n) != ring.end();
  }

  /// Ring successor of n (wraps); n itself if it is the only member.
  NodeId successor_of(NodeId n) const;

  /// Removes a member, preserving ring order. Returns true if removed.
  bool remove(NodeId n);

  /// Inserts `joiner` immediately after `after` in the ring.
  void insert_after(NodeId after, NodeId joiner);

  void serialize(ByteWriter& w) const;
  static bool deserialize(ByteReader& r, Token& out);
  /// Standalone encoding with wire slack (tests/benches; the session path
  /// goes through encode_token_msg which prepends the message type).
  Slice encode() const;

  bool operator==(const Token&) const = default;
};

}  // namespace raincore::session

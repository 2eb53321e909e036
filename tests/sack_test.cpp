// SACK machinery tests: receiver block advertisement, sender scoreboard
// merging, hole scanning, pipe accounting, burst-loss recovery without
// RTOs, and the flat interval lists against the std::map code they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/fault_injection.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/host_agent.hpp"

namespace dynaq {
namespace {

// A two-host pipe with a loss-injection queue on the sender NIC.
struct Pipe {
  sim::Simulator sim;
  std::unique_ptr<net::Host> a, b;
  std::unique_ptr<transport::HostAgent> agent_a, agent_b;
  std::vector<net::Packet> acks_seen;  // sniffed at the sender side

  explicit Pipe(std::set<std::uint64_t> drops = {}) {
    auto nic_a = std::make_unique<net::Port>(
        sim, 1e9, microseconds(std::int64_t{50}),
        std::make_unique<net::DeterministicLossQueue>(std::move(drops)));
    auto nic_b = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                             std::make_unique<net::DropTailQueue>());
    net::connect(*nic_a, *nic_b);
    a = std::make_unique<net::Host>(sim, 0, std::move(nic_a));
    b = std::make_unique<net::Host>(sim, 1, std::move(nic_b));
    agent_a = std::make_unique<transport::HostAgent>(*a);
    agent_b = std::make_unique<transport::HostAgent>(*b);
  }
};

transport::FlowParams flow_of(std::int64_t bytes) {
  transport::FlowParams p;
  p.id = 1;
  p.src_host = 0;
  p.dst_host = 1;
  p.size_bytes = bytes;
  p.rto_min = milliseconds(std::int64_t{10});
  return p;
}

TEST(SackReceiver, AdvertisesOutOfOrderBlocks) {
  Pipe pipe({1});  // drop the 2nd data packet
  const auto params = flow_of(14'600);
  pipe.agent_b->add_receiver(params);
  // Sniff ACKs by wrapping the sender host's handler before the agent's
  // sender consumes them: instead, inspect via scoreboard below. Here we
  // directly check the receiver's behaviour through a custom host handler.
  bool saw_sack = false;
  pipe.a->set_packet_handler([&](net::Packet&& p) {
    if (p.is_ack() && p.num_sack > 0) {
      saw_sack = true;
      EXPECT_GT(p.sack[0].start, p.seq) << "SACK blocks lie above the cumulative ACK";
      EXPECT_GT(p.sack[0].end, p.sack[0].start);
    }
  });
  // Drive the receiver manually with out-of-order data.
  auto& rx = pipe.agent_b->add_receiver([] {
    transport::FlowParams q;
    q.id = 2;
    q.src_host = 0;
    q.dst_host = 1;
    q.size_bytes = 10'000;
    return q;
  }());
  net::Packet seg = net::make_data_packet(2, 0, 1, 2'000, 1'000);  // hole at [0,2000)
  rx.on_data(seg);
  pipe.sim.run();
  EXPECT_TRUE(saw_sack);
  EXPECT_EQ(rx.rcv_nxt(), 0u);
}

TEST(SackSender, ScoreboardTracksBlocks) {
  Pipe pipe;
  auto& tx = pipe.agent_a->add_sender(flow_of(0));
  // Feed crafted ACKs directly.
  net::Packet ack = net::make_ack_packet(1, 1, 0, 0);
  ack.num_sack = 2;
  ack.sack[0] = {3'000, 4'500};
  ack.sack[1] = {6'000, 7'500};
  tx.start();
  pipe.sim.run_until(microseconds(std::int64_t{1}));  // emit initial window
  tx.on_ack(ack);
  EXPECT_EQ(tx.sacked_bytes(), 3'000);
  EXPECT_EQ(tx.highest_sacked(), 7'500u);

  // Overlapping block merges.
  net::Packet ack2 = net::make_ack_packet(1, 1, 0, 0);
  ack2.num_sack = 1;
  ack2.sack[0] = {4'000, 6'500};
  tx.on_ack(ack2);
  EXPECT_EQ(tx.sacked_bytes(), 4'500);  // [3000,7500) contiguous
}

TEST(SackSender, CumulativeAckPrunesScoreboard) {
  Pipe pipe;
  auto& tx = pipe.agent_a->add_sender(flow_of(0));
  tx.start();
  pipe.sim.run_until(microseconds(std::int64_t{1}));
  net::Packet ack = net::make_ack_packet(1, 1, 0, 0);
  ack.num_sack = 1;
  ack.sack[0] = {3'000, 6'000};
  tx.on_ack(ack);
  ASSERT_EQ(tx.sacked_bytes(), 3'000);

  net::Packet cum = net::make_ack_packet(1, 1, 0, 4'500);
  tx.on_ack(cum);
  EXPECT_EQ(tx.sacked_bytes(), 1'500) << "bytes below snd_una must be pruned";
  EXPECT_EQ(tx.snd_una(), 4'500u);
}

TEST(SackEndToEnd, BurstLossRecoversWithoutTimeout) {
  // Drop 5 of the first 10 packets: NewReno without SACK would need ~5
  // partial-ACK rounds or an RTO; SACK recovery refills all holes fast.
  Pipe pipe({2, 4, 5, 7, 8});
  const auto params = flow_of(100'000);
  Time done = -1;
  pipe.agent_b->add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  ASSERT_GT(done, 0);
  EXPECT_EQ(tx.stats().timeouts, 0u) << "SACK must recover the burst without RTO";
  EXPECT_LT(to_milliseconds(done), 5.0);
  EXPECT_GE(tx.stats().retransmissions, 5u);
  EXPECT_LE(tx.stats().retransmissions, 8u) << "no spurious mass retransmission";
}

TEST(SackEndToEnd, ManySeedsNeverStall) {
  // Property sweep: random loss patterns must never wedge the connection.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    std::set<std::uint64_t> drops;
    for (int i = 0; i < 8; ++i) {
      drops.insert(static_cast<std::uint64_t>(rng.uniform_int(0, 60)));
    }
    Pipe pipe(drops);
    const auto params = flow_of(80'000);
    Time done = -1;
    pipe.agent_b->add_receiver(params).on_complete =
        [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
    pipe.agent_a->add_sender(params).start();
    pipe.sim.run_until(seconds(std::int64_t{30}));
    ASSERT_GT(done, 0) << "seed " << seed << " stalled";
  }
}

// ------------------------------------- flat interval lists vs std::map --
//
// FlowReceiver's out-of-order buffer and FlowSender's scoreboard are sorted
// flat vectors. The models below are the std::map code they replaced, kept
// verbatim as the reference: seeded random segment orders with duplicates
// and overlaps must leave both implementations in the same state.

struct MapReceiver {
  std::uint64_t rcv_nxt = 0;
  std::map<std::uint64_t, std::uint64_t> out_of_order;

  void insert_segment(std::uint64_t seq, std::uint64_t end) {
    if (end <= rcv_nxt) return;
    seq = std::max(seq, rcv_nxt);
    auto it = out_of_order.lower_bound(seq);
    if (it != out_of_order.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= seq) {
        seq = prev->first;
        end = std::max(end, prev->second);
        it = out_of_order.erase(prev);
      }
    }
    while (it != out_of_order.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = out_of_order.erase(it);
    }
    out_of_order[seq] = end;
    auto head = out_of_order.begin();
    while (head != out_of_order.end() && head->first <= rcv_nxt) {
      rcv_nxt = std::max(rcv_nxt, head->second);
      head = out_of_order.erase(head);
    }
  }
};

struct MapScoreboard {
  std::map<std::uint64_t, std::uint64_t> sacked;

  void merge(const net::Packet& ack, std::uint64_t snd_una) {
    for (int i = 0; i < ack.num_sack; ++i) {
      std::uint64_t start = ack.sack[i].start;
      std::uint64_t end = ack.sack[i].end;
      if (end <= snd_una || end <= start) continue;
      start = std::max(start, snd_una);
      auto it = sacked.lower_bound(start);
      if (it != sacked.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
          start = prev->first;
          end = std::max(end, prev->second);
          it = sacked.erase(prev);
        }
      }
      while (it != sacked.end() && it->first <= end) {
        end = std::max(end, it->second);
        it = sacked.erase(it);
      }
      sacked[start] = end;
    }
    while (!sacked.empty() && sacked.begin()->second <= snd_una) sacked.erase(sacked.begin());
    if (!sacked.empty() && sacked.begin()->first < snd_una) {
      auto node = sacked.extract(sacked.begin());
      if (node.mapped() > snd_una) sacked[snd_una] = node.mapped();
    }
  }

  std::int64_t sacked_bytes() const {
    std::int64_t total = 0;
    for (const auto& [start, end] : sacked) total += static_cast<std::int64_t>(end - start);
    return total;
  }

  std::uint64_t highest_sacked(std::uint64_t snd_una) const {
    return sacked.empty() ? snd_una : sacked.rbegin()->second;
  }

  std::int64_t unsacked_in(std::uint64_t lo, std::uint64_t hi) const {
    if (hi <= lo) return 0;
    std::int64_t covered = 0;
    for (const auto& [start, end] : sacked) {
      const std::uint64_t s = std::max(start, lo);
      const std::uint64_t e = std::min(end, hi);
      if (e > s) covered += static_cast<std::int64_t>(e - s);
    }
    return static_cast<std::int64_t>(hi - lo) - covered;
  }

  std::optional<std::uint64_t> next_hole(std::uint64_t from, std::uint64_t snd_una) const {
    const std::uint64_t limit = highest_sacked(snd_una);
    std::uint64_t pos = std::max(from, snd_una);
    for (const auto& [start, end] : sacked) {
      if (end <= pos) continue;
      if (start > pos) break;
      pos = end;
    }
    if (pos >= limit) return std::nullopt;
    return pos;
  }

  std::int64_t pipe_bytes(std::uint64_t snd_una, std::uint64_t snd_nxt,
                          std::uint64_t rtx_next) const {
    const auto outstanding = static_cast<std::int64_t>(snd_nxt - snd_una);
    const std::uint64_t hs = highest_sacked(snd_una);
    const std::int64_t lost_or_resent = unsacked_in(snd_una, hs);
    const std::int64_t resent = unsacked_in(snd_una, std::min(rtx_next, hs));
    return outstanding - sacked_bytes() - (lost_or_resent - resent);
  }
};

// Records every packet a NIC is asked to send (here: the receiver's ACKs).
class SniffQueue final : public net::QueueDisc {
 public:
  explicit SniffQueue(std::vector<net::Packet>& sent) : sent_(sent) {}
  bool enqueue(net::Packet&& p) override {
    sent_.push_back(p);
    return inner_.enqueue(std::move(p));
  }
  std::optional<net::Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }

 private:
  std::vector<net::Packet>& sent_;
  net::DropTailQueue inner_;
};

TEST(SackIntervals, ReceiverMatchesMapModel) {
  constexpr std::uint64_t kMss = 1'460;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    sim::Simulator sim;
    std::vector<net::Packet> acks;
    net::Host host(sim, 1,
                   std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<SniffQueue>(acks)));
    transport::FlowReceiver rx(sim, host, flow_of(0));  // unbounded: acks every segment
    MapReceiver model;
    for (int step = 0; step < 400; ++step) {
      // In-order segments, segments a few MSS ahead (holes), duplicates at
      // or below the cumulative point, and odd-sized overlapping ranges.
      const std::uint64_t at = model.rcv_nxt;
      std::uint64_t seq = at;
      std::uint64_t len = kMss;
      const double pick = rng.uniform();
      if (pick < 0.25) {
        seq = at;
      } else if (pick < 0.65) {
        seq = at + kMss * static_cast<std::uint64_t>(rng.uniform_int(1, 8));
      } else if (pick < 0.8) {
        seq = at - std::min<std::uint64_t>(at, static_cast<std::uint64_t>(rng.uniform_int(0, 3'000)));
      } else {
        seq = at + static_cast<std::uint64_t>(rng.uniform_int(0, 12'000));
        len = static_cast<std::uint64_t>(rng.uniform_int(1, 4'000));
      }
      rx.on_data(net::make_data_packet(1, 0, 1, seq, static_cast<std::int32_t>(len)));
      model.insert_segment(seq, seq + len);

      ASSERT_EQ(rx.rcv_nxt(), model.rcv_nxt) << "step " << step;
      ASSERT_EQ(acks.size(), static_cast<std::size_t>(step) + 1);
      const net::Packet& ack = acks.back();
      EXPECT_EQ(ack.seq, model.rcv_nxt);
      const auto blocks = std::min<std::size_t>(model.out_of_order.size(), net::kMaxSackBlocks);
      ASSERT_EQ(ack.num_sack, blocks) << "step " << step;
      auto it = model.out_of_order.begin();
      for (std::size_t b = 0; b < blocks; ++b, ++it) {
        EXPECT_EQ(ack.sack[b].start, it->first) << "step " << step << " block " << b;
        EXPECT_EQ(ack.sack[b].end, it->second) << "step " << step << " block " << b;
      }
    }
  }
}

TEST(SackIntervals, SenderScoreboardMatchesMapModel) {
  constexpr std::int64_t kMss = 1'460;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    Pipe pipe;
    auto& tx = pipe.agent_a->add_sender(flow_of(0));
    tx.start();
    pipe.sim.run_until(microseconds(std::int64_t{1}));  // initial window; no timer fires after
    MapScoreboard model;
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t una = tx.snd_una();
      const std::uint64_t nxt = tx.snd_nxt();
      const auto flight = static_cast<std::int64_t>(nxt - una);
      // Half dupACKs (recovery entry, hole filling), half advances.
      const std::uint64_t ack_seq =
          rng.uniform() < 0.5
              ? una
              : una + static_cast<std::uint64_t>(std::min(flight, kMss * rng.uniform_int(1, 4)));
      net::Packet ack = net::make_ack_packet(1, 1, 0, ack_seq);
      ack.num_sack = static_cast<std::uint8_t>(rng.uniform_int(0, net::kMaxSackBlocks));
      for (int b = 0; b < ack.num_sack; ++b) {
        // Blocks above the cumulative point, overlapping each other and
        // earlier ones; some start below it, some are empty.
        const auto room = static_cast<std::int64_t>(nxt - ack_seq);
        const auto below = static_cast<std::int64_t>(std::min<std::uint64_t>(ack_seq, 3'000));
        const auto back = rng.uniform() < 0.1 ? rng.uniform_int(0, below) : 0;
        const auto ahead = rng.uniform_int(0, room);
        const std::uint64_t start =
            ack_seq - static_cast<std::uint64_t>(back) + static_cast<std::uint64_t>(ahead);
        const std::uint64_t end = std::min<std::uint64_t>(
            nxt, start + static_cast<std::uint64_t>(rng.uniform_int(0, 4 * kMss)));
        ack.sack[b] = net::SackBlock{start, end};
      }
      const bool merges = ack_seq > una || (ack_seq == una && nxt > una);
      tx.on_ack(ack);
      if (merges) model.merge(ack, tx.snd_una());

      const std::uint64_t now_una = tx.snd_una();
      ASSERT_EQ(tx.sacked_bytes(), model.sacked_bytes()) << "step " << step;
      ASSERT_EQ(tx.highest_sacked(), model.highest_sacked(now_una)) << "step " << step;
      ASSERT_EQ(tx.pipe_bytes(), model.pipe_bytes(now_una, tx.snd_nxt(), tx.rtx_next()))
          << "step " << step;
      const std::uint64_t probe =
          now_una + static_cast<std::uint64_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(tx.snd_nxt() - now_una)));
      for (const std::uint64_t from : {std::uint64_t{0}, now_una, tx.rtx_next(), probe}) {
        ASSERT_EQ(tx.next_hole(from), model.next_hole(from, now_una))
            << "step " << step << " from " << from;
      }
    }
  }
}

}  // namespace
}  // namespace dynaq

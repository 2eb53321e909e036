// Tests for the packet tracer.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/node.hpp"
#include "net/packet_trace.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"
#include "transport/host_agent.hpp"

namespace dynaq {
namespace {

struct Pipe {
  sim::Simulator sim;
  std::unique_ptr<net::Host> a, b;
  std::unique_ptr<transport::HostAgent> agent_a, agent_b;

  Pipe() {
    auto nic_a = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                             std::make_unique<net::DropTailQueue>());
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
  return p;
}

// ------------------------------------------------------------- tracer --

TEST(PacketTracer, RecordsTransmitAndDeliverWithTimestamps) {
  Pipe pipe;
  telemetry::Hub hub(pipe.sim);
  net::PacketTracer tracer(hub);
  tracer.attach(pipe.a->nic(), "h0.nic");

  const auto params = flow_of(1'460);
  pipe.agent_b->add_receiver(params);
  pipe.agent_a->add_sender(params).start();
  pipe.sim.run();

  // One data packet transmitted from h0; its ACK delivered back to h0.
  ASSERT_GE(tracer.events().size(), 2u);
  const auto& tx = tracer.events().front();
  EXPECT_TRUE(tx.transmit);
  EXPECT_FALSE(tx.is_ack);
  EXPECT_EQ(tx.point, "h0.nic");
  EXPECT_EQ(tx.size, 1'500);
  bool saw_ack_rx = false;
  for (const auto& e : tracer.events()) {
    if (!e.transmit && e.is_ack) {
      saw_ack_rx = true;
      EXPECT_EQ(e.seq, 1'460u);
      EXPECT_GT(e.when, tx.when);
    }
  }
  EXPECT_TRUE(saw_ack_rx);
}

TEST(PacketTracer, FlowFilterExcludesOthers) {
  Pipe pipe;
  telemetry::Hub hub(pipe.sim);
  net::PacketTracer tracer(hub);
  tracer.filter_flow(2);
  tracer.attach(pipe.a->nic(), "h0");
  for (std::uint32_t id = 1; id <= 3; ++id) {
    transport::FlowParams params = flow_of(1'460);
    params.id = id;
    pipe.agent_b->add_receiver(params);
    pipe.agent_a->add_sender(params).start();
  }
  pipe.sim.run();
  ASSERT_FALSE(tracer.events().empty());
  for (const auto& e : tracer.events()) EXPECT_EQ(e.flow, 2u);
}

TEST(PacketTracer, PrintsHumanReadableLines) {
  Pipe pipe;
  telemetry::Hub hub(pipe.sim);
  net::PacketTracer tracer(hub);
  tracer.attach(pipe.a->nic(), "h0");
  const auto params = flow_of(1'460);
  pipe.agent_b->add_receiver(params);
  pipe.agent_a->add_sender(params).start();
  pipe.sim.run();
  std::ostringstream os;
  tracer.print(os);
  EXPECT_NE(os.str().find("h0 tx DATA flow=1 seq=0 size=1500"), std::string::npos);
}

TEST(PacketTracer, TwoTracersOnOneHubBothRecord) {
  // The bus fans out to every subscriber; with the old per-port callback
  // design the second tracer silently clobbered the first.
  Pipe pipe;
  telemetry::Hub hub(pipe.sim);
  net::PacketTracer all(hub);
  net::PacketTracer only_flow2(hub);
  only_flow2.filter_flow(2);
  all.attach(pipe.a->nic(), "h0");
  for (std::uint32_t id = 1; id <= 3; ++id) {
    transport::FlowParams params = flow_of(1'460);
    params.id = id;
    pipe.agent_b->add_receiver(params);
    pipe.agent_a->add_sender(params).start();
  }
  pipe.sim.run();
  ASSERT_FALSE(all.events().empty());
  ASSERT_FALSE(only_flow2.events().empty());
  EXPECT_GT(all.events().size(), only_flow2.events().size());
  for (const auto& e : only_flow2.events()) EXPECT_EQ(e.flow, 2u);
}

}  // namespace
}  // namespace dynaq

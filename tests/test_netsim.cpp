// Tests for the discrete-event simulator and the collective schedule
// generators: analytic timing checks, deadlock detection, and the
// qualitative behaviours the paper's figures rest on (ring sequentializes
// an outlier; binned alltoallw is insensitive to system size).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "netsim/programs.hpp"
#include "netsim/sim.hpp"

namespace {

using namespace nncomm::sim;

ClusterConfig tiny_cluster(int n) {
    ClusterConfig c = make_uniform_cluster(n);
    c.latency_us = 10.0;
    c.overhead_us = 1.0;
    c.us_per_byte = 0.001;  // 1 ms per MB
    return c;
}

TEST(Simulator, ComputeOnly) {
    auto c = tiny_cluster(2);
    Simulator sim(c);
    std::vector<RankProgram> progs{{Op::compute(5.0)}, {Op::compute(7.5)}};
    auto r = sim.run(progs);
    EXPECT_DOUBLE_EQ(r.finish_us[0], 5.0);
    EXPECT_DOUBLE_EQ(r.finish_us[1], 7.5);
    EXPECT_DOUBLE_EQ(r.makespan_us, 7.5);
    EXPECT_EQ(r.messages, 0u);
}

TEST(Simulator, SingleMessageTiming) {
    auto c = tiny_cluster(2);
    Simulator sim(c);
    std::vector<RankProgram> progs{{Op::send(1, 0, 1000)}, {Op::recv(0, 0)}};
    auto r = sim.run(progs);
    // Sender: o + bytes*G = 1 + 1 = 2. Arrival: 2 + L = 12. Receiver:
    // max(0, 12) + o = 13.
    EXPECT_DOUBLE_EQ(r.finish_us[0], 2.0);
    EXPECT_DOUBLE_EQ(r.finish_us[1], 13.0);
    EXPECT_EQ(r.messages, 1u);
    EXPECT_EQ(r.bytes, 1000u);
}

TEST(Simulator, ReceiverAlreadyBusy) {
    auto c = tiny_cluster(2);
    Simulator sim(c);
    std::vector<RankProgram> progs{{Op::send(1, 0, 0)},
                                   {Op::compute(100.0), Op::recv(0, 0)}};
    auto r = sim.run(progs);
    // Arrival at 1 + 10 = 11, but receiver busy until 100: 100 + 1 = 101.
    EXPECT_DOUBLE_EQ(r.finish_us[1], 101.0);
}

TEST(Simulator, FifoMatchingPerPair) {
    auto c = tiny_cluster(2);
    Simulator sim(c);
    // Two sends same tag: first has 1000 bytes, second 0. FIFO means the
    // first recv gets the slow (large) one.
    std::vector<RankProgram> progs{{Op::send(1, 0, 10000), Op::send(1, 0, 0)},
                                   {Op::recv(0, 0), Op::recv(0, 0)}};
    auto r = sim.run(progs);
    // Send1 done at 1+10=11, arrival 21. Send2 done at 12, arrival 22.
    // Recv1: 21+1=22; Recv2: max(22,22)+1 = 23.
    EXPECT_DOUBLE_EQ(r.finish_us[1], 23.0);
}

TEST(Simulator, SpeedScalesComputeAndOverhead) {
    auto c = tiny_cluster(2);
    c.speed = {1.0, 0.5};
    Simulator sim(c);
    std::vector<RankProgram> progs{{Op::compute(10.0)}, {Op::compute(10.0)}};
    auto r = sim.run(progs);
    EXPECT_DOUBLE_EQ(r.finish_us[0], 10.0);
    EXPECT_DOUBLE_EQ(r.finish_us[1], 20.0);
}

TEST(Simulator, DeadlockDetected) {
    auto c = tiny_cluster(2);
    Simulator sim(c);
    std::vector<RankProgram> progs{{Op::recv(1, 0)}, {Op::recv(0, 0)}};
    EXPECT_THROW(sim.run(progs), nncomm::Error);
}

TEST(Simulator, MismatchedProgramCountRejected) {
    Simulator sim(tiny_cluster(3));
    std::vector<RankProgram> progs(2);
    EXPECT_THROW(sim.run(progs), nncomm::Error);
}

TEST(Simulator, PingPongChainIsDeterministic) {
    auto c = tiny_cluster(4);
    Simulator sim(c);
    // 0 -> 1 -> 2 -> 3 token pass.
    std::vector<RankProgram> progs(4);
    progs[0] = {Op::send(1, 0, 8)};
    progs[1] = {Op::recv(0, 0), Op::send(2, 0, 8)};
    progs[2] = {Op::recv(1, 0), Op::send(3, 0, 8)};
    progs[3] = {Op::recv(2, 0)};
    auto r1 = sim.run(progs);
    auto r2 = sim.run(progs);
    EXPECT_EQ(r1.finish_us, r2.finish_us);
    // Each hop: send ~1.008, +10 latency, +1 recv overhead.
    EXPECT_NEAR(r1.finish_us[3], 3 * (1.0 + 8 * 0.001 + 10.0 + 1.0), 1e-9);
}

// ---------------------------------------------------------------------------
// cost model

TEST(Simulator, RendezvousBoundaryMatchesRuntimeContract) {
    // The shared contract across comm.cpp / persistent.cpp / schedule.cpp
    // / sim.cpp: rendezvous iff bytes > 0 AND bytes >= threshold. Pin the
    // exact 32 KiB boundary and the zero-byte-at-threshold-0 corner.
    constexpr std::uint64_t kT = 32 * 1024;
    auto run_one = [](std::uint64_t bytes, std::uint64_t threshold) {
        auto c = tiny_cluster(2);
        c.rendezvous_threshold = threshold;
        Simulator sim(c);
        std::vector<RankProgram> progs{{Op::send(1, 0, bytes)}, {Op::recv(0, 0)}};
        return sim.run(progs).rendezvous_messages;
    };
    EXPECT_EQ(run_one(kT - 1, kT), 0u);  // below: eager
    EXPECT_EQ(run_one(kT, kT), 1u);      // exactly at: rendezvous
    EXPECT_EQ(run_one(kT + 1, kT), 1u);  // above: rendezvous
    // Threshold 0: every nonempty message is rendezvous, but a zero-byte
    // message never is (the runtime's try_rendezvous rejects total == 0 —
    // the simulator must not charge a handshake the runtime never pays).
    EXPECT_EQ(run_one(1, 0), 1u);
    EXPECT_EQ(run_one(0, 0), 0u);
}

TEST(CostModel, DualIsLinearInBytes) {
    auto c = make_uniform_cluster(2);
    const double t1 = pack_cost_dual_us(c, 1 << 16, 24.0);
    const double t2 = pack_cost_dual_us(c, 1 << 17, 24.0);
    EXPECT_NEAR(t2 / t1, 2.0, 0.01);
}

TEST(CostModel, SingleIsQuadraticInBytes) {
    auto c = make_uniform_cluster(2);
    // Far above one pipeline chunk so the re-search term dominates.
    const double t1 = pack_cost_single_us(c, 8 << 20, 24.0);
    const double t2 = pack_cost_single_us(c, 16 << 20, 24.0);
    EXPECT_GT(t2 / t1, 3.0);
    EXPECT_LT(t2 / t1, 4.5);
}

TEST(CostModel, SingleEqualsDualBelowOneChunk) {
    auto c = make_uniform_cluster(2);
    // A message smaller than the pipeline chunk needs no re-search.
    EXPECT_DOUBLE_EQ(pack_cost_single_us(c, 1000, 24.0), pack_cost_dual_us(c, 1000, 24.0));
}

TEST(CostModel, ZeroBytesCostNothing) {
    auto c = make_uniform_cluster(2);
    EXPECT_DOUBLE_EQ(pack_cost_single_us(c, 0, 24.0), 0.0);
    EXPECT_DOUBLE_EQ(pack_cost_dual_us(c, 0, 24.0), 0.0);
    EXPECT_DOUBLE_EQ(pack_cost_us(c, PackModel::Contiguous, 1 << 20, 24.0), 0.0);
}

// ---------------------------------------------------------------------------
// allgatherv schedules

AllgathervWorkload outlier_workload(int n, std::uint64_t big) {
    AllgathervWorkload wl;
    wl.volumes.assign(static_cast<std::size_t>(n), 8);
    wl.volumes[0] = big;
    return wl;
}

TEST(AllgathervSchedule, AllAlgorithmsDeliverSameMessageVolume) {
    const int n = 8;
    auto c = make_uniform_cluster(n);
    Simulator sim(c);
    AllgathervWorkload wl = outlier_workload(n, 32 * 1024);
    const std::uint64_t payload =
        std::accumulate(wl.volumes.begin(), wl.volumes.end(), std::uint64_t{0});
    for (auto s : {GathervSchedule::Ring, GathervSchedule::RecursiveDoubling,
                   GathervSchedule::Dissemination}) {
        auto r = sim.run(allgatherv_program(c, wl, s));
        // Every rank must end up having received total - own bytes; summed
        // over ranks the wire moves exactly (n-1) * total payload bytes.
        EXPECT_EQ(r.bytes, (n - 1) * payload) << static_cast<int>(s);
    }
}

TEST(AllgathervSchedule, RingSequentializesOutlier) {
    // The paper's Fig. 8/14 behaviour: with one large outlier message, ring
    // time grows linearly with N while recursive doubling grows ~log N.
    const std::uint64_t big = 32 * 1024;
    auto time_of = [&](int n, GathervSchedule s) {
        auto c = make_uniform_cluster(n);
        Simulator sim(c);
        return sim.run(allgatherv_program(c, outlier_workload(n, big), s)).makespan_us;
    };
    const double ring16 = time_of(16, GathervSchedule::Ring);
    const double ring64 = time_of(64, GathervSchedule::Ring);
    const double rd16 = time_of(16, GathervSchedule::RecursiveDoubling);
    const double rd64 = time_of(64, GathervSchedule::RecursiveDoubling);
    // Ring scales ~4x from 16 to 64 ranks; recursive doubling only ~1.5x.
    EXPECT_GT(ring64 / ring16, 3.0);
    EXPECT_LT(rd64 / rd16, 2.2);
    // And recursive doubling beats ring outright at 64 ranks.
    EXPECT_LT(rd64, ring64 / 2.0);
}

TEST(AllgathervSchedule, AutoPicksBinomialForOutlierSet) {
    const int n = 64;
    auto c = make_uniform_cluster(n);
    Simulator sim(c);
    AllgathervWorkload wl = outlier_workload(n, 32 * 1024);
    const double t_auto = sim.run(allgatherv_program(c, wl, GathervSchedule::Auto)).makespan_us;
    const double t_rd =
        sim.run(allgatherv_program(c, wl, GathervSchedule::RecursiveDoubling)).makespan_us;
    EXPECT_DOUBLE_EQ(t_auto, t_rd);
}

TEST(AllgathervSchedule, AutoPicksRingForLargeUniformSet) {
    const int n = 16;
    auto c = make_uniform_cluster(n);
    Simulator sim(c);
    AllgathervWorkload wl;
    wl.volumes.assign(n, 64 * 1024);  // 1 MB total, uniform
    const double t_auto = sim.run(allgatherv_program(c, wl, GathervSchedule::Auto)).makespan_us;
    const double t_ring = sim.run(allgatherv_program(c, wl, GathervSchedule::Ring)).makespan_us;
    EXPECT_DOUBLE_EQ(t_auto, t_ring);
}

TEST(AllgathervSchedule, DisseminationHandlesNonPowerOfTwo) {
    for (int n : {3, 5, 6, 7, 12, 100}) {
        auto c = make_uniform_cluster(n);
        Simulator sim(c);
        AllgathervWorkload wl = outlier_workload(n, 4096);
        auto r = sim.run(allgatherv_program(c, wl, GathervSchedule::Dissemination));
        const std::uint64_t payload =
            std::accumulate(wl.volumes.begin(), wl.volumes.end(), std::uint64_t{0});
        EXPECT_EQ(r.bytes, static_cast<std::uint64_t>(n - 1) * payload) << n;
    }
}

// ---------------------------------------------------------------------------
// alltoallw schedules

TEST(AlltoallwSchedule, RoundRobinCostGrowsWithSystemSize) {
    // Zero-size round-robin synchronization: even with only two real
    // neighbors, the baseline's cost grows with N; binned stays flat.
    auto time_of = [&](int n, AlltoallwSchedule s) {
        auto c = make_uniform_cluster(n);
        Simulator sim(c);
        auto wl = make_ring_neighbor_workload(n, 800);
        return sim.run(alltoallw_program(c, wl, s)).makespan_us;
    };
    const double rr8 = time_of(8, AlltoallwSchedule::RoundRobin);
    const double rr64 = time_of(64, AlltoallwSchedule::RoundRobin);
    const double b8 = time_of(8, AlltoallwSchedule::Binned);
    const double b64 = time_of(64, AlltoallwSchedule::Binned);
    EXPECT_GT(rr64, rr8 * 4.0);
    EXPECT_LT(b64, b8 * 1.5);
    EXPECT_LT(b64, rr64 / 4.0);
}

TEST(AlltoallwSchedule, BinnedMovesSameBytes) {
    const int n = 12;
    auto c = make_uniform_cluster(n);
    Simulator sim(c);
    auto wl = make_ring_neighbor_workload(n, 800);
    auto r_rr = sim.run(alltoallw_program(c, wl, AlltoallwSchedule::RoundRobin));
    auto r_b = sim.run(alltoallw_program(c, wl, AlltoallwSchedule::Binned));
    EXPECT_EQ(r_b.bytes, r_rr.bytes);
    // Round-robin sends a (zero-byte) message to every peer; binned only to
    // real neighbors.
    EXPECT_EQ(r_rr.messages, static_cast<std::uint64_t>(n) * (n - 1));
    EXPECT_EQ(r_b.messages, static_cast<std::uint64_t>(n) * 2);
}

TEST(AlltoallwSchedule, SkewHurtsRoundRobinMore) {
    // With injected skew (the two-cluster effect), the blocking pairwise
    // baseline accumulates delays across peers; binned only couples
    // neighbors.
    const int n = 32;
    auto quiet = make_uniform_cluster(n);
    auto noisy = make_paper_testbed(n, /*skew_us_mean=*/50.0);
    noisy.skew_us_mean = 50.0;
    auto wl = make_ring_neighbor_workload(n, 800);
    wl.iterations = 10;
    const double rr_quiet =
        Simulator(quiet).run(alltoallw_program(quiet, wl, AlltoallwSchedule::RoundRobin))
            .makespan_us;
    const double rr_noisy =
        Simulator(noisy).run(alltoallw_program(noisy, wl, AlltoallwSchedule::RoundRobin))
            .makespan_us;
    const double b_quiet =
        Simulator(quiet).run(alltoallw_program(quiet, wl, AlltoallwSchedule::Binned)).makespan_us;
    const double b_noisy =
        Simulator(noisy).run(alltoallw_program(noisy, wl, AlltoallwSchedule::Binned)).makespan_us;
    // Both schedules pay each rank's private skew; the round-robin baseline
    // additionally propagates every rank's skew to every other rank through
    // its chain of pairwise synchronizations, so its penalty is distinctly
    // larger (observed ~1.6x with this seed; assert a safe margin).
    const double rr_penalty = rr_noisy - rr_quiet;
    const double b_penalty = b_noisy - b_quiet;
    EXPECT_GT(rr_penalty, 1.3 * b_penalty);
}

TEST(AlltoallwSchedule, SingleContextPackingDelaysSmallPeers) {
    // One rank sends a huge noncontiguous message to peer A and a tiny one
    // to peer B. Under the baseline engine model, B's data sits behind the
    // quadratic packing; the binned schedule with the dual engine sends B
    // first and cheaply.
    const int n = 4;
    auto c = make_uniform_cluster(n);
    AlltoallwWorkload wl;
    wl.nprocs = n;
    wl.volume.assign(16, 0);
    wl.vol(0, 1) = 8 << 20;  // 8 MB noncontiguous
    wl.vol(0, 2) = 64;       // tiny
    wl.block_len = 24.0;

    wl.pack = PackModel::SingleContext;
    auto t_single =
        Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::RoundRobin));
    wl.pack = PackModel::DualContext;
    auto t_dual = Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::Binned));
    // Rank 2 (the small peer) finishes far earlier in the optimized setup.
    EXPECT_LT(t_dual.finish_us[2] * 5.0, t_single.finish_us[2]);
}

TEST(SparseExchangeSchedule, MessageCountsMatchTheProtocol) {
    // Degree-d NBX: d payloads + d zero-byte acks per rank, plus the
    // ceil(log2 n)-phase dissemination barrier (one send per rank per
    // phase). Every message the protocol promises must be delivered.
    const int n = 24, degree = 3;
    auto c = make_uniform_cluster(n);
    const SparseNeighborhood nbhd = make_random_neighborhood(n, degree, 256, 7);
    ProgramBuilder b(c);
    b.add_sparse_exchange(nbhd);
    const SimResult r = Simulator(c).run(b.programs());
    int phases = 0;
    for (int step = 1; step < n; step <<= 1) ++phases;
    EXPECT_EQ(r.messages,
              static_cast<std::uint64_t>(n) * (2u * degree + static_cast<unsigned>(phases)));
    EXPECT_EQ(r.bytes, static_cast<std::uint64_t>(n) * degree * 256u);
}

TEST(SparseExchangeSchedule, EmptyNeighborhoodIsJustTheBarrier) {
    const int n = 16;
    auto c = make_uniform_cluster(n);
    const SparseNeighborhood empty(static_cast<std::size_t>(n));
    ProgramBuilder b(c);
    b.add_sparse_exchange(empty);
    const SimResult r = Simulator(c).run(b.programs());
    int phases = 0;
    for (int step = 1; step < n; step <<= 1) ++phases;
    EXPECT_EQ(r.messages, static_cast<std::uint64_t>(n) * static_cast<unsigned>(phases));
    EXPECT_EQ(r.bytes, 0u);
}

TEST(SparseExchangeSchedule, SetupBeatsDenseDiscoveryAtScale) {
    // The committed BENCH_sparse_exchange.json gate in miniature: at 512
    // simulated ranks the NBX schedule's makespan must already beat the
    // dense count-vector discovery for a degree-8 pattern.
    const int n = 512;
    auto c = make_uniform_cluster(n);
    const SparseNeighborhood nbhd = make_random_neighborhood(n, 8, 512, 0x5eed);
    ProgramBuilder sparse(c), dense(c);
    sparse.add_sparse_exchange(nbhd);
    dense.add_dense_discovery(nbhd);
    const double sparse_us = Simulator(c).run(sparse.programs()).makespan_us;
    const double dense_us = Simulator(c).run(dense.programs()).makespan_us;
    EXPECT_LT(sparse_us, dense_us);
}

// ---------------------------------------------------------------------------
// one-sided RMA schedules

TEST(RmaSchedule, SteadyStateMovesZeroTwoSidedMessages) {
    // The structural claim of the put-based plans: a steady-state round is
    // puts and fences only — no envelopes, no matching, zero messages.
    const int n = 16;
    auto c = make_uniform_cluster(n);
    auto wl = make_ring_neighbor_workload(n, 65536);
    const SimResult r = Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::Rma));
    EXPECT_EQ(r.messages, 0u);
    EXPECT_EQ(r.bytes, 0u);
    EXPECT_EQ(r.rendezvous_messages, 0u);
    EXPECT_EQ(r.puts, static_cast<std::uint64_t>(n) * 2u);
    EXPECT_EQ(r.put_bytes, static_cast<std::uint64_t>(n) * 2u * 65536u);
    EXPECT_EQ(r.fences, 2u);
}

TEST(RmaSchedule, OffsetExchangeIsSetupOnly) {
    // Setup: one 8-byte message per nonzero edge. Steady state: three RMA
    // rounds add puts and fence epochs but not a single further message.
    const int n = 12;
    auto c = make_uniform_cluster(n);
    auto wl = make_ring_neighbor_workload(n, 4096);
    ProgramBuilder setup(c);
    setup.add_rma_offset_exchange(wl);
    const SimResult rs = Simulator(c).run(setup.programs());
    EXPECT_EQ(rs.messages, static_cast<std::uint64_t>(n) * 2u);
    EXPECT_EQ(rs.bytes, static_cast<std::uint64_t>(n) * 2u * 8u);
    EXPECT_EQ(rs.puts, 0u);
    EXPECT_EQ(rs.fences, 0u);

    ProgramBuilder steady(c);
    steady.add_rma_offset_exchange(wl);
    for (int i = 0; i < 3; ++i) steady.add_alltoallw(wl, AlltoallwSchedule::Rma);
    const SimResult r3 = Simulator(c).run(steady.programs());
    EXPECT_EQ(r3.messages, rs.messages);
    EXPECT_EQ(r3.bytes, rs.bytes);
    EXPECT_EQ(r3.puts, 3u * static_cast<std::uint64_t>(n) * 2u);
    EXPECT_EQ(r3.fences, 6u);
}

TEST(RmaSchedule, PutBeatsTwoSidedOnNeighborExchange) {
    // Fig. 15 shape with memory copies and the rendezvous handshake
    // priced: a put pays one copy straight into the receive layout and no
    // handshake, and the fence closes the epoch — cheaper than both
    // the handshaking rendezvous path and the round-robin baseline.
    const int n = 32;
    auto c = make_uniform_cluster(n);
    c.copy_us_per_byte = 0.0001;
    c.rendezvous_handshake_us = 20.0;
    c.rendezvous_threshold = 32 * 1024;
    auto wl = make_ring_neighbor_workload(n, 64 * 1024);
    const double rma =
        Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::Rma)).makespan_us;
    const double binned =
        Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::Binned)).makespan_us;
    const double rr =
        Simulator(c).run(alltoallw_program(c, wl, AlltoallwSchedule::RoundRobin)).makespan_us;
    EXPECT_LT(rma, binned);
    EXPECT_LT(rma, rr);
}

TEST(PaperTestbed, TwoSpeedClasses) {
    auto c = make_paper_testbed(64);
    ASSERT_EQ(c.speed.size(), 64u);
    EXPECT_DOUBLE_EQ(c.speed[0], 1.0);
    EXPECT_DOUBLE_EQ(c.speed[31], 1.0);
    EXPECT_DOUBLE_EQ(c.speed[32], 0.8);
    EXPECT_DOUBLE_EQ(c.speed[63], 0.8);
    EXPECT_GT(c.skew_us_mean, 0.0);
}

}  // namespace

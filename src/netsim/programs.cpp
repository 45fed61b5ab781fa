#include "netsim/programs.hpp"

#include <algorithm>
#include <numeric>

#include "coll/schedule.hpp"

namespace nncomm::sim {

double pack_cost_us(const ClusterConfig& c, PackModel model, std::uint64_t bytes,
                    double block_len) {
    switch (model) {
        case PackModel::Contiguous:
            return 0.0;
        case PackModel::HandTuned:
            // Explicit pack loop: per-byte copy plus one indexed load per
            // contiguous run — no datatype machinery, but not free either.
            return static_cast<double>(bytes) * c.pack_us_per_byte +
                   static_cast<double>(bytes) / std::max(block_len, 1.0) *
                       c.gather_us_per_block;
        case PackModel::SingleContext:
            return pack_cost_single_us(c, bytes, block_len);
        case PackModel::DualContext:
            return pack_cost_dual_us(c, bytes, block_len);
    }
    return 0.0;
}

namespace {

// Tags are handed out in blocks of 256 per collective round so FIFO
// matching lines up exactly like the executable collectives.
constexpr int kTagsPerRound = 256;

// Lowers one rank's compiled coll::Schedule into simulator ops — the SAME
// Schedule objects the executable collectives run, so the predicted curves
// cannot drift from the implementation. Round structure maps directly:
// within a round the executable engine fires its nonblocking sends before
// parking on receives, so the sequential simulator emits the round's sends
// first, then its receives. Local ops (Copy/Pack/Reduce) are free in
// the LogGP model except datatype packing, which is charged as a Compute op
// before each send when a pack model is supplied. `rank_order_sends`
// re-sorts each round's sends by destination rank (the BinnedRankOrder
// ablation, which deliberately discards the schedule's binned order).
void lower_schedule(RankProgram& p, const coll::Schedule& sched, int tag0,
                    const ClusterConfig* cluster, const PackModel* pack, double block_len,
                    bool rank_order_sends) {
    std::vector<const coll::ScheduleOp*> sends;
    for (int round = 0; round < sched.rounds; ++round) {
        sends.clear();
        for (const coll::ScheduleOp& op : sched.ops) {
            if (op.round == round && (op.kind == coll::ScheduleOpKind::Send ||
                                      op.kind == coll::ScheduleOpKind::Put))
                sends.push_back(&op);
        }
        if (rank_order_sends) {
            std::stable_sort(sends.begin(), sends.end(),
                             [](const coll::ScheduleOp* a, const coll::ScheduleOp* b) {
                                 return a->peer < b->peer;
                             });
        }
        for (const coll::ScheduleOp* op : sends) {
            if (pack != nullptr) {
                p.push_back(
                    Op::compute(pack_cost_us(*cluster, *pack, op->bytes, block_len)));
            }
            if (op->kind == coll::ScheduleOpKind::Put) {
                p.push_back(Op::put(op->peer, op->bytes));
            } else {
                p.push_back(Op::send(op->peer, tag0 + op->tag_offset, op->bytes));
            }
        }
        for (const coll::ScheduleOp& op : sched.ops) {
            if (op.round != round) continue;
            if (op.kind == coll::ScheduleOpKind::Recv) {
                p.push_back(Op::recv(op.peer, tag0 + op.tag_offset));
            } else if (op.kind == coll::ScheduleOpKind::Fence) {
                p.push_back(Op::fence());
            }
        }
    }
}

GathervSchedule resolve_allgatherv(std::span<const std::uint64_t> volumes,
                                   GathervSchedule schedule, const AllgathervPolicy& policy) {
    if (schedule != GathervSchedule::Auto) return schedule;
    const int n = static_cast<int>(volumes.size());
    if (allgatherv_use_ring(volumes, policy)) return GathervSchedule::Ring;
    return ((n & (n - 1)) == 0) ? GathervSchedule::RecursiveDoubling
                                : GathervSchedule::Dissemination;
}

void emit_allgatherv(std::vector<RankProgram>& progs, std::span<const std::uint64_t> volumes,
                     GathervSchedule schedule, const AllgathervPolicy& policy, int tag0) {
    const int n = static_cast<int>(volumes.size());
    coll::AllgathervAlgo algo = coll::AllgathervAlgo::Ring;
    switch (resolve_allgatherv(volumes, schedule, policy)) {
        case GathervSchedule::Ring: algo = coll::AllgathervAlgo::Ring; break;
        case GathervSchedule::RecursiveDoubling:
            algo = coll::AllgathervAlgo::RecursiveDoubling;
            break;
        case GathervSchedule::Dissemination:
            algo = coll::AllgathervAlgo::Dissemination;
            break;
        case GathervSchedule::Auto: break;  // resolved above
    }
    // Byte-typed shape: the volume set IS the count set.
    std::vector<std::size_t> counts(static_cast<std::size_t>(n));
    std::vector<std::size_t> displs(static_cast<std::size_t>(n));
    std::size_t off = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        counts[i] = static_cast<std::size_t>(volumes[i]);
        displs[i] = off;
        off += counts[i];
    }
    const dt::Datatype byte = dt::Datatype::byte();
    for (int r = 0; r < n; ++r) {
        const coll::Schedule sched = coll::build_allgatherv_schedule(
            r, n, algo, counts[static_cast<std::size_t>(r)], byte, counts, displs, byte);
        lower_schedule(progs[static_cast<std::size_t>(r)], sched, tag0, nullptr, nullptr, 0.0,
                       false);
    }
}

void emit_alltoallw(std::vector<RankProgram>& progs, const ClusterConfig& cluster,
                    const AlltoallwWorkload& wl, AlltoallwSchedule schedule, int tag0) {
    const int n = wl.nprocs;
    const dt::Datatype byte = dt::Datatype::byte();
    const std::vector<dt::Datatype> types(static_cast<std::size_t>(n), byte);
    const std::vector<std::ptrdiff_t> zero_displs(static_cast<std::size_t>(n), 0);
    std::vector<std::size_t> sendcounts(static_cast<std::size_t>(n));
    std::vector<std::size_t> recvcounts(static_cast<std::size_t>(n));

    if (schedule == AlltoallwSchedule::Rma) {
        // Puts are charged by volume alone, so each target layout is just
        // the put's own volume in bytes; displacements do not matter here.
        std::vector<coll::RecvLayout> targets(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            for (int peer = 0; peer < n; ++peer) {
                const auto sp = static_cast<std::size_t>(peer);
                sendcounts[sp] = static_cast<std::size_t>(wl.vol(r, peer));
                recvcounts[sp] = static_cast<std::size_t>(wl.vol(peer, r));
                targets[sp] = {0, sendcounts[sp], byte};
            }
            const coll::Schedule sched = coll::build_alltoallw_rma_schedule(
                r, n, sendcounts, zero_displs, types, recvcounts, zero_displs, types, targets,
                wl.small_msg_threshold);
            lower_schedule(progs[static_cast<std::size_t>(r)], sched, tag0, &cluster,
                           &wl.pack, wl.block_len, false);
        }
        return;
    }

    const coll::AlltoallwAlgo algo = schedule == AlltoallwSchedule::RoundRobin
                                         ? coll::AlltoallwAlgo::RoundRobin
                                         : coll::AlltoallwAlgo::Binned;
    for (int r = 0; r < n; ++r) {
        for (int peer = 0; peer < n; ++peer) {
            sendcounts[static_cast<std::size_t>(peer)] =
                static_cast<std::size_t>(wl.vol(r, peer));
            recvcounts[static_cast<std::size_t>(peer)] =
                static_cast<std::size_t>(wl.vol(peer, r));
        }
        const coll::Schedule sched = coll::build_alltoallw_schedule(
            r, n, algo, sendcounts, zero_displs, types, recvcounts, zero_displs, types,
            wl.small_msg_threshold);
        lower_schedule(progs[static_cast<std::size_t>(r)], sched, tag0, &cluster, &wl.pack,
                       wl.block_len, schedule == AlltoallwSchedule::BinnedRankOrder);
    }
}

void emit_allreduce(std::vector<RankProgram>& progs, std::uint64_t bytes, int tag0) {
    // Dissemination-pattern allreduce (works for any rank count; per-phase
    // payload is the full reduced value).
    const int n = static_cast<int>(progs.size());
    for (int r = 0; r < n; ++r) {
        RankProgram& p = progs[static_cast<std::size_t>(r)];
        int phase = 0;
        for (int step = 1; step < n; step <<= 1, ++phase) {
            p.push_back(Op::send((r + step) % n, tag0 + phase, bytes));
            p.push_back(Op::recv((r - step + n) % n, tag0 + phase));
        }
    }
}

void add_skew_ops(std::vector<RankProgram>& progs, const ClusterConfig& cluster, Rng& rng) {
    if (cluster.skew_us_mean <= 0.0) return;
    for (auto& p : progs) p.push_back(Op::compute(rng.exponential(cluster.skew_us_mean)));
}

}  // namespace

std::vector<RankProgram> allgatherv_program(const ClusterConfig& cluster,
                                            const AllgathervWorkload& wl,
                                            GathervSchedule schedule) {
    const int n = static_cast<int>(wl.volumes.size());
    NNCOMM_CHECK_MSG(n == cluster.nprocs, "workload/cluster rank-count mismatch");
    Rng rng(cluster.seed);
    std::vector<RankProgram> progs(static_cast<std::size_t>(n));
    for (int it = 0; it < wl.iterations; ++it) {
        add_skew_ops(progs, cluster, rng);
        emit_allgatherv(progs, wl.volumes, schedule, wl.policy, it * kTagsPerRound);
    }
    return progs;
}

AlltoallwWorkload make_ring_neighbor_workload(int nprocs, std::uint64_t bytes) {
    AlltoallwWorkload wl;
    wl.nprocs = nprocs;
    wl.volume.assign(static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs), 0);
    for (int r = 0; r < nprocs; ++r) {
        wl.vol(r, (r + 1) % nprocs) = bytes;
        wl.vol(r, (r + nprocs - 1) % nprocs) = bytes;
    }
    return wl;
}

std::vector<RankProgram> alltoallw_program(const ClusterConfig& cluster,
                                           const AlltoallwWorkload& wl,
                                           AlltoallwSchedule schedule) {
    const int n = wl.nprocs;
    NNCOMM_CHECK_MSG(n == cluster.nprocs, "workload/cluster rank-count mismatch");
    NNCOMM_CHECK_MSG(wl.volume.size() ==
                         static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                     "traffic matrix must be nprocs x nprocs");
    Rng rng(cluster.seed);
    std::vector<RankProgram> progs(static_cast<std::size_t>(n));
    for (int it = 0; it < wl.iterations; ++it) {
        add_skew_ops(progs, cluster, rng);
        emit_alltoallw(progs, cluster, wl, schedule, it * kTagsPerRound);
    }
    return progs;
}

SparseNeighborhood make_random_neighborhood(int nprocs, int degree, std::uint64_t bytes,
                                            std::uint64_t seed) {
    NNCOMM_CHECK_MSG(degree < nprocs, "neighborhood degree must leave room for distinct peers");
    Rng rng(seed);
    SparseNeighborhood out(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
        auto& edges = out[static_cast<std::size_t>(r)];
        while (static_cast<int>(edges.size()) < degree) {
            const int dest =
                static_cast<int>(rng.uniform_u64(0, static_cast<std::uint64_t>(nprocs - 1)));
            if (dest == r) continue;
            bool dup = false;
            for (const auto& e : edges) dup = dup || e.first == dest;
            if (!dup) edges.emplace_back(dest, bytes);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// ProgramBuilder

ProgramBuilder::ProgramBuilder(const ClusterConfig& cluster)
    : cluster_(cluster), rng_(cluster.seed),
      progs_(static_cast<std::size_t>(cluster.nprocs)) {}

int ProgramBuilder::next_tag_block() {
    const int t = tag_block_ * kTagsPerRound;
    ++tag_block_;
    return t;
}

void ProgramBuilder::add_skew() { add_skew_ops(progs_, cluster_, rng_); }

void ProgramBuilder::add_compute_all(double us) {
    for (auto& p : progs_) p.push_back(Op::compute(us));
}

void ProgramBuilder::add_compute_per_rank(std::span<const double> us) {
    NNCOMM_CHECK_MSG(us.size() == progs_.size(), "one compute entry per rank required");
    for (std::size_t r = 0; r < progs_.size(); ++r) progs_[r].push_back(Op::compute(us[r]));
}

void ProgramBuilder::add_alltoallw(const AlltoallwWorkload& wl, AlltoallwSchedule schedule) {
    NNCOMM_CHECK_MSG(wl.nprocs == cluster_.nprocs, "workload/cluster rank-count mismatch");
    emit_alltoallw(progs_, cluster_, wl, schedule, next_tag_block());
}

void ProgramBuilder::add_rma_offset_exchange(const AlltoallwWorkload& wl) {
    NNCOMM_CHECK_MSG(wl.nprocs == cluster_.nprocs, "workload/cluster rank-count mismatch");
    const int tag0 = next_tag_block();
    const int n = cluster_.nprocs;
    for (int r = 0; r < n; ++r) {
        RankProgram& p = progs_[static_cast<std::size_t>(r)];
        // Hand each source the 8-byte handle of its receive layout here...
        for (int s = 0; s < n; ++s) {
            if (s != r && wl.vol(s, r) > 0) p.push_back(Op::send(s, tag0, 8));
        }
        // ...and take this rank's layout handle from each destination.
        for (int d = 0; d < n; ++d) {
            if (d != r && wl.vol(r, d) > 0) p.push_back(Op::recv(d, tag0));
        }
    }
}

void ProgramBuilder::add_allgatherv(std::span<const std::uint64_t> volumes,
                                    GathervSchedule schedule, const AllgathervPolicy& policy) {
    NNCOMM_CHECK_MSG(static_cast<int>(volumes.size()) == cluster_.nprocs,
                     "volume set/cluster rank-count mismatch");
    emit_allgatherv(progs_, volumes, schedule, policy, next_tag_block());
}

void ProgramBuilder::add_allreduce(std::uint64_t bytes) {
    emit_allreduce(progs_, bytes, next_tag_block());
}

void ProgramBuilder::add_barrier() { emit_allreduce(progs_, 0, next_tag_block()); }

namespace {

/// Derives each rank's in-neighborhood and emits the payload traffic of one
/// sparse exchange: out-edges as eager sends, in-edges as receives (self
/// edges are local copies — free in the LogGP model — and skipped). When
/// `ack` is set, every payload receive is answered with a zero-byte token on
/// `ack_tag` and every sender collects its acks — the NBX completion proof.
void emit_sparse_payloads(std::vector<RankProgram>& progs, const SparseNeighborhood& out,
                          int payload_tag, int ack_tag, bool ack) {
    const int n = static_cast<int>(progs.size());
    NNCOMM_CHECK_MSG(static_cast<int>(out.size()) == n,
                     "sparse neighborhood/cluster rank-count mismatch");
    std::vector<std::vector<int>> in(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        for (const auto& [dest, bytes] : out[static_cast<std::size_t>(r)]) {
            NNCOMM_CHECK_MSG(dest >= 0 && dest < n, "sparse neighborhood: dest out of range");
            (void)bytes;
            if (dest != r) in[static_cast<std::size_t>(dest)].push_back(r);
        }
    }
    for (int r = 0; r < n; ++r) {
        RankProgram& p = progs[static_cast<std::size_t>(r)];
        // Sends never block in the simulator (buffered eager, like the
        // runtime), so firing all payloads before any receive makes the
        // program deadlock-free for every neighborhood shape — including
        // empty ones, which fall straight through to the consensus phase.
        for (const auto& [dest, bytes] : out[static_cast<std::size_t>(r)]) {
            if (dest != r) p.push_back(Op::send(dest, payload_tag, bytes));
        }
        for (int s : in[static_cast<std::size_t>(r)]) {
            p.push_back(Op::recv(s, payload_tag));
            if (ack) p.push_back(Op::send(s, ack_tag, 0));
        }
        if (ack) {
            for (const auto& [dest, bytes] : out[static_cast<std::size_t>(r)]) {
                (void)bytes;
                if (dest != r) p.push_back(Op::recv(dest, ack_tag));
            }
        }
    }
}

}  // namespace

void ProgramBuilder::add_sparse_exchange(const SparseNeighborhood& out) {
    const int tag0 = next_tag_block();
    emit_sparse_payloads(progs_, out, tag0, tag0 + 1, /*ack=*/true);
    // The consensus: once a rank holds acks for all its sends it enters the
    // nonblocking barrier; everyone leaving the barrier proves global
    // quiescence. The simulator's blocking recvs make the barrier's
    // dissemination rounds a faithful stand-in for the IBarrier.
    emit_allreduce(progs_, 0, tag0 + 2);
}

void ProgramBuilder::add_dense_discovery(const SparseNeighborhood& out) {
    const int n = cluster_.nprocs;
    NNCOMM_CHECK_MSG(static_cast<int>(out.size()) == n,
                     "sparse neighborhood/cluster rank-count mismatch");
    // Discovery: every rank publishes its dense per-destination count
    // vector (8 bytes per rank). The log-depth algorithms are deliberately
    // chosen over Ring — the generous baseline still carries O(nprocs)
    // bytes per rank, which is the asymptote the NBX path removes.
    const GathervSchedule gs = ((n & (n - 1)) == 0) ? GathervSchedule::RecursiveDoubling
                                                    : GathervSchedule::Dissemination;
    const std::vector<std::uint64_t> count_vol(static_cast<std::size_t>(n),
                                               8ull * static_cast<std::uint64_t>(n));
    emit_allgatherv(progs_, count_vol, gs, {}, next_tag_block());
    // Payloads: the pattern is now globally known, so no acks and no
    // barrier — receivers post exactly the discovered receives.
    const int tag0 = next_tag_block();
    emit_sparse_payloads(progs_, out, tag0, tag0 + 1, /*ack=*/false);
}

}  // namespace nncomm::sim

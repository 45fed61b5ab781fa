// Simulated schedules of the collective algorithms.
//
// These generators emit, for each rank, the exact op sequence the
// corresponding executable algorithm in src/coll performs — same peers,
// same phases, same message volumes — so the simulator can predict the
// collective's latency on clusters far larger than the host. Datatype
// packing costs (linear for the dual-context engine, quadratic re-search
// for the single-context baseline) are injected as Compute ops before each
// noncontiguous send.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/outlier.hpp"
#include "core/rng.hpp"
#include "netsim/sim.hpp"

namespace nncomm::sim {

enum class PackModel {
    Contiguous,     ///< no packing needed
    HandTuned,      ///< explicit pack loop: linear per-byte cost only
    SingleContext,  ///< baseline engine: linear pack + quadratic re-search
    DualContext,    ///< optimized engine: linear pack + bounded look-ahead
};

/// CPU cost (us) to prepare one message under a pack model.
double pack_cost_us(const ClusterConfig& c, PackModel model, std::uint64_t bytes,
                    double block_len);

// ---------------------------------------------------------------------------
// allgatherv

enum class GathervSchedule { Ring, RecursiveDoubling, Dissemination, Auto };

struct AllgathervWorkload {
    /// Bytes contributed by each rank (the communication-volume set).
    std::vector<std::uint64_t> volumes;
    /// Benchmark iterations simulated back to back.
    int iterations = 1;
    /// Eq. 1 policy used by the Auto schedule.
    AllgathervPolicy policy{};
};

/// One op-program per rank for the chosen allgatherv algorithm, with
/// per-iteration random skew drawn from the cluster's skew model.
std::vector<RankProgram> allgatherv_program(const ClusterConfig& cluster,
                                            const AllgathervWorkload& wl,
                                            GathervSchedule schedule);

// ---------------------------------------------------------------------------
// alltoallw

enum class AlltoallwSchedule {
    RoundRobin,       ///< baseline: blocking pairwise, zero-size included
    Binned,           ///< zero-exempt, small bin packed before large
    BinnedRankOrder,  ///< ablation: zero-exempt but rank-order packing
    Rma,              ///< one-sided: fence, puts into the receive layouts, fence
};

struct AlltoallwWorkload {
    int nprocs = 0;
    /// Row-major traffic matrix: volume(src, dst) bytes.
    std::vector<std::uint64_t> volume;
    /// Average contiguous-block length of the send layouts (drives pack and
    /// search costs); messages are contiguous when pack == Contiguous.
    double block_len = 64.0;
    PackModel pack = PackModel::Contiguous;
    int iterations = 1;
    /// Binned: volumes strictly below this are the small bin.
    std::size_t small_msg_threshold = 4 * 1024;

    std::uint64_t vol(int src, int dst) const {
        return volume[static_cast<std::size_t>(src) * static_cast<std::size_t>(nprocs) +
                      static_cast<std::size_t>(dst)];
    }
    std::uint64_t& vol(int src, int dst) {
        return volume[static_cast<std::size_t>(src) * static_cast<std::size_t>(nprocs) +
                      static_cast<std::size_t>(dst)];
    }
};

/// Ring-neighbor workload of the paper's Fig. 15: every rank exchanges
/// `bytes` with its ring successor and predecessor, nothing else.
AlltoallwWorkload make_ring_neighbor_workload(int nprocs, std::uint64_t bytes);

std::vector<RankProgram> alltoallw_program(const ClusterConfig& cluster,
                                           const AlltoallwWorkload& wl,
                                           AlltoallwSchedule schedule);

// ---------------------------------------------------------------------------
// sparse dynamic exchange (NBX)

/// Per-rank outgoing neighborhoods: out[r] lists the (destination, bytes)
/// messages rank r sends in one sparse exchange. The inverse neighborhood
/// is derived by the program generators — ranks in the simulated programs
/// know only what the executable NBX protocol would discover dynamically.
using SparseNeighborhood = std::vector<std::vector<std::pair<int, std::uint64_t>>>;

/// Random sparse pattern: every rank sends to `degree` distinct peers drawn
/// uniformly (self excluded), `bytes` each. Deterministic in `seed`.
SparseNeighborhood make_random_neighborhood(int nprocs, int degree, std::uint64_t bytes,
                                            std::uint64_t seed);

// ---------------------------------------------------------------------------
// composite programs

/// Builds multi-phase rank programs by appending collective rounds — the
/// bridge the application-level benchmarks (VecScatter, multigrid solver)
/// use to express "per solver iteration: ghost exchange, transfer, two
/// allreduces, ..." as one simulated program.
class ProgramBuilder {
public:
    explicit ProgramBuilder(const ClusterConfig& cluster);

    /// Per-rank random skew (exponential with the cluster's mean).
    void add_skew();
    /// Identical compute on every rank (scaled by rank speed at run time).
    void add_compute_all(double us);
    /// Per-rank compute (one entry per rank) — load-imbalance modeling.
    void add_compute_per_rank(std::span<const double> us);
    /// One alltoallw round (the workload's `iterations` field is ignored).
    void add_alltoallw(const AlltoallwWorkload& wl, AlltoallwSchedule schedule);
    /// The one-time receive-layout exchange an RMA persistent plan performs
    /// at setup: every rank sends each of its sources an 8-byte layout
    /// handle and receives one from each of its destinations. Steady-state
    /// RMA rounds (add_alltoallw with AlltoallwSchedule::Rma) then move
    /// zero two-sided messages.
    void add_rma_offset_exchange(const AlltoallwWorkload& wl);
    /// One allgatherv round.
    void add_allgatherv(std::span<const std::uint64_t> volumes, GathervSchedule schedule,
                        const AllgathervPolicy& policy = {});
    /// One recursive-doubling/dissemination allreduce of `bytes` payload.
    void add_allreduce(std::uint64_t bytes);
    /// Zero-byte dissemination barrier.
    void add_barrier();
    /// One NBX sparse dynamic exchange (runtime/sparse.hpp mirrored op for
    /// op): eager payload sends, inverse-neighborhood receives each
    /// answered with a zero-byte ack (the runtime's stand-in for Issend
    /// completion), ack receives for every payload sent, then the
    /// nonblocking-consensus dissemination barrier. Cost scales with the
    /// neighborhood degree plus O(log nprocs), independent of nprocs.
    void add_sparse_exchange(const SparseNeighborhood& out);
    /// The dense-discovery baseline for the same neighborhood: every rank
    /// publishes its full nprocs-entry count vector (8 bytes per
    /// destination) through a log-depth allgatherv, after which the pattern
    /// is globally known and the payloads move without acks or a barrier.
    /// Cost scales with nprocs regardless of how sparse the pattern is.
    void add_dense_discovery(const SparseNeighborhood& out);

    std::vector<RankProgram> take() { return std::move(progs_); }
    const std::vector<RankProgram>& programs() const { return progs_; }

private:
    int next_tag_block();

    const ClusterConfig& cluster_;
    Rng rng_;
    std::vector<RankProgram> progs_;
    int tag_block_ = 0;
};

}  // namespace nncomm::sim

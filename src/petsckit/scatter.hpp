// VecScatter: general gather/scatter between two distributed vectors.
//
// A scatter is defined by two equal-length index sets: entry k moves
// src[is_src[k]] -> dst[is_dst[k]]. Index sets are replicated (every rank
// passes the full lists), so the communication plan is computed locally
// with no setup traffic.
//
// Three execution backends reproduce the paper's §5.4 comparison:
//
//   HandTuned         — PETSc's default: explicit pack loops and individual
//                       isend/irecv per peer (the "hand-tuned" series).
//   DatatypeBaseline  — MPI derived datatypes (per-peer indexed_block over
//                       the vector storage) + the round-robin Alltoallw + the
//                       single-context pack engine: the MVAPICH2-0.9.5
//                       series.
//   DatatypeOptimized — the same derived datatypes + the binned Alltoallw +
//                       the dual-context engine: the MVAPICH2-New series.
//
// All backends move identical bytes; they differ only in packing strategy
// and communication schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/persistent.hpp"
#include "petsckit/is.hpp"
#include "petsckit/vec.hpp"

namespace nncomm::pk {

enum class ScatterBackend {
    HandTuned,
    DatatypeBaseline,
    DatatypeOptimized,
};

/// Direction of an execute(): Forward moves src -> dst along the planned
/// pairs; Reverse moves dst -> src (PETSc's SCATTER_REVERSE — the adjoint
/// data motion, used e.g. to push ghost contributions back to owners).
enum class ScatterMode { Forward, Reverse };

/// What happens at the destination: Insert overwrites, Add accumulates
/// (PETSc's ADD_VALUES; only the hand-tuned backend supports Add, matching
/// PETSc — the MPI-datatype path has no receive-side reduction).
enum class InsertMode { Insert, Add };

inline const char* scatter_backend_name(ScatterBackend b) {
    switch (b) {
        case ScatterBackend::HandTuned: return "hand-tuned";
        case ScatterBackend::DatatypeBaseline: return "datatype-baseline";
        case ScatterBackend::DatatypeOptimized: return "datatype-optimized";
    }
    return "?";
}

class ScatterRequest;

class VecScatter {
public:
    /// Plans the scatter. `src_layout`/`dst_layout` describe the two
    /// vectors; the index sets are the full replicated lists, must have
    /// equal length, contain no duplicate destinations, and index within
    /// the respective layouts.
    VecScatter(rt::Comm& comm, const Layout& src_layout, const IndexSet& is_src,
               const Layout& dst_layout, const IndexSet& is_dst);

    /// Convenience: plan between two existing vectors' layouts.
    VecScatter(const Vec& src, const IndexSet& is_src, const Vec& dst, const IndexSet& is_dst)
        : VecScatter(src.comm(), src.layout(), is_src, dst.layout(), is_dst) {}

    /// Sparse-discovery gather plan (collective). Unlike the replicated
    /// constructor, each rank passes only ITS OWN needs: the global src
    /// indices whose values should land in this rank's dst slots, in slot
    /// order (dst slot k receives src[needed_global[k]]; `dst_layout` must
    /// give this rank exactly needed_global.size() entries). Nobody knows
    /// its reader set up front — the plan discovers the sparse
    /// neighborhood with one rt::sparse_exchange of per-owner request
    /// lists instead of dense O(p)-per-rank count vectors, so setup cost
    /// scales with the actual neighborhood, not the communicator size. The
    /// resulting scatter is indistinguishable from one planned with
    /// replicated index sets describing the same pairs.
    static VecScatter gather_sparse(rt::Comm& comm, const Layout& src_layout,
                                    std::span<const Index> needed_global,
                                    const Layout& dst_layout);

    /// Executes the planned scatter src -> dst (collective). Vectors must
    /// match the layouts the scatter was planned with. Add mode requires
    /// the HandTuned backend (as in PETSc, the MPI-datatype receive path
    /// has no reduction).
    void execute(const Vec& src, Vec& dst, ScatterBackend backend,
                 InsertMode insert = InsertMode::Insert) const;
    /// The reverse scatter dst -> src (PETSc's SCATTER_REVERSE): entry k
    /// moves dst[is_dst[k]] back into src[is_src[k]]. Add mode accumulates
    /// into src (the ghost-contribution push-back pattern).
    void execute_reverse(Vec& src, const Vec& dst, ScatterBackend backend,
                         InsertMode insert = InsertMode::Insert) const;

    /// Split-phase scatter (PETSc's VecScatterBegin/VecScatterEnd): begin()
    /// posts the receives, packs and fires the sends and performs the local
    /// moves, then returns while the transfers are in flight — overlap
    /// interior compute, optionally poking ScatterRequest::test(), then
    /// end() completes the receive side. execute() is begin() + end(), so
    /// the split path is bit-identical to the blocking one on every
    /// backend. Buffer contract: src must stay unmodified and dst's
    /// scattered entries untouched until end() returns; at most one request
    /// per direction may be in flight per scatter (the persistent plan and
    /// the hand-tuned staging buffers are single-flight).
    ScatterRequest begin(const Vec& src, Vec& dst, ScatterBackend backend,
                         InsertMode insert = InsertMode::Insert) const;
    /// Split-phase reverse scatter; pairs with ScatterRequest::end().
    ScatterRequest begin_reverse(Vec& src, const Vec& dst, ScatterBackend backend,
                                 InsertMode insert = InsertMode::Insert) const;

    /// Persistent-plan toggle for the DatatypeOptimized backend (default
    /// on): the first execute in each direction compiles a persistent
    /// coll::AlltoallwPlan (per-peer engines, pack buffers, binned
    /// schedule) that later executes reuse allocation-free. Off forces
    /// every execute down the one-shot alltoallw — the pre-persistence
    /// path, kept for A/B benchmarking. The baseline backend is always
    /// one-shot (it reproduces the paper's measured baseline).
    void set_persistent(bool on) { persistent_ = on; }
    bool persistent() const { return persistent_; }

    /// Transport for the persistent plans (CollConfig::persistent_protocol):
    /// Auto lowers onto one-sided RMA windows when enabled, Rma forces
    /// them, Eager forces the two-sided schedule graph. Must be set
    /// identically on every rank, before the first execute (existing plans
    /// are not rebuilt).
    void set_persistent_protocol(rt::Protocol proto) { persistent_protocol_ = proto; }
    rt::Protocol persistent_protocol() const { return persistent_protocol_; }
    /// True when that direction's plan exists and lowered onto RMA windows.
    bool forward_rma() const { return fwd_plan_ && fwd_plan_->rma(); }
    bool reverse_rma() const { return rev_plan_ && rev_plan_->rma(); }

    /// The lazily built persistent plans (nullptr until the first
    /// DatatypeOptimized execute in that direction). Exposes the
    /// allocation/plan-hit counters tests and benches assert on.
    const coll::AlltoallwPlan* forward_plan() const { return fwd_plan_.get(); }
    const coll::AlltoallwPlan* reverse_plan() const { return rev_plan_.get(); }

    // -- introspection (benchmarks, netsim bridging) ----------------------------
    /// Bytes this rank sends to each peer (self transfer excluded).
    const std::vector<std::uint64_t>& send_bytes() const { return send_bytes_; }
    /// Contiguous blocks in this rank's send layout per peer (after
    /// adjacent-index merging) — the datatype "signature length".
    std::vector<std::uint64_t> send_blocks() const;
    std::uint64_t local_moves() const { return static_cast<std::uint64_t>(self_src_.size()); }

private:
    friend class ScatterRequest;

    VecScatter() = default;  ///< for gather_sparse, which fills members itself

    struct PeerPlan {
        int rank = -1;
        std::vector<Index> offsets;  ///< local element offsets, in k order
    };

    // Generic first half shared by both directions: posts receives, packs
    // and fires the sends, performs the local moves, and returns the
    // request whose end() unpacks. `send_bufs`/`recv_bufs` are the
    // direction's persistent staging buffers (sized on first use).
    ScatterRequest begin_hand_tuned(const Vec& from, const std::vector<PeerPlan>& from_plans,
                                    const std::vector<Index>& from_self, Vec& to,
                                    const std::vector<PeerPlan>& to_plans,
                                    const std::vector<Index>& to_self, InsertMode insert,
                                    std::vector<std::vector<double>>& send_bufs,
                                    std::vector<std::vector<double>>& recv_bufs) const;
    ScatterRequest begin_datatype(const void* sendbuf, void* recvbuf,
                                  coll::AlltoallwAlgo algo, dt::EngineKind engine,
                                  ScatterMode mode) const;

    // Constructor tail shared with gather_sparse: derives send_bytes_ and
    // the prebuilt Alltoallw argument arrays from sends_/recvs_/self_*.
    void finalize_plans(int n, int rank);

    rt::Comm* comm_ = nullptr;
    Index src_local_ = 0;
    Index dst_local_ = 0;
    std::vector<PeerPlan> sends_;  ///< peers I send to (ascending rank)
    std::vector<PeerPlan> recvs_;  ///< peers I receive from (ascending rank)
    std::vector<Index> self_src_;  ///< local src offsets moved locally
    std::vector<Index> self_dst_;
    std::vector<std::uint64_t> send_bytes_;  ///< per rank, bytes

    // Prebuilt per-peer indexed_block datatypes for the datatype backends
    // (element offsets into the vectors' local storage).
    std::vector<std::size_t> w_sendcounts_, w_recvcounts_;
    std::vector<std::ptrdiff_t> w_sdispls_, w_rdispls_;
    std::vector<dt::Datatype> w_sendtypes_, w_recvtypes_;

    // Persistent state, built lazily on first use. Each rank thread owns
    // its VecScatter (like its Comm), so mutable-without-locks is safe.
    bool persistent_ = true;
    rt::Protocol persistent_protocol_ = rt::Protocol::Auto;
    mutable std::unique_ptr<coll::AlltoallwPlan> fwd_plan_, rev_plan_;
    mutable std::vector<std::vector<double>> ht_fwd_send_, ht_fwd_recv_;
    mutable std::vector<std::vector<double>> ht_rev_send_, ht_rev_recv_;
};

/// One in-flight split-phase scatter, returned by VecScatter::begin /
/// begin_reverse. Move-only; end() must be called exactly once (it is the
/// matching collective completion), after which the request is inert.
class ScatterRequest {
public:
    ScatterRequest() = default;
    ScatterRequest(ScatterRequest&&) = default;
    ScatterRequest& operator=(ScatterRequest&&) = default;
    ScatterRequest(const ScatterRequest&) = delete;
    ScatterRequest& operator=(const ScatterRequest&) = delete;

    /// True between begin() and end().
    bool active() const { return path_ != Path::None; }

    /// One nonblocking progress pass over the in-flight transfers; true
    /// once all of them have landed (end() is still required — it performs
    /// the receive-side unpack for the hand-tuned backend and folds the
    /// statistics).
    bool test();

    /// Completes the scatter: waits for the transfers, unpacks the
    /// received data, restores the communicator's engine kind.
    void end();

private:
    friend class VecScatter;
    enum class Path : std::uint8_t { None, HandTuned, OneShot, Plan };

    Path path_ = Path::None;
    rt::Comm* comm_ = nullptr;

    // Hand-tuned backend: outstanding receives + the unpack plan.
    const std::vector<VecScatter::PeerPlan>* to_plans_ = nullptr;
    std::vector<std::vector<double>>* recv_bufs_ = nullptr;
    Vec* to_ = nullptr;
    InsertMode insert_ = InsertMode::Insert;
    std::vector<rt::Request> recv_reqs_;

    // Datatype backends: a one-shot schedule request or the persistent plan.
    coll::CollRequest coll_;
    coll::AlltoallwPlan* plan_ = nullptr;
    dt::EngineKind saved_engine_ = dt::EngineKind::DualContext;
    bool restore_engine_ = false;
};

}  // namespace nncomm::pk

// Persistent Alltoallw plans (MPI_Alltoallw_init in spirit).
//
// The one-shot coll::alltoallw rebuilds everything on every call: a fresh
// pack engine (and its scratch buffer) per noncontiguous peer, the binning
// of peers by volume, the receive-request vector. For the repeated-scatter
// pattern the paper measures (§5.4 — the same VecScatter executed every
// solver iteration), all of that is loop-invariant. An AlltoallwPlan hoists
// it out of the loop: the plan is a cached compiled coll::Schedule — the
// binned send order, the frozen per-peer protocol decisions and the
// clear-to-send handshake are ops of the graph — plus one persistent
// CollRequest whose staging buffers and pack engines survive across
// executes.
//
//   - the binned send schedule (zero-volume peers exempted, small volumes
//     before large) is compiled once at plan time,
//   - each send peer owns a persistent staging slot, packed by one
//     rt::transfer pass: specialized layouts (contiguous / constant-stride)
//     go straight through the plan kernels, no engine at all, wherever
//     rt::use_plans allows plans; everything else runs a persistent pack
//     engine that is reset(), never reconstructed, on each execute,
//   - packed messages go on the wire as plain bytes, so the runtime's send
//     path never builds a per-send engine either.
//
// Steady state (every execute after the first) therefore performs no
// engine constructions and no scratch allocations — which is exactly what
// the engine_builds / scratch_allocs counters folded into the Comm prove —
// and every reuse of the compiled graph is counted as a
// coll_schedule_cache_hits event.
//
// Because the executor is progress-driven, the plan is split-phase for
// free: begin() fires the schedule (receives posted, self copy done, eager
// sends gone), test() makes overlap progress, end() completes. execute()
// is begin() + end().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/schedule.hpp"
#include "datatype/engine.hpp"
#include "runtime/win.hpp"

namespace nncomm::coll {

/// Persistent plan for one fixed Alltoallw shape (counts, displacements and
/// types per peer). Buffers may differ between execute() calls; the shape
/// may not. Owned and used by a single rank thread (like Comm itself).
class AlltoallwPlan {
public:
    /// Captures the shape, bins the peers and compiles the schedule.
    /// `engine` selects the pack engine used for peers whose layout does
    /// not compile to a specialized plan kernel, and for every peer when
    /// rt::use_plans(engine, config) forbids plans. The engine configuration
    /// is taken from `comm` at every execute, so config changes between
    /// executes rebuild the engines (and are counted).
    AlltoallwPlan(rt::Comm& comm, std::span<const std::size_t> sendcounts,
                  std::span<const std::ptrdiff_t> sdispls,
                  std::span<const dt::Datatype> sendtypes,
                  std::span<const std::size_t> recvcounts,
                  std::span<const std::ptrdiff_t> rdispls,
                  std::span<const dt::Datatype> recvtypes, const CollConfig& config = {},
                  dt::EngineKind engine = dt::EngineKind::DualContext);

    ~AlltoallwPlan();

    AlltoallwPlan(const AlltoallwPlan&) = delete;
    AlltoallwPlan& operator=(const AlltoallwPlan&) = delete;

    /// Runs the planned exchange with this call's buffers. Collective:
    /// every rank of the communicator must execute its plan. Statistics
    /// for the work done are folded into the Comm's counters/timers.
    void execute(const void* sendbuf, void* recvbuf);

    /// Split-phase execute: fires the schedule (receives posted, self copy
    /// done, eligible sends gone) and returns. Overlap compute, optionally
    /// poking test(), then end(). Buffer contracts as execute().
    void begin(const void* sendbuf, void* recvbuf);
    /// One nonblocking progress pass; true once the exchange completed.
    bool test() { return request_.test(); }
    /// Completes the exchange begun by begin().
    void end();

    /// Cumulative statistics over all executes of this plan (the same
    /// numbers folded into the Comm, but isolated from other traffic).
    const StatCounters& counters() const { return counters_; }

    std::size_t executes() const { return executes_; }
    /// Peers this rank sends to / receives from (self excluded).
    std::size_t send_peers() const { return send_peers_; }
    std::size_t recv_peers() const { return recv_peers_; }

    /// The compiled schedule (inspection / netsim lowering).
    const Schedule& schedule() const { return request_.schedule(); }

    /// True when the plan lowered onto one-sided RMA windows (puts straight
    /// into the peers' typed receive layouts, fences for completion) instead
    /// of the two-sided send/recv graph. Uniform across ranks by
    /// construction.
    bool rma() const { return rma_; }

private:
    rt::Comm* comm_ = nullptr;
    dt::EngineKind engine_kind_;
    dt::EngineConfig engine_config_;  ///< config the engines were built with

    CollRequest request_;  ///< cached compiled schedule + persistent state
    std::size_t send_peers_ = 0;
    std::size_t recv_peers_ = 0;

    /// RMA lowering only: the window whose region begin() re-points at
    /// [recvbuf + recv_lo_, + recv_bytes_), the data footprint of every
    /// remote receive layout. Peers put straight into it.
    rt::Win win_;
    std::ptrdiff_t recv_lo_ = 0;
    std::size_t recv_bytes_ = 0;
    bool rma_ = false;

    StatCounters counters_;
    std::size_t executes_ = 0;
};

}  // namespace nncomm::coll

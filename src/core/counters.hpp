// Lightweight statistics counters and phase timers.
//
// Figure 13 of the paper breaks datatype-processing time into Comm, Pack
// and Search phases. PhaseTimers accumulates wall-clock per named phase;
// StatCounters accumulates event counts (blocks searched, bytes packed,
// look-ahead elements parsed, ...). Both are plain value types — each rank
// or engine owns its own instance, so no synchronization is needed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace nncomm {

/// Phases instrumented by the datatype engines and the runtime send path.
enum class Phase : int {
    Comm = 0,    ///< time spent moving bytes between ranks
    Pack = 1,    ///< time spent copying noncontiguous data into pack buffers
    Search = 2,  ///< time spent re-locating the pack position in the datatype
    Other = 3,
};

inline const char* phase_name(Phase p) {
    switch (p) {
        case Phase::Comm: return "Comm";
        case Phase::Pack: return "Pack";
        case Phase::Search: return "Search";
        case Phase::Other: return "Other";
    }
    return "?";
}

/// Accumulates nanoseconds per phase. Scoped measurement via PhaseScope.
class PhaseTimers {
public:
    static constexpr int kNumPhases = 4;

    void add(Phase p, std::chrono::nanoseconds dt) {
        ns_[static_cast<int>(p)] += static_cast<std::uint64_t>(dt.count());
    }
    void add_ns(Phase p, std::uint64_t ns) { ns_[static_cast<int>(p)] += ns; }

    std::uint64_t ns(Phase p) const { return ns_[static_cast<int>(p)]; }
    double seconds(Phase p) const { return static_cast<double>(ns(p)) * 1e-9; }

    std::uint64_t total_ns() const {
        std::uint64_t t = 0;
        for (auto v : ns_) t += v;
        return t;
    }

    void reset() { ns_.fill(0); }

    PhaseTimers& operator+=(const PhaseTimers& other) {
        for (int i = 0; i < kNumPhases; ++i) ns_[static_cast<std::size_t>(i)] += other.ns_[static_cast<std::size_t>(i)];
        return *this;
    }

private:
    std::array<std::uint64_t, kNumPhases> ns_{};
};

/// RAII scope that charges its lifetime to one phase of a PhaseTimers.
class PhaseScope {
public:
    PhaseScope(PhaseTimers& timers, Phase phase)
        : timers_(timers), phase_(phase), start_(std::chrono::steady_clock::now()) {}
    ~PhaseScope() { timers_.add(phase_, std::chrono::steady_clock::now() - start_); }

    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

private:
    PhaseTimers& timers_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
};

/// Event counters for datatype-engine behaviour. These are what the
/// quadratic-search analysis is stated in terms of: the baseline engine's
/// `search_blocks_visited` grows quadratically with datatype size, the
/// dual-context engine's stays zero while `lookahead_blocks` stays ~linear.
struct StatCounters {
    std::uint64_t bytes_packed = 0;
    std::uint64_t blocks_packed = 0;
    std::uint64_t search_events = 0;          ///< how many times a re-search ran
    std::uint64_t search_blocks_visited = 0;  ///< blocks walked during re-searches
    std::uint64_t lookahead_events = 0;
    std::uint64_t lookahead_blocks = 0;       ///< signature elements parsed ahead
    std::uint64_t dense_chunks = 0;
    std::uint64_t sparse_chunks = 0;

    // Pack-plan / persistence counters (plan.hpp, coll/persistent.hpp).
    std::uint64_t plan_hits = 0;       ///< reuses of an already-compiled pack plan
    std::uint64_t plan_compiles = 0;   ///< pack-plan compilations (cache misses)
    std::uint64_t engine_builds = 0;   ///< PackEngine constructions
    std::uint64_t scratch_allocs = 0;  ///< scratch/staging buffer (re)allocations
    std::uint64_t persistent_executes = 0;  ///< persistent-plan execute() calls

    // Delivery-engine perturbation / fault-injection counters
    // (runtime/schedule.hpp). Enqueue-side events are charged to the
    // sending rank; delivery-side events to the rank driving progress.
    std::uint64_t sched_pending_sends = 0;  ///< envelopes routed through the in-flight queue
    std::uint64_t sched_deferrals = 0;      ///< envelopes assigned a nonzero defer budget
    std::uint64_t sched_reorders = 0;       ///< injected same-pair FIFO violations
    std::uint64_t sched_stalls = 0;         ///< injected sender stalls
    std::uint64_t sched_wakeup_delays = 0;  ///< suppressed waiter notifications

    // Runtime transfer counters (runtime/comm.cpp). The eager path stages
    // every payload in an envelope buffer (drawn from the per-world pool)
    // and copies twice. Sender-side events are charged to the sending rank;
    // the receive-side unpack copy to the receiving rank.
    /// Always 0: the zero-copy rendezvous it counted is retired. Kept
    /// declared only because the benchmark (perfbench/) still reads it.
    std::uint64_t rt_zero_copy_msgs = 0;
    std::uint64_t rt_bytes_copied = 0;    ///< payload bytes moved by runtime copy passes
    std::uint64_t rt_pool_hits = 0;       ///< payload buffers recycled from the world pool
    std::uint64_t rt_pool_misses = 0;     ///< pool-eligible acquires that found no free buffer
    std::uint64_t rt_payload_allocs = 0;  ///< payload heap allocations (misses + oversize)

    // Contention-free transport counters (runtime/comm.cpp). The sharded
    // mailbox delivers along per-(source, dest) lanes: an SPSC lock-free
    // ring is the fastpath, a mutex-guarded overflow list absorbs ring-full
    // spill and all SchedulePolicy-routed traffic. rt_lock_acquisitions
    // counts transport-layer mutex acquisitions (overflow, shared payload
    // pool, in-flight queues) so a workload can
    // assert its steady state stays off the locks; rt_cv_waits/rt_cv_notifies
    // count actual condition-variable blocks and wakeups after the bounded
    // spin-then-sleep and notify-only-when-a-sleeper-is-registered gates.
    // rt_cv_waits is the sum of its per-wait-site split: recv (Comm::wait on
    // a receive), send (Comm::wait on a pending send), epoch
    // (Comm::wait_until: RMA fences and pscw) and probe (Comm::probe).
    std::uint64_t rt_lane_fast_deliveries = 0;      ///< envelopes delivered via an SPSC lane ring
    std::uint64_t rt_lane_overflow_deliveries = 0;  ///< envelopes routed via the overflow list
    std::uint64_t rt_lock_acquisitions = 0;         ///< transport mutex acquisitions
    std::uint64_t rt_cv_waits = 0;                  ///< condition-variable blocks (post-spin)
    std::uint64_t rt_cv_waits_recv = 0;             ///< ... parked in a receive wait
    std::uint64_t rt_cv_waits_send = 0;             ///< ... parked in a pending-send wait
    std::uint64_t rt_cv_waits_epoch = 0;            ///< ... parked in an RMA epoch wait
    std::uint64_t rt_cv_waits_probe = 0;            ///< ... parked in a blocking probe
    std::uint64_t rt_spin_windows = 0;              ///< bounded spin windows opened (<= 1 per wait)
    std::uint64_t rt_cv_notifies = 0;               ///< condition-variable notify calls issued
    std::uint64_t rt_pool_local_hits = 0;           ///< acquires served by the per-rank pool cache
    /// High-water mark of bytes resident in the shared payload pool as
    /// observed by this rank's acquire/release calls. Composes by max, not
    /// sum: merging counters keeps the largest observed value.
    std::uint64_t rt_pool_resident_bytes = 0;

    // Schedule-graph collective counters (coll/schedule.hpp). Every
    // collective — blocking or icoll — compiles a Schedule and executes it
    // through a CollRequest; these make that path observable like the
    // rt_*/sched_* families.
    std::uint64_t coll_schedules_built = 0;      ///< Schedule compilations
    std::uint64_t coll_schedule_cache_hits = 0;  ///< reuses of a cached compiled Schedule
    std::uint64_t coll_rounds_executed = 0;      ///< schedule rounds fully retired
    std::uint64_t coll_overlap_progress_calls = 0;  ///< CollRequest::test() progress pokes

    // Sparse dynamic data exchange counters (runtime/sparse.cpp). One NBX
    // exchange per collective call; messages count only true remote
    // payloads (self-delivery is a local copy and acks are zero-byte
    // control traffic tallied separately).
    std::uint64_t rt_sparse_exchanges = 0;   ///< sparse_exchange invocations completed
    std::uint64_t rt_sparse_msgs_sent = 0;   ///< remote payload messages sent
    std::uint64_t rt_sparse_msgs_recvd = 0;  ///< remote payload messages received
    std::uint64_t rt_sparse_probe_polls = 0; ///< consensus-loop iprobe passes

    // Retired protocol-selection tallies: point-to-point sends are always
    // buffered eager, so nothing increments these. Kept declared only
    // because the benchmark (perfbench/) still reads them.
    std::uint64_t rt_proto_eager_chosen = 0;
    std::uint64_t rt_proto_rdzv_chosen = 0;

    // One-sided RMA counters (runtime/win.cpp + coll/persistent.cpp). Puts
    // and gets are window transfers (a typed put straight into the target's
    // receive layout counts as one put); fences tally epoch closes, flushes the
    // per-target completion calls, pscw epochs the start/complete pairs. A
    // steady-state RMA plan execute shows puts and fences but zero
    // deliveries and zero matching traffic — that absence is the point, and
    // benches attest it through these counters.
    std::uint64_t rt_rma_puts = 0;         ///< window puts issued
    std::uint64_t rt_rma_put_bytes = 0;    ///< bytes written by puts
    std::uint64_t rt_rma_gets = 0;         ///< window gets issued
    std::uint64_t rt_rma_get_bytes = 0;    ///< bytes read by gets
    std::uint64_t rt_rma_fences = 0;       ///< fence epochs closed
    std::uint64_t rt_rma_flushes = 0;      ///< per-target / all-target flushes
    std::uint64_t rt_rma_pscw_epochs = 0;  ///< pscw access epochs completed
    std::uint64_t coll_rma_plan_executes = 0;  ///< persistent-plan executes on the RMA path

    // Datatype kernel-dispatch counters (datatype/plan.cpp + simd.cpp).
    // Every PackPlan::pack_range/unpack_range call is tallied per compiled
    // kernel class (indexed by PackKernel: Contiguous=0, Strided=1,
    // BlockedStrided=2, Irregular=3); the dt_simd_* byte counts cover only
    // bytes moved through vector-register kernels, so benches can attest
    // the SIMD path actually ran rather than the scalar floor.
    std::uint64_t dt_simd_pack_bytes = 0;    ///< pack bytes moved by vector kernels
    std::uint64_t dt_simd_unpack_bytes = 0;  ///< unpack bytes moved by vector kernels
    std::array<std::uint64_t, 4> dt_kernel_dispatch{};  ///< calls per PackKernel class

    void reset() { *this = StatCounters{}; }

    StatCounters& operator+=(const StatCounters& o) {
        bytes_packed += o.bytes_packed;
        blocks_packed += o.blocks_packed;
        search_events += o.search_events;
        search_blocks_visited += o.search_blocks_visited;
        lookahead_events += o.lookahead_events;
        lookahead_blocks += o.lookahead_blocks;
        dense_chunks += o.dense_chunks;
        sparse_chunks += o.sparse_chunks;
        plan_hits += o.plan_hits;
        plan_compiles += o.plan_compiles;
        engine_builds += o.engine_builds;
        scratch_allocs += o.scratch_allocs;
        persistent_executes += o.persistent_executes;
        sched_pending_sends += o.sched_pending_sends;
        sched_deferrals += o.sched_deferrals;
        sched_reorders += o.sched_reorders;
        sched_stalls += o.sched_stalls;
        sched_wakeup_delays += o.sched_wakeup_delays;
        rt_zero_copy_msgs += o.rt_zero_copy_msgs;
        rt_bytes_copied += o.rt_bytes_copied;
        rt_pool_hits += o.rt_pool_hits;
        rt_pool_misses += o.rt_pool_misses;
        rt_payload_allocs += o.rt_payload_allocs;
        rt_lane_fast_deliveries += o.rt_lane_fast_deliveries;
        rt_lane_overflow_deliveries += o.rt_lane_overflow_deliveries;
        rt_lock_acquisitions += o.rt_lock_acquisitions;
        rt_cv_waits += o.rt_cv_waits;
        rt_cv_waits_recv += o.rt_cv_waits_recv;
        rt_cv_waits_send += o.rt_cv_waits_send;
        rt_cv_waits_epoch += o.rt_cv_waits_epoch;
        rt_cv_waits_probe += o.rt_cv_waits_probe;
        rt_spin_windows += o.rt_spin_windows;
        rt_cv_notifies += o.rt_cv_notifies;
        rt_pool_local_hits += o.rt_pool_local_hits;
        if (o.rt_pool_resident_bytes > rt_pool_resident_bytes) {
            rt_pool_resident_bytes = o.rt_pool_resident_bytes;
        }
        rt_proto_eager_chosen += o.rt_proto_eager_chosen;
        rt_proto_rdzv_chosen += o.rt_proto_rdzv_chosen;
        rt_rma_puts += o.rt_rma_puts;
        rt_rma_put_bytes += o.rt_rma_put_bytes;
        rt_rma_gets += o.rt_rma_gets;
        rt_rma_get_bytes += o.rt_rma_get_bytes;
        rt_rma_fences += o.rt_rma_fences;
        rt_rma_flushes += o.rt_rma_flushes;
        rt_rma_pscw_epochs += o.rt_rma_pscw_epochs;
        coll_rma_plan_executes += o.coll_rma_plan_executes;
        rt_sparse_exchanges += o.rt_sparse_exchanges;
        rt_sparse_msgs_sent += o.rt_sparse_msgs_sent;
        rt_sparse_msgs_recvd += o.rt_sparse_msgs_recvd;
        rt_sparse_probe_polls += o.rt_sparse_probe_polls;
        coll_schedules_built += o.coll_schedules_built;
        coll_schedule_cache_hits += o.coll_schedule_cache_hits;
        coll_rounds_executed += o.coll_rounds_executed;
        coll_overlap_progress_calls += o.coll_overlap_progress_calls;
        dt_simd_pack_bytes += o.dt_simd_pack_bytes;
        dt_simd_unpack_bytes += o.dt_simd_unpack_bytes;
        for (std::size_t i = 0; i < dt_kernel_dispatch.size(); ++i) {
            dt_kernel_dispatch[i] += o.dt_kernel_dispatch[i];
        }
        return *this;
    }
};

}  // namespace nncomm

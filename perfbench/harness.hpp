// Measurement harness of the nncomm benchmark driver.
//
// Every workload runs its ops in a closed loop on the rank threads of one
// rt::World: one op in flight, each rank starting the next op only after
// every rank finished the previous one. The harness owns what is common to
// all workloads:
//
//   - PhaseDriver: the lock-step op loop. Per op, every rank waits at a
//     start barrier, runs the op between two clock reads, then waits at an
//     end barrier whose last arriver records the op's time as (latest end
//     - earliest start) over the ranks, i.e. until the slowest rank
//     finished, and decides for all ranks whether the phase goes on. The
//     time a rank spends in the end barrier is its wait for the slowest.
//     A timed phase is cut into 1-second blocks. At every block boundary
//     all ranks run the same fixed calibration loop at once, so each block
//     knows how fast the host's CPUs ran when it started, and each block is
//     tagged with the share of CPU time the host took away from this VM
//     during it (CPU steal in /proc/stat). The phase runs until it has
//     `seconds` of blocks within kStealLimit, or hits its cap; its timings
//     cover those blocks in the order they ran, and blocks above the limit
//     are counted only when the cap left too few clean ones
//     (BlockStats::contended).
//   - Histogram: log-spaced 0.5%-wide bins of op times, so memory does not
//     grow with the op count and blocks merge by adding counts (or shifting
//     bins, to rescale a block to the reference host speed).
//   - Tracer: per-rank in-memory spans (name, layer, start, end, parent,
//     op id) around the public library calls the benchmark makes, with the
//     self time of every layer summed as spans close, and a Chrome
//     trace-event writer.
//   - CounterDelta: differences of Comm::counters()/timers() snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.hpp"
#include "runtime/comm.hpp"

namespace perf {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// splitmix64 finalizer: the benchmark's only source of payload values.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Deterministic payload value in [0.5, 1.5) for (seed, a, b, c).
inline double payload_value(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                            std::uint64_t c = 0) {
    const std::uint64_t h = mix64(mix64(mix64(seed ^ mix64(a)) ^ b) ^ c);
    return 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

double median_of(std::vector<double> v);

/// Host-speed calibration: a fixed chain of kCalibrationSteps dependent
/// mix64 steps (pure ALU latency, no memory). Returns its time in ns.
inline constexpr int kCalibrationSteps = 200'000;
std::int64_t calibration_loop_ns();
/// The calibration time that defines the reference host speed: durations
/// are reported as if the loop had taken exactly this long.
inline constexpr double kReferenceCalibrationNs = 1.0e6;

/// Durations (ns) in log-spaced bins 0.5% wide, from 10 ns to ~1000 s.
class Histogram {
public:
    Histogram();
    void add(double ns);
    void merge(const Histogram& o);
    /// Adds `o` with every duration multiplied by `factor` (to the nearest
    /// bin).
    void merge_scaled(const Histogram& o, double factor);
    void clear();
    std::uint64_t count() const { return n_; }
    /// Quantile q in [0, 1] at rank q * (count - 1), interpolated inside
    /// its bin.
    double quantile(double q) const;

private:
    std::vector<std::uint32_t> bins_;
    std::uint64_t n_ = 0;
};

/// Aggregate CPU steal and total jiffies from /proc/stat ({0, 0} when
/// unavailable).
struct StealSample {
    std::uint64_t steal = 0, total = 0;
    static StealSample now();
    /// Steal share of all CPU time between `before` and this sample.
    double share_since(const StealSample& before) const;
};

// ---------------------------------------------------------------------------
// Tracing

struct Span {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index in the rank's stored spans, -1 for a root
    std::int64_t op = -1;
};

/// One rank's span recorder. Every closed span counts toward the layer
/// self times; only the first kSpansPerSection of each section (the traced
/// phase, each probe) are kept for the trace file.
class Tracer {
public:
    static constexpr std::size_t kSpansPerSection = 1500;

    bool enabled = false;
    std::int64_t op_id = -1;  ///< stamped on every span opened

    void new_section() { section_stored_ = 0; }
    void begin(const char* name, const char* layer);
    void end();

    const std::vector<Span>& spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }
    /// Self time (span duration minus the part its children cover) summed
    /// per layer over every span closed.
    const std::map<std::string, double>& self_ns() const { return self_ns_; }

private:
    struct Open {
        Span span;
        std::int64_t child_ns = 0;
        int stored = -1;
    };
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::size_t section_stored_ = 0;
    std::uint64_t dropped_ = 0;
    std::map<std::string, double> self_ns_;
};

/// RAII span; records nothing when the tracer is disabled.
class ScopedSpan {
public:
    ScopedSpan(Tracer& t, const char* name, const char* layer) : t_(t) {
        if (t_.enabled) t_.begin(name, layer);
    }
    ~ScopedSpan() {
        if (t_.enabled) t_.end();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer& t_;
};

/// Writes every rank's stored spans as Chrome trace-event JSON ("X" events,
/// one tid per rank, microseconds since `origin_ns`).
bool write_chrome_trace(const std::string& path, const std::vector<Tracer>& tracers,
                        std::int64_t origin_ns);

// ---------------------------------------------------------------------------
// Counters

struct CounterSnap {
    nncomm::StatCounters c;
    nncomm::PhaseTimers t;
    static CounterSnap of(const nncomm::rt::Comm& comm) { return {comm.counters(), comm.timers()}; }
};

/// (after - before) of the Comm statistics the per-layer metrics use.
struct CounterDelta {
    double bytes_packed = 0, simd_pack_bytes = 0, search_blocks = 0, plan_compiles = 0,
           engine_builds = 0, scratch_allocs = 0;
    double bytes_copied = 0, zero_copy = 0, pool_hits = 0, pool_misses = 0,
           payload_allocs = 0, lane_fast = 0, lane_overflow = 0, locks = 0, cv_waits = 0,
           cv_notifies = 0, eager_chosen = 0, rdzv_chosen = 0, rma_puts = 0, rma_fences = 0;
    double schedules_built = 0, schedule_cache_hits = 0, rounds = 0;
    double comm_ns = 0, pack_ns = 0, search_ns = 0;
    double pool_resident_bytes = 0;  ///< high-water mark at `after`, not a delta

    static CounterDelta between(const CounterSnap& before, const CounterSnap& after);
    /// Field-wise mean over ranks (the water mark takes the max).
    static CounterDelta mean(const std::vector<CounterDelta>& per_rank);
};

// ---------------------------------------------------------------------------
// Lock-step op loop

/// Thrown by ranks waiting in a harness barrier after another rank failed.
/// Derives from rt::AbortedError so World::run reports the root cause.
class Aborted : public nncomm::rt::AbortedError {
public:
    Aborted() : nncomm::rt::AbortedError("perfbench: another rank failed") {}
};

/// Sense-reversing barrier whose last arriver runs a completion callback
/// before it releases the others. Waiters spin briefly, then yield.
class SpinBarrier {
public:
    SpinBarrier(int n, const std::atomic<bool>& aborted) : n_(n), aborted_(aborted) {}

    /// Returns the nanoseconds this caller waited.
    template <typename F>
    std::int64_t arrive_and_wait(F&& on_complete) {
        const std::int64_t t0 = now_ns();
        const bool sense = !sense_.load(std::memory_order_relaxed);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
            on_complete();
            count_.store(0, std::memory_order_relaxed);
            sense_.store(sense, std::memory_order_release);
        } else {
            int spins = 0;
            while (sense_.load(std::memory_order_acquire) != sense) {
                if (aborted_.load(std::memory_order_relaxed)) throw Aborted();
                if (++spins > 4000) std::this_thread::yield();
            }
        }
        return now_ns() - t0;
    }
    std::int64_t arrive_and_wait() {
        return arrive_and_wait([] {});
    }

private:
    const int n_;
    const std::atomic<bool>& aborted_;
    std::atomic<int> count_{0};
    std::atomic<bool> sense_{false};
};

/// Blocks whose CPU steal share exceeds this are counted only when a phase
/// hit its cap with too few other blocks.
inline constexpr double kStealLimit = 0.03;

/// Op-time statistics of a set of blocks. Times are at the reference host
/// speed (each block rescaled by kReferenceCalibrationNs over its
/// calibration time); the raw_ fields are as measured.
struct BlockStats {
    std::uint64_t ops = 0;  ///< counted ops
    double p50_ms = 0.0, p90_ms = 0.0;
    std::uint64_t samples_beyond_p90 = 0;
    double ops_per_s = 0.0;  ///< counted ops over counted time
    double raw_p50_ms = 0.0, raw_p90_ms = 0.0, raw_ops_per_s = 0.0;
    double calibration_ms = 0.0;  ///< median calibration time of the counted blocks
    int blocks = 0, disturbed_blocks = 0;
    bool contended = false;  ///< a counted block exceeded kStealLimit
};

/// Closed time blocks of one or more phases, possibly from several Worlds.
/// Storage is allocated up front, so memory use does not depend on how many
/// blocks a run fills.
class BlockPool {
public:
    static constexpr std::size_t kCapacity = 128;

    BlockPool();
    void clear();
    bool full() const { return used_ == blocks_.size(); }
    /// Adds one closed block (ignored when full); `calibration_ns` is the
    /// calibration time measured when the block started.
    void add(const Histogram& times, std::int64_t ns, double steal, double calibration_ns);
    /// Timings over the blocks within kStealLimit, in the order they ran,
    /// until they add up to `seconds` and `min_ops`; disturbed blocks follow
    /// only when the clean ones fall short.
    BlockStats stats(double seconds, std::uint64_t min_ops) const;

private:
    struct Block {
        Histogram times;
        std::int64_t ns = 0;
        double steal = 0.0;
        double calibration_ns = kReferenceCalibrationNs;
    };
    std::vector<Block> blocks_;
    std::size_t used_ = 0;
};

/// When a phase ends: once it has `seconds` of counted time and `min_ops`
/// counted ops, or at `max_ops` ops, or after `cap_seconds` whatever it
/// has. With `block_seconds` > 0, only blocks of that length whose steal
/// share stays within kStealLimit count toward ending the phase, and every
/// block is calibrated; with 0, the whole phase is one uncalibrated block
/// (reported as measured) and always counts. With `pool` set, the
/// phase's blocks go there, to be summarized together with other phases'.
struct PhaseSpec {
    double seconds = 0.0;
    std::uint64_t min_ops = 1;
    std::uint64_t max_ops = UINT64_MAX;
    double cap_seconds = 120.0;
    double block_seconds = 0.0;
    BlockPool* pool = nullptr;
};

/// What every rank gets back from a phase.
struct PhaseResult {
    std::uint64_t ops = 0;         ///< ops run in this phase
    std::uint64_t failed_ops = 0;  ///< ops whose check failed on any rank
    BlockStats timing;             ///< over the phase's pool
    double wait_ms_per_op = 0.0;   ///< mean over ranks of the end-barrier wait
};

/// Shared by the rank threads of one World; every rank calls run() with the
/// same spec and the same sequence of phases.
class PhaseDriver {
public:
    PhaseDriver(int nranks);

    /// Runs the lock-step loop on one rank. `prepare(i)` and `check(i)` run
    /// outside the timed interval; `op(i)` inside it. `check` returns false
    /// when op i's output is wrong. Any exception aborts every rank.
    template <typename Prepare, typename Op, typename Check>
    PhaseResult run(int rank, const PhaseSpec& spec, Prepare&& prepare, Op&& op,
                    Check&& check);

    /// Plain barrier over the rank threads (abort-aware).
    void barrier() { bar_.arrive_and_wait(); }
    /// Marks the run failed so ranks waiting in the harness give up.
    void abort() { aborted_.store(true); }

private:
    struct alignas(64) Slot {
        std::int64_t t0 = 0, t1 = 0, wait_ns = 0, calibration_ns = 0;
        std::vector<std::uint64_t> failed;
    };

    void start_phase(const PhaseSpec& spec);
    /// All ranks: runs the calibration loop at once and opens a block.
    void calibrate_and_open_block(Slot& me);
    void open_block();
    void record_op();
    void close_block(std::int64_t end_ns);
    PhaseResult finish_phase();

    const int nranks_;
    std::atomic<bool> aborted_{false};
    SpinBarrier bar_;
    std::vector<Slot> slots_;
    PhaseSpec spec_{};
    BlockPool own_pool_;
    BlockPool* pool_ = &own_pool_;
    Histogram block_;  ///< the open block
    std::uint64_t block_ops_ = 0;
    std::int64_t phase_start_ = 0, last_end_ = 0, block_start_ = 0;
    double block_calibration_ns_ = kReferenceCalibrationNs;
    bool calibrate_ = false;  ///< the next block needs calibrating first
    StealSample block_steal_{};
    std::uint64_t ops_ = 0;
    std::int64_t clean_ns_ = 0;  ///< this phase's time in blocks within kStealLimit
    std::uint64_t clean_ops_ = 0;
    bool go_ = false;
    PhaseResult result_{};
};

template <typename Prepare, typename Op, typename Check>
PhaseResult PhaseDriver::run(int rank, const PhaseSpec& spec, Prepare&& prepare, Op&& op,
                             Check&& check) {
    Slot& me = slots_[static_cast<std::size_t>(rank)];
    try {
        bar_.arrive_and_wait([&] { start_phase(spec); });
        for (std::uint64_t i = 0;; ++i) {
            if (calibrate_) calibrate_and_open_block(me);
            prepare(i);
            bar_.arrive_and_wait();
            me.t0 = now_ns();
            op(i);
            me.t1 = now_ns();
            me.wait_ns += bar_.arrive_and_wait([&] { record_op(); });
            if (!check(i)) me.failed.push_back(i);
            if (!go_) break;
        }
        bar_.arrive_and_wait([&] { result_ = finish_phase(); });
        PhaseResult out = result_;
        bar_.arrive_and_wait();  // nobody starts the next phase before all copied
        return out;
    } catch (...) {
        abort();
        throw;
    }
}

}  // namespace perf

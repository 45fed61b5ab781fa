// Persistent-plan scatter benchmark (real runtime, not the simulator).
//
// The Figure-16 workload shape — each rank scatters its stride-2 doubles
// to exactly one peer — executed repeatedly through each VecScatter
// backend, separating the FIRST execute (which compiles pack plans, sizes
// persistent buffers and builds any engines) from the AMORTIZED
// steady-state execute the solver loop actually pays for.
//
// For the DatatypeOptimized backend the same loop is also run with
// persistence off and the plan fast-path disabled: that is the path every
// call took before pack plans existed (per-call engine construction,
// scratch allocation and cursor-driven packing), so the ratio against the
// persistent steady state is the benefit of this subsystem. The run fails
// (exit 1, "pass": false) if that ratio drops below 1.5x.
//
// Results go to stdout as a table and to BENCH_persistent.json.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "petsckit/scatter.hpp"

using namespace nncomm;
using pk::Index;
using pk::IndexSet;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;

namespace {

constexpr int kRanks = 4;
constexpr Index kElems = 65536;  // doubles scattered per process
constexpr int kIters = 30;       // steady-state averaging window

struct Series {
    double first_ms = 0.0;
    double steady_ms = 0.0;
};

struct Results {
    Series backend[3];
    double nonpersistent_ms = 0.0;  // optimized backend, pre-plan path
    std::uint64_t plan_hits = 0;
    std::uint64_t engine_builds = 0;
    std::uint64_t scratch_allocs = 0;
    std::uint64_t steady_payload_allocs = 0;  // must be 0: pool fully recycles
    std::uint64_t pool_hits = 0;
    std::uint64_t bytes_copied = 0;
};

}  // namespace

int main() {
    Results res;

    rt::World world(kRanks);
    world.run([&](rt::Comm& comm) {
        Vec src(comm, 2 * kElems * kRanks);
        Vec dst(comm, kElems * kRanks);
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        std::vector<Index> from, to;
        for (int r = 0; r < kRanks; ++r) {
            for (Index j = 0; j < kElems; ++j) {
                from.push_back(r * 2 * kElems + 2 * j);
                to.push_back(((r + 1) % kRanks) * kElems + j);
            }
        }
        const IndexSet is_from = IndexSet::general(from);
        const IndexSet is_to = IndexSet::general(to);

        const ScatterBackend backends[3] = {ScatterBackend::HandTuned,
                                            ScatterBackend::DatatypeBaseline,
                                            ScatterBackend::DatatypeOptimized};
        for (int b = 0; b < 3; ++b) {
            // Fresh scatter per backend so the first execute really is the
            // plan-building one.
            VecScatter sc(src, is_from, dst, is_to);
            comm.reset_stats();
            comm.barrier();

            benchutil::Stopwatch first;
            sc.execute(src, dst, backends[b]);
            comm.barrier();
            const double first_ms = first.ms();

            // The first execute warms the payload pool; after that every
            // buffered envelope must recycle a pooled buffer.
            const std::uint64_t allocs_before_steady = comm.counters().rt_payload_allocs;
            benchutil::Stopwatch steady;
            for (int it = 0; it < kIters; ++it) sc.execute(src, dst, backends[b]);
            const std::uint64_t steady_allocs =
                comm.counters().rt_payload_allocs - allocs_before_steady;
            comm.barrier();
            const double steady_ms = steady.ms() / kIters;

            if (comm.rank() == 0) {
                res.backend[b] = Series{first_ms, steady_ms};
                if (backends[b] == ScatterBackend::DatatypeOptimized) {
                    const auto& c = comm.counters();
                    res.plan_hits = c.plan_hits;
                    res.engine_builds = c.engine_builds;
                    res.scratch_allocs = c.scratch_allocs;
                    res.steady_payload_allocs = steady_allocs;
                    res.pool_hits = c.rt_pool_hits;
                    res.bytes_copied = c.rt_bytes_copied;
                }
            }
        }

        // The pre-plan path: one-shot alltoallw every call, cursor packing.
        {
            VecScatter sc(src, is_from, dst, is_to);
            sc.set_persistent(false);
            dt::EngineConfig cfg = comm.engine_config();
            cfg.enable_plan_fastpath = false;
            comm.set_engine_config(cfg);
            sc.execute(src, dst, ScatterBackend::DatatypeOptimized);  // warm-up
            comm.barrier();
            benchutil::Stopwatch sw;
            for (int it = 0; it < kIters; ++it) {
                sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
            }
            comm.barrier();
            if (comm.rank() == 0) res.nonpersistent_ms = sw.ms() / kIters;
            cfg.enable_plan_fastpath = true;
            comm.set_engine_config(cfg);
        }

        // Sanity: the data actually moved.
        const int prev = (comm.rank() + kRanks - 1) % kRanks;
        for (Index j = 0; j < kElems; ++j) {
            const double expect = static_cast<double>(prev * 2 * kElems + 2 * j);
            if (dst.data()[j] != expect) {
                std::fprintf(stderr, "rank %d: wrong data at %lld\n", comm.rank(),
                             static_cast<long long>(j));
                std::abort();
            }
        }
    });

    const double speedup =
        res.backend[2].steady_ms > 0.0 ? res.nonpersistent_ms / res.backend[2].steady_ms : 0.0;
    const bool pass = speedup >= 1.5 && res.steady_payload_allocs == 0;

    std::printf("== Persistent VecScatter: first call vs amortized steady state ==\n");
    std::printf("%d ranks, %lld stride-2 doubles per process, %d steady iterations\n\n",
                kRanks, static_cast<long long>(kElems), kIters);
    benchutil::Table t({"Backend", "First (ms)", "Steady (ms)", "First/Steady"});
    const char* names[3] = {"hand-tuned", "datatype-baseline", "datatype-optimized"};
    for (int b = 0; b < 3; ++b) {
        t.add_row({names[b], benchutil::fmt(res.backend[b].first_ms, 3),
                   benchutil::fmt(res.backend[b].steady_ms, 3),
                   benchutil::fmt(res.backend[b].first_ms /
                                      (res.backend[b].steady_ms > 0.0
                                           ? res.backend[b].steady_ms
                                           : 1.0),
                                  2)});
    }
    t.print();
    std::printf("\nnon-persistent optimized path (per-call engines, cursor packing): %s ms\n",
                benchutil::fmt(res.nonpersistent_ms, 3).c_str());
    std::printf("persistent steady-state speedup over it: %.2fx (require >= 1.50x): %s\n",
                speedup, pass ? "PASS" : "FAIL");
    std::printf("optimized-backend counters: plan_hits=%llu engine_builds=%llu "
                "scratch_allocs=%llu\n",
                static_cast<unsigned long long>(res.plan_hits),
                static_cast<unsigned long long>(res.engine_builds),
                static_cast<unsigned long long>(res.scratch_allocs));
    std::printf("runtime counters: steady payload_allocs=%llu (require 0) "
                "pool_hits=%llu bytes_copied=%llu\n",
                static_cast<unsigned long long>(res.steady_payload_allocs),
                static_cast<unsigned long long>(res.pool_hits),
                static_cast<unsigned long long>(res.bytes_copied));

    FILE* f = std::fopen("BENCH_persistent.json", "w");
    if (f) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"persistent_scatter\",\n");
        std::fprintf(f, "  \"ranks\": %d,\n", kRanks);
        std::fprintf(f, "  \"elements_per_peer\": %lld,\n", static_cast<long long>(kElems));
        std::fprintf(f, "  \"steady_iterations\": %d,\n", kIters);
        std::fprintf(f, "  \"backends\": {\n");
        for (int b = 0; b < 3; ++b) {
            std::fprintf(f, "    \"%s\": { \"first_ms\": %.6f, \"steady_ms\": %.6f }%s\n",
                         names[b], res.backend[b].first_ms, res.backend[b].steady_ms,
                         b + 1 < 3 ? "," : "");
        }
        std::fprintf(f, "  },\n");
        std::fprintf(f, "  \"nonpersistent_optimized_ms\": %.6f,\n", res.nonpersistent_ms);
        std::fprintf(f, "  \"steady_speedup_vs_nonpersistent\": %.4f,\n", speedup);
        std::fprintf(f, "  \"optimized_counters\": { \"plan_hits\": %llu, "
                        "\"engine_builds\": %llu, \"scratch_allocs\": %llu, "
                        "\"steady_payload_allocs\": %llu, "
                        "\"pool_hits\": %llu, \"bytes_copied\": %llu },\n",
                     static_cast<unsigned long long>(res.plan_hits),
                     static_cast<unsigned long long>(res.engine_builds),
                     static_cast<unsigned long long>(res.scratch_allocs),
                     static_cast<unsigned long long>(res.steady_payload_allocs),
                     static_cast<unsigned long long>(res.pool_hits),
                     static_cast<unsigned long long>(res.bytes_copied));
        std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("\nwrote BENCH_persistent.json\n");
    }
    return pass ? 0 : 1;
}

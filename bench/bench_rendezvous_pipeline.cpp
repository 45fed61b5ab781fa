// Chunk-pipelined rendezvous on the real runtime.
//
// Gate, written to BENCH_pipeline.json: a persistent alltoallw moving a
// large strided payload between two ranks must run >= 1.2x faster with the
// chunk-pipelined rendezvous (pack chunk k+1 while chunk k copies,
// cache-hot staging window) than with pack-then-copy, and the
// rt_rdzv_pipelined_* counters must attest the fused path actually ran.
// Exits 1 when the gate fails.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "coll/persistent.hpp"
#include "runtime/comm.hpp"

using namespace nncomm;
using dt::Datatype;

namespace {

constexpr int kPipeIters = 60;
constexpr std::size_t kBlocks = 16384;
constexpr std::size_t kBlockElems = 32;  // 256 B blocks, 4 MiB payload

/// Persistent 2-rank alltoallw of one large strided message per direction,
/// rendezvous forced; returns per-execute ms with the pipeline on or off.
double strided_exchange_ms(bool pipelined, std::uint64_t* pipelined_msgs, int iters) {
    double out = 0.0;
    std::uint64_t fused = 0;
    rt::World w(2);
    w.run([&](rt::Comm& c) {
        c.set_rendezvous_threshold(1);  // every nonzero send rides rendezvous
        c.set_rendezvous_pipeline(pipelined);
        const int peer = 1 - c.rank();
        const auto n = static_cast<std::size_t>(c.size());

        // Strided send layout (vector of 32-double blocks, half-dense),
        // contiguous receive — the Fig. 16 halo shape scaled up.
        auto block = Datatype::contiguous(kBlockElems, Datatype::float64());
        auto strided = Datatype::vector(kBlocks, 1, 2, block);
        const std::size_t payload = kBlocks * kBlockElems * sizeof(double);

        std::vector<double> src(kBlocks * kBlockElems * 2, 1.5);
        std::vector<double> dst(kBlocks * kBlockElems, 0.0);

        std::vector<std::size_t> scounts(n, 0), rcounts(n, 0);
        std::vector<std::ptrdiff_t> sdispls(n, 0), rdispls(n, 0);
        std::vector<Datatype> stypes(n, Datatype::byte()), rtypes(n, Datatype::byte());
        scounts[static_cast<std::size_t>(peer)] = 1;
        stypes[static_cast<std::size_t>(peer)] = strided;
        rcounts[static_cast<std::size_t>(peer)] = payload / sizeof(double);
        rtypes[static_cast<std::size_t>(peer)] = Datatype::float64();

        // Two-sided graph forced: the RMA lowering has no Pack+Send pair
        // to fuse, so under Protocol::Auto this gate would measure nothing.
        coll::CollConfig config;
        config.persistent_protocol = rt::Protocol::Rendezvous;
        coll::AlltoallwPlan plan(c, scounts, sdispls, stypes, rcounts, rdispls, rtypes, config);
        for (int it = 0; it < 5; ++it) plan.execute(src.data(), dst.data());
        c.barrier();
        benchutil::Stopwatch sw;
        for (int it = 0; it < iters; ++it) plan.execute(src.data(), dst.data());
        const double ms = sw.ms() / iters;
        c.barrier();
        if (c.rank() == 0) {
            out = ms;
            fused = c.counters().rt_rdzv_pipelined_msgs;
        }
    });
    if (pipelined_msgs != nullptr) *pipelined_msgs = fused;
    return out;
}

}  // namespace

int main() {
    std::printf("== Chunk-pipelined rendezvous ==\n");

    std::uint64_t fused_msgs = 0;
    const double serial_ms = strided_exchange_ms(false, nullptr, kPipeIters);
    const double pipe_ms = strided_exchange_ms(true, &fused_msgs, kPipeIters);
    const double speedup = pipe_ms > 0.0 ? serial_ms / pipe_ms : 0.0;
    const bool pass = speedup >= 1.2 && fused_msgs > 0;
    std::printf("\npipelined rendezvous, 4 MiB strided persistent alltoallw (2 ranks):\n"
                "serial %.3f ms, pipelined %.3f ms, speedup %.2fx, fused msgs %llu — %s\n",
                serial_ms, pipe_ms, speedup, static_cast<unsigned long long>(fused_msgs),
                pass ? "PASS" : "FAIL");

    FILE* f = std::fopen("BENCH_pipeline.json", "w");
    if (f) {
        std::fprintf(f,
                     "{\n  \"bench\": \"rendezvous_pipeline\",\n"
                     "  \"pipeline\": { \"serial_ms\": %.3f, \"pipelined_ms\": %.3f, "
                     "\"speedup\": %.2f, \"fused_msgs\": %llu, \"gate\": 1.2 },\n"
                     "  \"pass\": %s\n}\n",
                     serial_ms, pipe_ms, speedup, static_cast<unsigned long long>(fused_msgs),
                     pass ? "true" : "false");
        std::fclose(f);
        std::printf("wrote BENCH_pipeline.json\n");
    }
    return pass ? 0 : 1;
}

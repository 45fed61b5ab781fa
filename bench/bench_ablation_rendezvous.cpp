// Ablation: the simulator's rendezvous threshold (default 32 KiB).
//
// Two views of the same tradeoff, both in the LogGP simulator, which
// models the paper's MVAPICH2 testbed. The protocol split is explicit in
// the cost model: an eager send pays the staging
// copy twice (sender pack, receiver unpack), a rendezvous send pays one
// handshake round trip but moves its bytes once. On the paper testbed
// (copy at 0.00025 us/B, handshake 9.4 us) the copy the protocol saves
// outgrows the handshake at ~37 KB, so any threshold between the 16 KiB
// and 64 KiB workload sizes is optimal and 32 KiB is the power of two in
// that window. Sweeping the threshold over a log-uniform message mix
// traces the U-curve around that point.
//
// The second view sweeps the same threshold grid over four Fig. 15/16-like
// communication shapes and reports each shape's optimal static threshold.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "netsim/sim.hpp"

using namespace nncomm;

namespace {

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// The static sweep grid every simulator view shares.
constexpr std::size_t kThresholdGrid[] = {0,      1024,    8192, 32768,
                                          262144, 2097152, kNever};

std::string threshold_name(std::size_t thr) {
    return thr == kNever ? "never" : std::to_string(thr);
}

// ---- Simulator sweep ------------------------------------------------------

// Log-uniform message mix: many small control messages, few large payloads.
struct MixEntry {
    std::uint64_t bytes;
    int count;
};
constexpr MixEntry kMix[] = {
    {256, 64}, {1024, 64}, {4096, 32}, {16384, 32},
    {65536, 16}, {262144, 8}, {1048576, 4}, {4194304, 2},
};

/// Rank 0 pingpongs every message of the mix off rank 1: each echo puts
/// both protocol copies on the critical path (a one-way stream would hide
/// the receiver's eager unpack behind the sender's serialization).
sim::SimResult run_mix(std::size_t threshold) {
    sim::ClusterConfig cluster = sim::make_paper_testbed(2);
    cluster.rendezvous_threshold = threshold;
    std::vector<sim::RankProgram> progs(2);
    int tag = 0;
    for (const auto& e : kMix) {
        for (int i = 0; i < e.count; ++i, ++tag) {
            progs[0].push_back(sim::Op::send(1, tag, e.bytes));
            progs[0].push_back(sim::Op::recv(1, tag));
            progs[1].push_back(sim::Op::recv(0, tag));
            progs[1].push_back(sim::Op::send(0, tag, e.bytes));
        }
    }
    return sim::Simulator(cluster).run(progs);
}

// ---- Per-shape sweep ------------------------------------------------------

/// A shape is a per-(src, dst) volume function over `nprocs` ranks,
/// exchanged `rounds` times (every rank sends to and receives from every
/// peer with a nonzero volume each round).
struct Shape {
    const char* name;
    int nprocs;
    int rounds;
    std::uint64_t (*volume)(int src, int dst);
};

// Fig. 15-like alltoallw mixes: a nonuniform sparse pattern whose per-peer
// volumes straddle the crossover, plus uniform controls on either side of
// it. Fig. 16-like VecScatter: a halo pattern — bulk traffic to lattice
// neighbours, slivers to everyone adjacent in rank order.

std::uint64_t vol_uniform_small(int src, int dst) { return src == dst ? 0 : 4096; }
std::uint64_t vol_uniform_large(int src, int dst) { return src == dst ? 0 : 262144; }
std::uint64_t vol_fig15_nonuniform(int src, int dst) {
    if (src == dst) return 0;
    // Most pairs exchange control-sized messages; every third peer gets a
    // bulk payload — the nonuniform volume distribution of the paper's
    // sparse-matrix alltoallw.
    const int d = (dst - src + 64) % 3;
    if (d == 0) return 1048576;
    if (d == 1) return 16384;
    return 512;
}
std::uint64_t vol_fig16_halo(int src, int dst) {
    if (src == dst) return 0;
    const int dist = src > dst ? src - dst : dst - src;
    if (dist == 1) return 393216;  // face neighbour: bulk strided halo
    if (dist == 2) return 6144;    // edge neighbour: thin halo
    return 0;
}

constexpr Shape kShapes[] = {
    {"fig15_nonuniform", 8, 48, vol_fig15_nonuniform},
    {"fig16_halo", 8, 48, vol_fig16_halo},
    {"uniform_small", 4, 64, vol_uniform_small},
    {"uniform_large", 4, 64, vol_uniform_large},
};

/// One program per rank: per round, post all sends then all receives.
/// Simulator sends never block, so the order is deadlock-free.
std::vector<sim::RankProgram> build_programs(const Shape& s) {
    std::vector<sim::RankProgram> progs(static_cast<std::size_t>(s.nprocs));
    for (int t = 0; t < s.rounds; ++t) {
        for (int r = 0; r < s.nprocs; ++r) {
            auto& p = progs[static_cast<std::size_t>(r)];
            for (int d = 0; d < s.nprocs; ++d) {
                if (s.volume(r, d) > 0) p.push_back(sim::Op::send(d, t, s.volume(r, d)));
            }
            for (int d = 0; d < s.nprocs; ++d) {
                if (s.volume(d, r) > 0) p.push_back(sim::Op::recv(d, t));
            }
        }
    }
    return progs;
}

/// Sweeps the grid and returns the best static threshold (argmin makespan).
/// No injected skew: the sweep compares thresholds, not noise.
std::size_t best_static_threshold(const Shape& s, double* best_makespan) {
    double best = 0.0;
    std::size_t best_thr = 0;
    for (std::size_t thr : kThresholdGrid) {
        sim::ClusterConfig cluster = sim::make_paper_testbed(s.nprocs, /*skew_us_mean=*/0.0);
        cluster.rendezvous_threshold = thr;
        const double mk = sim::Simulator(cluster).run(build_programs(s)).makespan_us;
        if (best == 0.0 || mk < best) {
            best = mk;
            best_thr = thr;
        }
    }
    *best_makespan = best;
    return best_thr;
}

}  // namespace

int main() {
    std::printf("== Ablation: rendezvous threshold ==\n\n");
    std::printf("simulator, paper testbed: rank 0 pingpongs a log-uniform mix\n"
                "(256 B x64 ... 4 MiB x2, %d round trips) off rank 1\n\n",
                [] { int n = 0; for (const auto& e : kMix) n += e.count; return n; }());

    benchutil::Table sweep({"Threshold", "Makespan (us)", "Rendezvous msgs"});
    double best = 0.0;
    std::size_t best_thr = 0;
    for (std::size_t thr : kThresholdGrid) {
        const sim::SimResult r = run_mix(thr);
        if (best == 0.0 || r.makespan_us < best) {
            best = r.makespan_us;
            best_thr = thr;
        }
        sweep.add_row({threshold_name(thr),
                       benchutil::fmt(r.makespan_us, 1),
                       std::to_string(r.rendezvous_messages)});
    }
    sweep.print();
    std::printf("\nbest threshold in sweep: %s (default %llu)\n", threshold_name(best_thr).c_str(),
                static_cast<unsigned long long>(sim::ClusterConfig{}.rendezvous_threshold));

    // Per-shape static optimum over the same grid, reported in the JSON
    // as well as the human-readable table.
    std::printf("\nper-shape optimal static threshold\n\n");
    struct ShapeOpt {
        const char* name;
        std::size_t threshold;
        double makespan_us;
    };
    std::vector<ShapeOpt> shape_opts;
    benchutil::Table shape_tab({"Shape", "Best threshold", "Makespan (us)"});
    for (const Shape& shape : kShapes) {
        double mk = 0.0;
        const std::size_t thr = best_static_threshold(shape, &mk);
        shape_opts.push_back({shape.name, thr, mk});
        shape_tab.add_row({shape.name, threshold_name(thr), benchutil::fmt(mk, 1)});
    }
    shape_tab.print();

    FILE* f = std::fopen("BENCH_ablation_rendezvous.json", "w");
    if (f) {
        std::fprintf(f, "{\n  \"bench\": \"ablation_rendezvous\",\n");
        std::fprintf(f, "  \"mix_best_threshold\": %llu,\n",
                     static_cast<unsigned long long>(best_thr == kNever ? 0 : best_thr));
        std::fprintf(f, "  \"mix_best_makespan_us\": %.1f,\n", best);
        std::fprintf(f, "  \"per_shape_optimal\": [\n");
        for (std::size_t i = 0; i < shape_opts.size(); ++i) {
            std::fprintf(
                f, "    { \"shape\": \"%s\", \"threshold\": %llu, \"makespan_us\": %.1f }%s\n",
                shape_opts[i].name,
                static_cast<unsigned long long>(
                    shape_opts[i].threshold == kNever ? 0 : shape_opts[i].threshold),
                shape_opts[i].makespan_us, i + 1 < shape_opts.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("\nwrote BENCH_ablation_rendezvous.json\n");
    }

    std::printf("\nbelow the threshold the saved copy is cheaper than the handshake the\n"
                "simulator charges; above it the second copy dominates. 32 KiB sits in\n"
                "the optimal window on the paper testbed.\n");
    return 0;
}

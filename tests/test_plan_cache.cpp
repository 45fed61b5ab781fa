// Pack-plan cache behaviour (hit/miss/LRU, kernel classification) and the
// persistent-scatter guarantees built on top of it: steady-state
// VecScatter executes through the DatatypeOptimized backend perform no
// engine constructions and no scratch allocations, and the reverse/Add
// execution modes the plans must not break stay correct.
#include <gtest/gtest.h>

#include <vector>

#include "datatype/pack.hpp"
#include "datatype/plan.hpp"
#include "petsckit/scatter.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using dt::PackKernel;
using dt::PlanCache;
using pk::Index;
using pk::IndexSet;
using pk::InsertMode;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// classification

TEST(PlanClassification, KernelClasses) {
    // Dense tiling: one block per instance, size == extent.
    auto cont = Datatype::contiguous(32, Datatype::float64());
    EXPECT_EQ(cont.plan().kernel(), PackKernel::Contiguous);
    EXPECT_TRUE(cont.plan().specialized());

    // Vector pattern: uniform block length, constant stride.
    auto vec = Datatype::vector(16, 1, 4, Datatype::float64());
    EXPECT_EQ(vec.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(vec.plan().block_length(), 8u);
    EXPECT_EQ(vec.plan().block_stride(), 32);
    EXPECT_EQ(vec.plan().blocks_per_instance(), 16u);

    // Single block whose extent exceeds its size: the degenerate
    // count-strided case (instances are the strided blocks).
    auto gap = Datatype::resized(Datatype::float64(), 0, 24);
    EXPECT_EQ(gap.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(gap.plan().block_length(), 8u);

    // Non-arithmetic offsets: no specialized kernel.
    std::vector<std::size_t> lens{1, 1, 1};
    std::vector<std::ptrdiff_t> displs{0, 16, 56};
    auto irr = Datatype::hindexed(lens, displs, Datatype::float64());
    EXPECT_EQ(irr.plan().kernel(), PackKernel::Irregular);
    EXPECT_FALSE(irr.plan().specialized());

    // Uniform blocks with a shorter trailing block (the odd-count vector
    // shape) stay Strided: the vector run covers the uniform prefix and the
    // tail is copied exactly.
    std::vector<std::size_t> mlens{2, 1};
    std::vector<std::ptrdiff_t> mdispls{0, 32};
    auto mixed = Datatype::hindexed(mlens, mdispls, Datatype::float64());
    EXPECT_EQ(mixed.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(mixed.plan().block_length(), 16u);
    EXPECT_EQ(mixed.plan().tail_length(), 8u);
    EXPECT_EQ(mixed.plan().block_stride(), 32);

    // A trailing block *longer* than the uniform prefix has no vector-run
    // decomposition: irregular.
    std::vector<std::size_t> llens{1, 2};
    std::vector<std::ptrdiff_t> ldispls{0, 32};
    auto longtail = Datatype::hindexed(llens, ldispls, Datatype::float64());
    EXPECT_EQ(longtail.plan().kernel(), PackKernel::Irregular);

    // 2-D nested pattern (the transpose-column / DMDA face shape): uniform
    // inner runs at one stride repeated at a constant outer stride.
    auto elem = Datatype::contiguous(3, Datatype::float64());
    auto col = Datatype::vector(8, 1, 8, elem);
    auto col_resized = Datatype::resized(col, 0, elem.extent());
    auto transpose = Datatype::contiguous(8, col_resized);
    EXPECT_EQ(transpose.plan().kernel(), PackKernel::BlockedStrided);
    EXPECT_TRUE(transpose.plan().specialized());
    EXPECT_EQ(transpose.plan().block_length(), 24u);
    EXPECT_EQ(transpose.plan().inner_blocks(), 8u);
    EXPECT_EQ(transpose.plan().block_stride(), 8 * 24);
    EXPECT_EQ(transpose.plan().outer_stride(), 24);
}

TEST(PlanClassification, TailShapeHashesDistinctFromUniform) {
    // The trailing-short-block layout must not alias the uniform layout in
    // the plan cache: same leading block length and stride, different
    // structural signature, different compiled plan.
    auto& cache = PlanCache::instance();
    cache.reset();

    std::vector<std::size_t> ulens{2, 2};
    std::vector<std::ptrdiff_t> udispls{0, 32};
    auto uniform = Datatype::hindexed(ulens, udispls, Datatype::float64());

    std::vector<std::size_t> tlens{2, 1};
    std::vector<std::ptrdiff_t> tdispls{0, 32};
    auto tail = Datatype::hindexed(tlens, tdispls, Datatype::float64());

    EXPECT_EQ(uniform.plan().kernel(), PackKernel::Strided);
    EXPECT_EQ(tail.plan().kernel(), PackKernel::Strided);
    EXPECT_NE(uniform.plan().signature(), tail.plan().signature());
    EXPECT_NE(&uniform.plan(), &tail.plan());

    auto st = cache.stats();
    EXPECT_EQ(st.misses, 2u);  // two distinct compiles, no false sharing
    EXPECT_EQ(st.hits, 0u);
}

// ---------------------------------------------------------------------------
// cache hit/miss and LRU

TEST(PlanCacheTest, StructurallyEqualTypesShareOnePlan) {
    auto& cache = PlanCache::instance();
    cache.reset();

    // Two independently built, structurally identical types: one compile,
    // one hit, and literally the same plan object.
    auto a = Datatype::vector(8, 2, 5, Datatype::float64());
    auto b = Datatype::vector(8, 2, 5, Datatype::float64());
    const dt::PackPlan* pa = &a.plan();
    const dt::PackPlan* pb = &b.plan();
    EXPECT_EQ(pa, pb);

    auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.entries, 1u);

    // A structurally different type does not hit.
    auto c = Datatype::vector(8, 2, 6, Datatype::float64());
    EXPECT_NE(&c.plan(), pa);
    st = cache.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.entries, 2u);

    // The per-node memoization absorbs repeated plan() calls: no new
    // cache traffic.
    (void)a.plan();
    (void)a.plan();
    st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, 3u);
}

// The cache trusts (signature, size, extent, block count) as structural
// identity. Layouts sharing size, extent and block count but differing in
// their offsets — one block shifted, two blocks swapped, lengths traded
// between blocks — must get distinct signatures and plans, and every plan
// must pack its own layout's bytes.
TEST(PlanCacheTest, EqualSummariesWithDifferentOffsetsNeverShare) {
    auto& cache = PlanCache::instance();
    cache.reset();

    auto layout = [](std::vector<std::size_t> lens, std::vector<std::ptrdiff_t> displs) {
        // Resized to one fixed frame so lb and extent agree across variants.
        return Datatype::resized(Datatype::hindexed(lens, displs, Datatype::byte()), 0, 128);
    };
    std::vector<Datatype> types = {
        layout({8, 8, 8, 8}, {0, 24, 40, 72}),   // base
        layout({8, 8, 8, 8}, {8, 24, 40, 72}),   // first block shifted
        layout({8, 8, 8, 8}, {0, 24, 40, 80}),   // last block shifted
        layout({8, 8, 8, 8}, {24, 0, 40, 72}),   // first two blocks swapped
        layout({8, 8, 8, 8}, {0, 40, 24, 72}),   // middle blocks swapped
        layout({16, 8, 4, 4}, {0, 24, 40, 72}),  // lengths traded
        layout({4, 4, 8, 16}, {0, 24, 40, 72}),  // ... the other way round
        layout({8, 8, 8, 8}, {0, 16, 32, 48}),   // Strided ...
        layout({8, 8, 8, 8}, {8, 24, 40, 56}),   // ... shifted as a whole
        layout({8, 8, 8, 8}, {0, 24, 48, 72}),   // ... another stride
    };
    // Every single-block shift by 8 bytes of a longer list, plus adjacent
    // swaps: many near-identical layouts sharing one summary.
    std::vector<std::ptrdiff_t> base;
    for (std::ptrdiff_t i = 0; i < 12; ++i) base.push_back(i * 10 - (i % 3));
    const std::vector<std::size_t> lens(base.size(), 2);
    auto frame = [&](const std::vector<std::ptrdiff_t>& d) {
        return Datatype::resized(Datatype::hindexed(lens, d, Datatype::byte()), 0, 160);
    };
    types.push_back(frame(base));
    for (std::size_t i = 0; i < base.size(); ++i) {
        auto shifted = base;
        shifted[i] += 4;
        types.push_back(frame(shifted));
        if (i + 1 < base.size()) {
            auto swapped = base;
            std::swap(swapped[i], swapped[i + 1]);
            types.push_back(frame(swapped));
        }
    }

    std::vector<std::byte> buf(160);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 7 + 1);
    for (std::size_t i = 0; i < types.size(); ++i) {
        const Datatype& a = types[i];
        for (std::size_t j = 0; j < i; ++j) {
            const Datatype& b = types[j];
            if (a.size() != b.size() || a.extent() != b.extent() ||
                a.block_count() != b.block_count()) {
                continue;
            }
            EXPECT_NE(a.plan().signature(), b.plan().signature()) << i << " vs " << j;
            EXPECT_NE(&a.plan(), &b.plan()) << i << " vs " << j;
        }
        // Packs through its own plan exactly what the cursor reference packs.
        std::vector<std::byte> out(a.size()), ref(a.size());
        a.plan().pack(a.flat(), buf.data(), 1, std::span<std::byte>(out));
        dt::TypeCursor cur(&a.flat(), 1);
        dt::pack_bytes(buf.data(), cur, std::span<std::byte>(ref));
        EXPECT_EQ(out, ref) << "type " << i << " kernel "
                            << dt::pack_kernel_name(a.plan().kernel());
    }
    const auto st = cache.stats();
    EXPECT_EQ(st.misses, types.size());  // one compile per layout, no false sharing
    EXPECT_EQ(st.hits, 0u);
}

TEST(PlanCacheTest, LeastRecentlyUsedIsEvicted) {
    auto& cache = PlanCache::instance();
    cache.reset();
    cache.set_capacity(2);

    auto mk = [](std::ptrdiff_t stride) {
        return Datatype::vector(4, 1, stride, Datatype::float64());
    };

    (void)mk(3).plan();  // miss: {3}
    (void)mk(5).plan();  // miss: {5, 3}
    (void)mk(3).plan();  // hit:  {3, 5}
    (void)mk(7).plan();  // miss, evicts 5: {7, 3}
    (void)mk(3).plan();  // hit:  {3, 7}
    (void)mk(5).plan();  // miss again (was evicted), evicts 7

    auto st = cache.stats();
    EXPECT_EQ(st.misses, 4u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.evictions, 2u);
    EXPECT_EQ(st.entries, 2u);

    cache.set_capacity(PlanCache::kDefaultCapacity);
}

// ---------------------------------------------------------------------------
// persistent scatter: allocation-free steady state

// Stride-2 scatter (the §5.4 shape): every per-peer type compiles to the
// Strided kernel, so the persistent plan needs no engines at all.
TEST(PersistentScatter, StridedSteadyStateBuildsNoEnginesOrScratch) {
    constexpr int kRanks = 4;
    constexpr Index kN = 256;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, 2 * kN * kRanks);
        Vec dst(comm, kN * kRanks);
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }

        std::vector<Index> from, to;
        for (int r = 0; r < kRanks; ++r) {
            for (Index j = 0; j < kN; ++j) {
                from.push_back(r * 2 * kN + 2 * j);
                to.push_back(((r + 1) % kRanks) * kN + j);
            }
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));
        // This test pins the two-sided plan's staging mechanics (plan-time
        // scratch, engine-free strided kernels); the RMA lowering packs
        // straight into the peer window and allocates no scratch at all.
        sc.set_persistent_protocol(rt::Protocol::Eager);

        comm.reset_stats();
        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const coll::AlltoallwPlan* plan = sc.forward_plan();
        ASSERT_NE(plan, nullptr);
        const StatCounters first = plan->counters();
        EXPECT_EQ(first.persistent_executes, 1u);
        EXPECT_EQ(first.engine_builds, 0u);   // all peers strided-specialized
        EXPECT_GT(first.scratch_allocs, 0u);  // plan-time pack buffers
        EXPECT_GT(first.plan_hits, 0u);

        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const StatCounters steady = plan->counters();
        EXPECT_EQ(steady.persistent_executes, 3u);
        EXPECT_EQ(steady.engine_builds, first.engine_builds);
        EXPECT_EQ(steady.scratch_allocs, first.scratch_allocs);  // zero new
        EXPECT_GT(steady.plan_hits, first.plan_hits);

        // The Comm saw the same statistics.
        EXPECT_EQ(comm.counters().persistent_executes, 3u);

        // Correctness with fully reused buffers.
        const int prev = (comm.rank() + kRanks - 1) % kRanks;
        for (Index j = 0; j < kN; ++j) {
            EXPECT_DOUBLE_EQ(dst.data()[j], static_cast<double>(prev * 2 * kN + 2 * j));
        }
    });
}

// Jittered offsets: per-peer types are Irregular, so the plan builds one
// persistent engine per peer on the first execute and only resets it
// afterwards.
TEST(PersistentScatter, IrregularSteadyStateReusesEngines) {
    constexpr int kRanks = 4;
    constexpr Index kN = 128;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, 3 * kN * kRanks);
        Vec dst(comm, kN * kRanks);
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }

        // Aperiodic hash jitter on a base stride of 3: no constant stride,
        // and no periodic inner run either — a periodic jitter would
        // classify as the BlockedStrided plan kernel and need no engine.
        auto jitter = [](Index j) {
            return static_cast<Index>((static_cast<std::uint64_t>(j) * 2654435761ULL >> 7) % 2);
        };
        std::vector<Index> from, to;
        for (int r = 0; r < kRanks; ++r) {
            for (Index j = 0; j < kN; ++j) {
                from.push_back(r * 3 * kN + 3 * j + jitter(j));
                to.push_back(((r + 1) % kRanks) * kN + j);
            }
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const coll::AlltoallwPlan* plan = sc.forward_plan();
        ASSERT_NE(plan, nullptr);
        const StatCounters first = plan->counters();
        EXPECT_GT(first.engine_builds, 0u);  // irregular peers needed engines

        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        const StatCounters steady = plan->counters();
        EXPECT_EQ(steady.persistent_executes, 2u);
        EXPECT_EQ(steady.engine_builds, first.engine_builds);    // reset, not rebuilt
        EXPECT_EQ(steady.scratch_allocs, first.scratch_allocs);  // zero new

        const int prev = (comm.rank() + kRanks - 1) % kRanks;
        for (Index j = 0; j < kN; ++j) {
            const Index off = prev * 3 * kN + 3 * j + jitter(j);
            EXPECT_DOUBLE_EQ(dst.data()[j], static_cast<double>(off));
        }
    });
}

// ---------------------------------------------------------------------------
// reverse and Add modes

TEST(ScatterModes, ReverseInsertAgreesAcrossBackends) {
    constexpr int kRanks = 4;
    constexpr Index kN = 64;
    const Index total = kN * kRanks;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, total);
        Vec dst(comm, total);
        std::vector<Index> from, to;
        for (Index g = 0; g < total; ++g) {
            from.push_back(g);
            to.push_back((g + kN) % total);  // shift by one rank: all remote
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        for (auto backend : {ScatterBackend::HandTuned, ScatterBackend::DatatypeBaseline,
                             ScatterBackend::DatatypeOptimized}) {
            for (Index i = 0; i < src.local_size(); ++i) src.data()[i] = -1.0;
            for (Index i = 0; i < dst.local_size(); ++i) {
                dst.data()[i] = 1000.0 + static_cast<double>(dst.range().begin + i);
            }
            // Run reverse twice: the second pass exercises the persistent
            // reverse plan's buffer reuse on the optimized backend.
            sc.execute_reverse(src, dst, backend);
            sc.execute_reverse(src, dst, backend);
            for (Index i = 0; i < src.local_size(); ++i) {
                const Index g = src.range().begin + i;
                const Index source = (g + kN) % total;
                EXPECT_DOUBLE_EQ(src.data()[i], 1000.0 + static_cast<double>(source))
                    << pk::scatter_backend_name(backend) << " g=" << g;
            }
        }
    });
}

TEST(ScatterModes, ReverseAddAccumulatesOnHandTuned) {
    constexpr int kRanks = 4;
    constexpr Index kN = 64;
    const Index total = kN * kRanks;
    World w(kRanks);
    w.run([&](Comm& comm) {
        Vec src(comm, total);
        Vec dst(comm, total);
        std::vector<Index> from, to;
        for (Index g = 0; g < total; ++g) {
            from.push_back(g);
            to.push_back((g + kN) % total);
        }
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));

        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        for (Index i = 0; i < dst.local_size(); ++i) {
            dst.data()[i] = 1000.0 + static_cast<double>(dst.range().begin + i);
        }

        // Two accumulating reverse passes: src[g] += dst[(g+kN) % total],
        // twice (the ghost-contribution push-back pattern).
        sc.execute_reverse(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        sc.execute_reverse(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        for (Index i = 0; i < src.local_size(); ++i) {
            const Index g = src.range().begin + i;
            const double contrib = 1000.0 + static_cast<double>((g + kN) % total);
            EXPECT_DOUBLE_EQ(src.data()[i], static_cast<double>(g) + 2.0 * contrib);
        }

        // Forward Add accumulates into dst as well.
        for (Index i = 0; i < dst.local_size(); ++i) dst.data()[i] = 0.5;
        for (Index i = 0; i < src.local_size(); ++i) {
            src.data()[i] = static_cast<double>(src.range().begin + i);
        }
        sc.execute(src, dst, ScatterBackend::HandTuned, InsertMode::Add);
        for (Index i = 0; i < dst.local_size(); ++i) {
            const Index g = dst.range().begin + i;
            const Index source = (g + total - kN) % total;
            EXPECT_DOUBLE_EQ(dst.data()[i], 0.5 + static_cast<double>(source));
        }
    });
}

// Add mode on a datatype backend must be rejected (as in PETSc).
TEST(ScatterModes, AddRequiresHandTuned) {
    World w(2);
    w.run([&](Comm& comm) {
        Vec src(comm, 8), dst(comm, 8);
        std::vector<Index> from{0, 1}, to{4, 5};
        VecScatter sc(src, IndexSet::general(from), dst, IndexSet::general(to));
        EXPECT_THROW(sc.execute(src, dst, ScatterBackend::DatatypeOptimized, InsertMode::Add),
                     Error);
    });
}

}  // namespace

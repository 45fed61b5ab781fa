// Extended property tests: randomized datatype trees over the full
// constructor set (engines vs reference packer), cross-algorithm collective
// fuzzing, and point-to-point message storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "core/rng.hpp"
#include "datatype/engine.hpp"
#include "datatype/pack.hpp"

namespace {

using namespace nncomm;
using dt::Datatype;
using rt::Comm;
using rt::World;

// Ground truth: the cursor-driven reference packer, which deliberately
// never dispatches through a compiled PackPlan (pack.hpp). Both the
// engines and the plan kernels are validated against this.
std::vector<std::byte> reference_pack(const void* base, const Datatype& t, std::size_t count) {
    std::vector<std::byte> out(t.size() * count);
    dt::TypeCursor cur(&t.flat(), count);
    const std::size_t n =
        dt::pack_bytes(static_cast<const std::byte*>(base), cur, std::span<std::byte>(out));
    EXPECT_EQ(n, out.size());
    return out;
}

// ---------------------------------------------------------------------------
// randomized type trees over every constructor

Datatype random_type_full(Rng& rng, int depth) {
    if (depth == 0) {
        switch (rng.uniform_u64(0, 3)) {
            case 0: return Datatype::float64();
            case 1: return Datatype::int32();
            case 2: return Datatype::float32();
            default: return Datatype::byte();
        }
    }
    auto child = random_type_full(rng, depth - 1);
    switch (rng.uniform_u64(0, 6)) {
        case 0:
            return Datatype::contiguous(rng.uniform_u64(1, 4), child);
        case 1: {
            const std::size_t count = rng.uniform_u64(1, 4);
            const std::size_t bl = rng.uniform_u64(1, 3);
            const std::ptrdiff_t stride =
                static_cast<std::ptrdiff_t>(bl + rng.uniform_u64(0, 3));
            return Datatype::vector(count, bl, stride, child);
        }
        case 2: {
            const std::size_t count = rng.uniform_u64(1, 3);
            const std::size_t bl = rng.uniform_u64(1, 2);
            // Byte stride rounded up past the block span to avoid overlap.
            const std::ptrdiff_t stride =
                static_cast<std::ptrdiff_t>(bl) * child.extent() +
                static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 13));
            return Datatype::hvector(count, bl, stride, child);
        }
        case 3: {
            const std::size_t nb = rng.uniform_u64(1, 3);
            std::vector<std::size_t> lens(nb);
            std::vector<std::ptrdiff_t> displs(nb);
            std::ptrdiff_t at = 0;
            for (std::size_t i = 0; i < nb; ++i) {
                lens[i] = rng.uniform_u64(1, 2);
                displs[i] = at;
                at += static_cast<std::ptrdiff_t>(lens[i] + rng.uniform_u64(0, 2));
            }
            return Datatype::indexed(lens, displs, child);
        }
        case 4: {
            const std::size_t nb = rng.uniform_u64(1, 3);
            std::vector<std::ptrdiff_t> displs(nb);
            const std::size_t bl = rng.uniform_u64(1, 2);
            for (std::size_t i = 0; i < nb; ++i) {
                displs[i] = static_cast<std::ptrdiff_t>(i * (bl + rng.uniform_u64(0, 2)));
            }
            return Datatype::indexed_block(bl, displs, child);
        }
        case 5: {
            // Struct over two independently random children.
            auto other = random_type_full(rng, depth - 1);
            std::vector<std::size_t> lens{rng.uniform_u64(1, 2), rng.uniform_u64(1, 2)};
            const std::ptrdiff_t gap0 =
                static_cast<std::ptrdiff_t>(lens[0]) * child.extent() - child.lb();
            std::vector<std::ptrdiff_t> displs{
                -child.lb(), gap0 - other.lb() + static_cast<std::ptrdiff_t>(
                                                     rng.uniform_u64(0, 9))};
            std::vector<Datatype> types{child, other};
            return Datatype::struct_type(lens, displs, types);
        }
        default:
            return Datatype::resized(
                child, child.lb(),
                child.extent() + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 11)));
    }
}

class FullTypeTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullTypeTreeProperty, EnginesMatchReferenceOnArbitraryTrees) {
    Rng rng(GetParam() * 7919 + 13);
    auto t = random_type_full(rng, static_cast<int>(rng.uniform_u64(1, 3)));
    const std::size_t count = rng.uniform_u64(1, 3);

    // Size the buffer by true data bounds (resized types read past extent).
    const auto& flat = t.flat();
    const std::ptrdiff_t lo =
        std::min<std::ptrdiff_t>(0, flat.data_lb());  // struct displs keep data_lb >= 0 here
    ASSERT_GE(flat.data_lb(), 0) << "generator must not produce negative offsets";
    const std::size_t span = static_cast<std::size_t>(
        t.extent() * static_cast<std::ptrdiff_t>(count - 1) + flat.data_ub() + 8 - lo);
    std::vector<std::byte> buf(span);
    for (std::size_t i = 0; i < span; ++i) {
        buf[i] = static_cast<std::byte>(rng.uniform_u64(0, 255));
    }

    auto ref = reference_pack(buf.data(), t, count);
    EXPECT_EQ(ref.size(), t.size() * count);

    dt::EngineConfig cfg;
    cfg.pipeline_chunk = 1 + rng.uniform_u64(0, 300);
    cfg.density_threshold = (rng.uniform_u64(0, 1) != 0) ? 1.0 : 64.0;
    for (auto kind : {dt::EngineKind::SingleContext, dt::EngineKind::DualContext}) {
        auto e = dt::make_engine(kind, buf.data(), t, count, cfg);
        std::vector<std::byte> out;
        dt::ChunkView chunk;
        while (e->next_chunk(chunk)) {
            if (chunk.dense) {
                for (const auto& [p, len] : chunk.iov) out.insert(out.end(), p, p + len);
            } else {
                out.insert(out.end(), chunk.packed.begin(), chunk.packed.end());
            }
        }
        EXPECT_EQ(out, ref) << t.describe() << " count=" << count << " chunk="
                            << cfg.pipeline_chunk;
    }

    // Round trip through unpack restores the packed view (unpack_all goes
    // through the plan when one applies; repacking with the cursor keeps
    // the comparison anchored to the reference).
    std::vector<std::byte> buf2(span, std::byte{0});
    dt::unpack_all(buf2.data(), t, count, ref);
    auto repacked = reference_pack(buf2.data(), t, count);
    EXPECT_EQ(repacked, ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullTypeTreeProperty, ::testing::Range<std::uint64_t>(1, 61));

// ---------------------------------------------------------------------------
// compiled plan kernels vs the reference packer

class PlanKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanKernelProperty, KernelsAreByteIdenticalToReference) {
    Rng rng(GetParam() * 6277 + 5);

    Datatype t;
    bool must_specialize = false;
    switch (rng.uniform_u64(0, 2)) {
        case 0: {
            // Vector pattern: uniform block length, constant stride. Must
            // compile to a specialized kernel (Strided, or Contiguous when
            // the blocks tile densely).
            const std::size_t bl = rng.uniform_u64(1, 9);
            const std::size_t nb = rng.uniform_u64(1, 12);
            const std::ptrdiff_t stride =
                static_cast<std::ptrdiff_t>(bl + rng.uniform_u64(0, 5));
            t = Datatype::vector(nb, bl, stride, Datatype::float64());
            must_specialize = true;
            break;
        }
        case 1: {
            // Hindexed: sometimes an arithmetic progression (compiles to
            // Strided), sometimes jittered gaps (Irregular fallback).
            const std::size_t nb = rng.uniform_u64(2, 10);
            const std::size_t bl = rng.uniform_u64(1, 4);
            const bool arithmetic = rng.bernoulli(0.5);
            std::vector<std::size_t> lens(nb, bl);
            std::vector<std::ptrdiff_t> displs(nb);
            std::ptrdiff_t at = 0;
            for (std::size_t i = 0; i < nb; ++i) {
                displs[i] = at * 8;
                at += static_cast<std::ptrdiff_t>(
                    bl + (arithmetic ? 2 : rng.uniform_u64(1, 4)));
            }
            t = Datatype::hindexed(lens, displs, Datatype::float64());
            must_specialize = arithmetic;
            break;
        }
        default: {
            // Struct over mixed element types: block lengths differ, so
            // this generally lands in the Irregular class.
            std::vector<std::size_t> lens{rng.uniform_u64(1, 3), rng.uniform_u64(1, 3)};
            std::vector<std::ptrdiff_t> displs{
                0, static_cast<std::ptrdiff_t>(lens[0] * 8 + rng.uniform_u64(1, 9))};
            std::vector<Datatype> types{Datatype::float64(), Datatype::int32()};
            t = Datatype::struct_type(lens, displs, types);
            break;
        }
    }
    const std::size_t count = rng.uniform_u64(1, 4);

    const dt::PackPlan& plan = t.plan();
    if (must_specialize) {
        EXPECT_TRUE(plan.specialized()) << t.describe();
    }

    const auto& flat = t.flat();
    ASSERT_GE(flat.data_lb(), 0);
    const std::size_t span = static_cast<std::size_t>(
        t.extent() * static_cast<std::ptrdiff_t>(count - 1) + flat.data_ub() + 8);
    std::vector<std::byte> buf(span);
    for (std::size_t i = 0; i < span; ++i) {
        buf[i] = static_cast<std::byte>(rng.uniform_u64(0, 255));
    }

    auto ref = reference_pack(buf.data(), t, count);

    // Whole-message pack.
    std::vector<std::byte> out(ref.size());
    plan.pack(flat, buf.data(), count, std::span<std::byte>(out));
    EXPECT_EQ(out, ref) << t.describe() << " kernel=" << dt::pack_kernel_name(plan.kernel());

    // Random windows: the O(1) stream positioning agrees with stream
    // slices at arbitrary (pos, len), including mid-block entry and exit.
    for (int i = 0; i < 8 && !ref.empty(); ++i) {
        const std::uint64_t pos = rng.uniform_u64(0, ref.size() - 1);
        const std::size_t len = rng.uniform_u64(1, ref.size() - pos);
        std::vector<std::byte> window(len);
        plan.pack_range(flat, buf.data(), count, pos, std::span<std::byte>(window));
        EXPECT_TRUE(std::equal(window.begin(), window.end(),
                               ref.begin() + static_cast<std::ptrdiff_t>(pos)))
            << t.describe() << " pos=" << pos << " len=" << len;
    }

    // Unpack inverts pack: scatter the reference stream into a clean
    // buffer, then the reference packer must read it back identically.
    std::vector<std::byte> buf2(span, std::byte{0});
    plan.unpack(flat, buf2.data(), count, ref);
    auto repacked = reference_pack(buf2.data(), t, count);
    EXPECT_EQ(repacked, ref);

    // Windowed unpack too: two disjoint halves land the same as one shot.
    if (ref.size() >= 2) {
        std::vector<std::byte> buf3(span, std::byte{0});
        const std::size_t cut = ref.size() / 2;
        plan.unpack_range(flat, buf3.data(), count, 0,
                          std::span<const std::byte>(ref.data(), cut));
        plan.unpack_range(flat, buf3.data(), count, cut,
                          std::span<const std::byte>(ref.data() + cut, ref.size() - cut));
        EXPECT_EQ(reference_pack(buf3.data(), t, count), ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanKernelProperty, ::testing::Range<std::uint64_t>(1, 81));

// ---------------------------------------------------------------------------
// the compact IndexedBlock node vs its hindexed spelling

// indexed_block(bl, displs, child) means hindexed with every blocklength bl
// and displacements scaled by the child's extent. The IndexedBlock node
// stores bl once instead of an n-long blocklength vector; everything
// observable must still agree with the hindexed construction.
void expect_indexed_block_matches_hindexed(std::size_t bl,
                                           const std::vector<std::ptrdiff_t>& displs,
                                           const Datatype& child, std::size_t count) {
    std::vector<std::size_t> lens(displs.size(), bl);
    std::vector<std::ptrdiff_t> bytes(displs.size());
    for (std::size_t i = 0; i < displs.size(); ++i) bytes[i] = displs[i] * child.extent();
    const Datatype a = Datatype::indexed_block(bl, displs, child);
    const Datatype b = Datatype::hindexed(lens, bytes, child);
    const std::string what = a.describe() + " bl=" + std::to_string(bl);

    EXPECT_EQ(a.type_class(), dt::TypeClass::IndexedBlock);
    // Bounds straight from the MPI definition: the lowest/highest child
    // instance of any (non-empty) block.
    std::ptrdiff_t lb = 0, ub = 0;
    if (bl > 0 && !displs.empty()) {
        const auto [dmin, dmax] = std::minmax_element(bytes.begin(), bytes.end());
        lb = *dmin + child.lb();
        ub = *dmax + child.lb() + static_cast<std::ptrdiff_t>(bl) * child.extent();
    }
    EXPECT_EQ(a.lb(), lb) << a.describe();
    EXPECT_EQ(a.extent(), ub - lb) << a.describe();
    EXPECT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(a.lb(), b.lb()) << what;
    EXPECT_EQ(a.extent(), b.extent()) << what;
    EXPECT_EQ(a.is_contiguous(), b.is_contiguous()) << what;
    const auto& fa = a.flat().blocks();
    const auto& fb = b.flat().blocks();
    ASSERT_EQ(fa.size(), fb.size()) << what;
    for (std::size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fa[i].offset, fb[i].offset) << what << " block " << i;
        EXPECT_EQ(fa[i].length, fb[i].length) << what << " block " << i;
    }
    EXPECT_EQ(a.plan().kernel(), b.plan().kernel()) << what;
    EXPECT_EQ(a.plan().signature(), b.plan().signature()) << what;

    // Packed bytes through each type's plan, over a buffer covering the
    // footprint (displacements may be negative).
    const auto [first, last] = a.flat().footprint(count);
    const std::ptrdiff_t lo = std::min<std::ptrdiff_t>(first, 0);
    std::vector<std::byte> buf(static_cast<std::size_t>(std::max<std::ptrdiff_t>(last, 0) - lo));
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 31 + 7);
    const std::byte* base = buf.data() - lo;
    std::vector<std::byte> pa(a.size() * count), pb(b.size() * count);
    a.plan().pack(a.flat(), base, count, std::span<std::byte>(pa));
    b.plan().pack(b.flat(), base, count, std::span<std::byte>(pb));
    EXPECT_EQ(pa, pb) << what;
    EXPECT_EQ(pa, reference_pack(base, a, count)) << what;
}

TEST(IndexedBlock, MatchesUniformHindexed) {
    const Datatype f64 = Datatype::float64();
    const Datatype strided = Datatype::vector(3, 1, 2, f64);  // non-contiguous child
    // Zero blocklength: no data, no bounds.
    expect_indexed_block_matches_hindexed(0, {0, 3, 5}, f64, 2);
    // Empty displacement list.
    expect_indexed_block_matches_hindexed(2, {}, f64, 1);
    // Negative displacements move lb below zero.
    expect_indexed_block_matches_hindexed(1, {-4, 2, -1}, f64, 2);
    // Adjacent blocks merge in the flattened form.
    expect_indexed_block_matches_hindexed(2, {0, 2, 4, 10}, f64, 3);
    expect_indexed_block_matches_hindexed(1, {5, 6, 7, 8}, Datatype::int32(), 2);
    // Non-contiguous child: each block expands to strided child instances.
    expect_indexed_block_matches_hindexed(2, {0, 3, -2}, strided, 2);
    expect_indexed_block_matches_hindexed(1, {1, 0}, Datatype::resized(f64, 0, 24), 2);

    // Random shapes over the same children.
    Rng rng(4241);
    const Datatype children[] = {f64, Datatype::int32(), strided,
                                 Datatype::resized(Datatype::int32(), -4, 12)};
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t bl = rng.uniform_u64(0, 3);
        std::vector<std::ptrdiff_t> displs(rng.uniform_u64(0, 7));
        for (auto& d : displs) d = static_cast<std::ptrdiff_t>(rng.uniform_u64(0, 16)) - 8;
        expect_indexed_block_matches_hindexed(bl, displs, children[rng.uniform_u64(0, 3)],
                                              rng.uniform_u64(1, 3));
    }
}

// ---------------------------------------------------------------------------
// collective fuzzing: all allgatherv algorithms agree on random volume sets

class AllgathervFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllgathervFuzz, AlgorithmsAgreeOnRandomVolumes) {
    Rng rng(GetParam() * 104729);
    const int n = static_cast<int>(rng.uniform_u64(2, 10));
    std::vector<std::size_t> counts(static_cast<std::size_t>(n));
    std::vector<std::size_t> displs(static_cast<std::size_t>(n));
    std::size_t at = 0;
    for (int i = 0; i < n; ++i) {
        counts[static_cast<std::size_t>(i)] =
            rng.bernoulli(0.2) ? 0 : rng.uniform_u64(1, 200);
        displs[static_cast<std::size_t>(i)] = at;
        at += counts[static_cast<std::size_t>(i)];
    }
    if (at == 0) {
        counts[0] = 1;
        at = 1;
        for (int i = 1; i < n; ++i) displs[static_cast<std::size_t>(i)] = 1;
    }
    const bool pow2 = (n & (n - 1)) == 0;

    World w(n);
    w.run([&](Comm& c) {
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> send(std::max<std::size_t>(mine, 1));
        for (std::size_t j = 0; j < mine; ++j) {
            send[j] = 10000.0 * c.rank() + static_cast<double>(j);
        }
        std::vector<std::vector<double>> results;
        for (auto algo : {coll::AllgathervAlgo::Auto, coll::AllgathervAlgo::Ring,
                          coll::AllgathervAlgo::RecursiveDoubling,
                          coll::AllgathervAlgo::Dissemination}) {
            if (algo == coll::AllgathervAlgo::RecursiveDoubling && !pow2) continue;
            std::vector<double> recv(at, -1.0);
            coll::CollConfig cfg;
            cfg.allgatherv_algo = algo;
            coll::allgatherv(c, send.data(), mine, Datatype::float64(), recv.data(), counts,
                             displs, Datatype::float64(), cfg);
            results.push_back(std::move(recv));
        }
        for (std::size_t r = 1; r < results.size(); ++r) {
            EXPECT_EQ(results[r], results[0]) << "algo variant " << r << " n=" << n;
        }
        // And the contents are right.
        for (int i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < counts[static_cast<std::size_t>(i)]; ++j) {
                EXPECT_DOUBLE_EQ(results[0][displs[static_cast<std::size_t>(i)] + j],
                                 10000.0 * i + static_cast<double>(j));
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgathervFuzz, ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// point-to-point storms

TEST(RuntimeStorm, ManyToManyRandomTagsAndSizes) {
    const int n = 6;
    World w(n);
    w.run([&](Comm& c) {
        Rng rng(777 + static_cast<std::uint64_t>(c.rank()));
        constexpr int kMsgsPerPair = 20;
        // Everyone sends kMsgsPerPair messages to every other rank; message
        // m to peer p carries tag m and a size derived from (sender, m).
        std::vector<rt::Request> recvs;
        std::vector<std::vector<int>> recv_bufs;
        for (int src = 0; src < n; ++src) {
            if (src == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m) {
                const std::size_t len = 1 + static_cast<std::size_t>((src * 31 + m * 7) % 97);
                recv_bufs.emplace_back(len, -1);
                recvs.push_back(c.irecv(recv_bufs.back().data(), len * 4, Datatype::byte(),
                                        src, m));
            }
        }
        for (int dst = 0; dst < n; ++dst) {
            if (dst == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m) {
                const std::size_t len =
                    1 + static_cast<std::size_t>((c.rank() * 31 + m * 7) % 97);
                std::vector<int> payload(len);
                for (std::size_t j = 0; j < len; ++j) {
                    payload[j] = c.rank() * 100000 + m * 1000 + static_cast<int>(j);
                }
                c.send(payload.data(), len * 4, Datatype::byte(), dst, m);
            }
        }
        c.waitall(recvs);
        // Validate every received buffer.
        std::size_t idx = 0;
        for (int src = 0; src < n; ++src) {
            if (src == c.rank()) continue;
            for (int m = 0; m < kMsgsPerPair; ++m, ++idx) {
                const auto& buf = recv_bufs[idx];
                for (std::size_t j = 0; j < buf.size(); ++j) {
                    ASSERT_EQ(buf[j], src * 100000 + m * 1000 + static_cast<int>(j))
                        << "src=" << src << " m=" << m << " j=" << j;
                }
            }
        }
    });
}

TEST(RuntimeStorm, InterleavedCollectivesAndPointToPoint) {
    // Collectives on the internal context must not disturb user p2p
    // traffic that is in flight, including wildcard receives.
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        // Post a wildcard receive that stays pending across collectives.
        int late = -1;
        rt::Request pending =
            c.irecv(&late, sizeof(int), Datatype::byte(), rt::kAnySource, 999);

        for (int round = 0; round < 10; ++round) {
            double v = c.rank() + round;
            coll::allreduce(c, &v, 1, coll::ReduceOp::Sum);
            EXPECT_DOUBLE_EQ(v, n * round + n * (n - 1) / 2.0);
            c.barrier();
        }

        // Now satisfy the pending wildcard from the left neighbor.
        const int to = (c.rank() + 1) % n;
        const int payload = c.rank() * 11;
        c.send(&payload, sizeof(int), Datatype::byte(), to, 999);
        c.wait(pending);
        EXPECT_EQ(late, ((c.rank() + n - 1) % n) * 11);
    });
}

}  // namespace

// Tests for VecScatter across all three backends: permutations, gathers,
// strided scatters, the paper's §5.4 benchmark pattern, and traffic
// introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>

#include "petsckit/scatter.hpp"

namespace {

using namespace nncomm;
using pk::Index;
using pk::IndexSet;
using pk::ScatterBackend;
using pk::Vec;
using pk::VecScatter;
using rt::Comm;
using rt::World;

constexpr ScatterBackend kBackends[] = {ScatterBackend::HandTuned,
                                        ScatterBackend::DatatypeBaseline,
                                        ScatterBackend::DatatypeOptimized};

void fill_global_identity(Vec& v) {
    for (Index i = v.range().begin; i < v.range().end; ++i) {
        v.at_global(i) = static_cast<double>(i);
    }
}

class ScatterBackends : public ::testing::TestWithParam<int> {
protected:
    ScatterBackend backend() const { return kBackends[GetParam()]; }
};

TEST_P(ScatterBackends, IdentityScatter) {
    World w(4);
    w.run([&](Comm& c) {
        Vec src(c, 20), dst(c, 20);
        fill_global_identity(src);
        auto is = IndexSet::identity(20);
        VecScatter sc(src, is, dst, is);
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(i));
        }
    });
}

TEST_P(ScatterBackends, ReversePermutation) {
    World w(4);
    w.run([&](Comm& c) {
        const Index n = 23;
        Vec src(c, n), dst(c, n);
        fill_global_identity(src);
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::stride(n - 1, -1, n));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(n - 1 - i));
        }
    });
}

TEST_P(ScatterBackends, GatherSubsetIntoSmallVector) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 30), dst(c, 10);
        fill_global_identity(src);
        // Every third entry of src lands densely in dst.
        VecScatter sc(src, IndexSet::stride(0, 3, 10), dst, IndexSet::identity(10));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(3 * i));
        }
    });
}

TEST_P(ScatterBackends, ScatterIntoStridedDestination) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 8), dst(c, 24);
        fill_global_identity(src);
        dst.set_all(-1.0);
        VecScatter sc(src, IndexSet::identity(8), dst, IndexSet::stride(1, 3, 8));
        sc.execute(src, dst, backend());
        for (Index i = dst.range().begin; i < dst.range().end; ++i) {
            if ((i - 1) % 3 == 0 && i >= 1) {
                EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>((i - 1) / 3));
            } else {
                EXPECT_DOUBLE_EQ(dst.at_global(i), -1.0);
            }
        }
    });
}

TEST_P(ScatterBackends, PaperVectorScatterPattern) {
    // §5.4: two 1-D grids laid out in parallel; each process scatters the
    // elements of its portion of the first vector to unique portions of
    // the second (here: a global cyclic shuffle dst[k] = (k * stride) % n
    // with stride coprime to n, which spreads every rank's data over all
    // ranks).
    World w(4);
    w.run([&](Comm& c) {
        const Index n = 64;
        Vec src(c, n), dst(c, n);
        fill_global_identity(src);
        std::vector<Index> to(static_cast<std::size_t>(n));
        for (Index k = 0; k < n; ++k) to[static_cast<std::size_t>(k)] = (k * 13) % n;
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::general(to));
        sc.execute(src, dst, backend());
        for (Index k = dst.range().begin; k < dst.range().end; ++k) {
            // dst[(k*13)%n] = k  =>  dst[j] = k where k*13 ≡ j (mod n).
            Index k_src = -1;
            for (Index q = 0; q < n; ++q) {
                if ((q * 13) % n == k) {
                    k_src = q;
                    break;
                }
            }
            EXPECT_DOUBLE_EQ(dst.at_global(k), static_cast<double>(k_src));
        }
    });
}

TEST_P(ScatterBackends, RepeatedExecution) {
    World w(2);
    w.run([&](Comm& c) {
        Vec src(c, 10), dst(c, 10);
        VecScatter sc(src, IndexSet::identity(10), dst, IndexSet::stride(9, -1, 10));
        for (int round = 0; round < 5; ++round) {
            for (Index i = src.range().begin; i < src.range().end; ++i) {
                src.at_global(i) = static_cast<double>(100 * round + i);
            }
            sc.execute(src, dst, backend());
            for (Index i = dst.range().begin; i < dst.range().end; ++i) {
                EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(100 * round + 9 - i));
            }
        }
    });
}

TEST_P(ScatterBackends, EmptyScatter) {
    World w(3);
    w.run([&](Comm& c) {
        Vec src(c, 6), dst(c, 6);
        VecScatter sc(src, IndexSet::general({}), dst, IndexSet::general({}));
        dst.set_all(5.0);
        sc.execute(src, dst, backend());
        for (double v : dst.local()) EXPECT_DOUBLE_EQ(v, 5.0);
    });
}

TEST_P(ScatterBackends, SingleRank) {
    World w(1);
    w.run([&](Comm& c) {
        Vec src(c, 6), dst(c, 6);
        fill_global_identity(src);
        VecScatter sc(src, IndexSet::identity(6), dst, IndexSet::stride(5, -1, 6));
        sc.execute(src, dst, backend());
        for (Index i = 0; i < 6; ++i) {
            EXPECT_DOUBLE_EQ(dst.at_global(i), static_cast<double>(5 - i));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScatterBackends, ::testing::Values(0, 1, 2));

TEST(Scatter, AllBackendsProduceIdenticalResults) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 40;
        Vec src(c, n);
        fill_global_identity(src);
        std::vector<Index> to(static_cast<std::size_t>(n));
        for (Index k = 0; k < n; ++k) to[static_cast<std::size_t>(k)] = (k * 7 + 3) % n;
        VecScatter sc(src, IndexSet::identity(n),
                      Vec(c, n), IndexSet::general(to));
        std::array<Vec, 3> results{Vec(c, n), Vec(c, n), Vec(c, n)};
        for (int b = 0; b < 3; ++b) {
            sc.execute(src, results[static_cast<std::size_t>(b)], kBackends[b]);
        }
        for (int b = 1; b < 3; ++b) {
            for (Index i = results[0].range().begin; i < results[0].range().end; ++i) {
                EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(b)].at_global(i),
                                 results[0].at_global(i));
            }
        }
    });
}

TEST(Scatter, MismatchedIndexSetsRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     Vec src(c, 4), dst(c, 4);
                     VecScatter sc(src, IndexSet::identity(4), dst, IndexSet::identity(3));
                 }),
                 nncomm::Error);
}

// Every rank must reject a bad index, including ranks whose own ranges the
// entry never touches: the planning walk looks up a peer only for entries
// touching this rank, so on those ranks only the range check stands
// between a bad index and a silently dropped pair.
TEST(Scatter, OutOfRangeIndexRejectedOnEveryRank) {
    constexpr int kRanks = 4;
    constexpr Index n = 16;  // 4 entries per rank
    // One pair per case: one half out of range, the other inside rank 3's
    // range, so ranks 0-2 own neither half.
    const std::pair<Index, Index> cases[] = {{-1, 13}, {n, 13}, {13, -1}, {13, n}};
    for (const auto& [from, to] : cases) {
        World w(kRanks);
        std::atomic<int> rejected{0};
        EXPECT_THROW(w.run([&, from = from, to = to](Comm& c) {
                         Vec src(c, n), dst(c, n);
                         try {
                             VecScatter sc(src, IndexSet::general({from}), dst,
                                           IndexSet::general({to}));
                         } catch (const nncomm::Error&) {
                             ++rejected;
                             throw;
                         }
                     }),
                     nncomm::Error)
            << "pair (" << from << ", " << to << ")";
        EXPECT_EQ(rejected.load(), kRanks) << "pair (" << from << ", " << to << ")";
    }
}

// The per-peer types are indexed_block(1, offsets, float64). They must
// flatten exactly like the equivalent hindexed(1, offsets * 8, float64)
// types, so the baseline engine's Fig. 13 counters (search and pack work
// per block) are those of the hindexed spelling: the DatatypeBaseline
// execute must count what a round-robin, single-context alltoallw over the
// hindexed types counts, and move the same bytes.
TEST(Scatter, PeerTypesCountLikeHindexedBaseline) {
    constexpr int kRanks = 4;
    World w(kRanks);
    w.run([](Comm& c) {
        const Index n = 256;
        Vec src(c, n);
        fill_global_identity(src);
        // An irregular permutation with some adjacent runs (blocks merge).
        std::vector<Index> to(static_cast<std::size_t>(n));
        for (Index k = 0; k < n; ++k) {
            to[static_cast<std::size_t>(k)] = ((k / 3) * 37 % (n / 3)) * 3 + k % 3;
        }
        for (Index k = (n / 3) * 3; k < n; ++k) to[static_cast<std::size_t>(k)] = k;
        const auto is_src = IndexSet::identity(n), is_dst = IndexSet::general(to);
        Vec dst_a(c, n), dst_b(c, n);
        VecScatter sc(src, is_src, dst_a, is_dst);

        // The hindexed spelling, from the same pair walk.
        const auto& sl = src.layout();
        const auto& dl = dst_a.layout();
        const int me = c.rank();
        std::vector<std::vector<std::ptrdiff_t>> send_off(kRanks), recv_off(kRanks);
        for (std::size_t k = 0; k < is_src.size(); ++k) {
            const int so = sl.owner(is_src[k]), dow = dl.owner(is_dst[k]);
            if (so == me) send_off[static_cast<std::size_t>(dow)].push_back(
                (is_src[k] - sl.range(me).begin) * 8);
            if (dow == me) recv_off[static_cast<std::size_t>(so)].push_back(
                (is_dst[k] - dl.range(me).begin) * 8);
        }
        auto hindexed_of = [](const std::vector<std::ptrdiff_t>& displs) {
            const std::vector<std::size_t> lens(displs.size(), 1);
            return dt::Datatype::hindexed(lens, displs, dt::Datatype::float64());
        };
        std::vector<std::size_t> scounts(kRanks, 0), rcounts(kRanks, 0);
        std::vector<std::ptrdiff_t> sdispls(kRanks, 0), rdispls(kRanks, 0);
        std::vector<dt::Datatype> stypes(kRanks, dt::Datatype::byte()),
            rtypes(kRanks, dt::Datatype::byte());
        std::vector<std::uint64_t> blocks(kRanks, 0);
        for (std::size_t r = 0; r < kRanks; ++r) {
            if (!send_off[r].empty()) {
                scounts[r] = 1;
                stypes[r] = hindexed_of(send_off[r]);
                if (static_cast<int>(r) != me) blocks[r] = stypes[r].block_count();
            }
            if (!recv_off[r].empty()) {
                rcounts[r] = 1;
                rtypes[r] = hindexed_of(recv_off[r]);
            }
        }
        EXPECT_EQ(sc.send_blocks(), blocks);

        auto fig13 = [&c] {
            const StatCounters& s = c.counters();
            return std::array<std::uint64_t, 5>{s.bytes_packed, s.blocks_packed, s.search_events,
                                                s.search_blocks_visited, s.lookahead_blocks};
        };
        auto delta = [](std::array<std::uint64_t, 5> a, const std::array<std::uint64_t, 5>& b) {
            for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] - a[i];
            return a;
        };
        const auto t0 = fig13();
        sc.execute(src, dst_a, ScatterBackend::DatatypeBaseline);
        const auto t1 = fig13();
        const dt::EngineKind saved = c.engine_kind();
        c.set_engine(dt::EngineKind::SingleContext);
        coll::CollConfig cfg;
        cfg.alltoallw_algo = coll::AlltoallwAlgo::RoundRobin;
        coll::alltoallw(c, src.data(), scounts, sdispls, stypes, dst_b.data(), rcounts, rdispls,
                        rtypes, cfg);
        c.set_engine(saved);
        const auto t2 = fig13();
        EXPECT_EQ(delta(t0, t1), delta(t1, t2));
        EXPECT_GT(delta(t0, t1)[1], 0u);
        for (Index i = 0; i < dst_a.local_size(); ++i) {
            EXPECT_EQ(dst_a.data()[i], dst_b.data()[i]) << "entry " << i;
        }
    });
}

TEST(Scatter, TrafficIntrospection) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 16;  // 4 entries per rank
        Vec src(c, n), dst(c, n);
        // Full reversal: rank r sends everything to rank 3 - r.
        VecScatter sc(src, IndexSet::identity(n), dst, IndexSet::stride(n - 1, -1, n));
        const auto& bytes = sc.send_bytes();
        ASSERT_EQ(bytes.size(), 4u);
        const auto peer = static_cast<std::size_t>(3 - c.rank());
        for (std::size_t r = 0; r < 4; ++r) {
            EXPECT_EQ(bytes[r], r == peer ? 4u * 8u : 0u) << "rank " << c.rank() << "->" << r;
        }
        // The reversed destination makes each send one contiguous source
        // block (indices are consecutive).
        const auto blocks = sc.send_blocks();
        EXPECT_EQ(blocks[peer], 1u);
        EXPECT_EQ(sc.local_moves(), 0u);
    });
}

// ---------------------------------------------------------------------------
// gather_sparse: NBX sparse-neighborhood plan discovery

// Each rank declares only its own needs; the discovered plan must be
// indistinguishable from one built the replicated way from the same pairs.
TEST(GatherSparse, MatchesReplicatedPlan) {
    World w(4);
    w.run([](Comm& c) {
        const Index n = 40;
        Vec src(c, n);
        fill_global_identity(src);
        const auto& src_layout = src.layout();

        // Deterministic per-rank need list: a mix of owned and remote
        // indices, repeats across ranks allowed.
        const Index per_rank = 6;
        auto needs_of = [&](int r) {
            std::vector<Index> v;
            for (Index t = 0; t < per_rank; ++t) {
                v.push_back((static_cast<Index>(r) * 7 + t * 3 + t * t) % n);
            }
            return v;
        };
        const std::vector<Index> mine = needs_of(c.rank());

        std::vector<Index> counts(4, per_rank);
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst_sparse(c, dst_layout), dst_repl(c, dst_layout);

        VecScatter sparse = VecScatter::gather_sparse(c, src_layout, mine, *dst_layout);

        // The replicated oracle: every rank passes all ranks' needs.
        std::vector<Index> all_src;
        for (int r = 0; r < 4; ++r) {
            const auto v = needs_of(r);
            all_src.insert(all_src.end(), v.begin(), v.end());
        }
        VecScatter repl(c, src_layout, IndexSet::general(all_src), *dst_layout,
                        IndexSet::identity(static_cast<Index>(all_src.size())));

        // Identical traffic plan...
        EXPECT_EQ(sparse.send_bytes(), repl.send_bytes());
        EXPECT_EQ(sparse.send_blocks(), repl.send_blocks());
        EXPECT_EQ(sparse.local_moves(), repl.local_moves());

        // ...and identical data movement on every backend.
        for (ScatterBackend backend : kBackends) {
            std::fill(dst_sparse.data(), dst_sparse.data() + per_rank, -1.0);
            std::fill(dst_repl.data(), dst_repl.data() + per_rank, -1.0);
            sparse.execute(src, dst_sparse, backend);
            repl.execute(src, dst_repl, backend);
            for (Index k = 0; k < per_rank; ++k) {
                const auto kk = static_cast<std::size_t>(k);
                EXPECT_DOUBLE_EQ(dst_sparse.data()[kk], static_cast<double>(mine[kk]));
                EXPECT_DOUBLE_EQ(dst_sparse.data()[kk], dst_repl.data()[kk]);
            }
        }
    });
}

TEST(GatherSparse, EmptyNeedsOnSomeRanks) {
    // Ranks 1..3 need nothing; rank 0 pulls one entry from everyone. No
    // rank may deadlock waiting for metadata that never comes.
    World w(4);
    w.run([](Comm& c) {
        const Index n = 12;  // 3 per rank
        Vec src(c, n);
        fill_global_identity(src);
        std::vector<Index> mine;
        if (c.rank() == 0) mine = {2, 4, 7, 10};
        std::vector<Index> counts = {4, 0, 0, 0};
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst(c, dst_layout);
        VecScatter sc = VecScatter::gather_sparse(c, src.layout(), mine, *dst_layout);
        sc.execute(src, dst, ScatterBackend::HandTuned);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(dst.data()[0], 2.0);
            EXPECT_DOUBLE_EQ(dst.data()[1], 4.0);
            EXPECT_DOUBLE_EQ(dst.data()[2], 7.0);
            EXPECT_DOUBLE_EQ(dst.data()[3], 10.0);
        }
    });
}

TEST(GatherSparse, AllLocalNeedsNoTraffic) {
    World w(3);
    w.run([](Comm& c) {
        const Index n = 9;
        Vec src(c, n);
        fill_global_identity(src);
        // Every rank needs exactly its own entries: zero wire traffic.
        std::vector<Index> mine;
        for (Index g = src.range().begin; g < src.range().end; ++g) mine.push_back(g);
        std::vector<Index> counts(3, 3);
        const auto dst_layout =
            std::make_shared<const pk::Layout>(pk::Layout::from_counts(counts));
        Vec dst(c, dst_layout);
        VecScatter sc = VecScatter::gather_sparse(c, src.layout(), mine, *dst_layout);
        for (std::uint64_t b : sc.send_bytes()) EXPECT_EQ(b, 0u);
        EXPECT_EQ(sc.local_moves(), 3u);
        sc.execute(src, dst, ScatterBackend::DatatypeOptimized);
        for (std::size_t k = 0; k < 3; ++k) {
            EXPECT_DOUBLE_EQ(dst.data()[k], static_cast<double>(mine[k]));
        }
    });
}

}  // namespace

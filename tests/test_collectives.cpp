// Correctness tests for every collective algorithm at multiple world sizes.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/util.hpp"

namespace {

using namespace nncomm;
using coll::AllgathervAlgo;
using coll::AlltoallwAlgo;
using coll::CollConfig;
using coll::ReduceOp;
using dt::Datatype;
using rt::Comm;
using rt::World;

// ---------------------------------------------------------------------------
// bcast / reduce / allreduce / gather / scatter

TEST(Bcast, AllRootsAllSizes) {
    for (int n : {1, 2, 3, 5, 8}) {
        World w(n);
        for (int root = 0; root < n; ++root) {
            w.run([&](Comm& c) {
                std::vector<int> data(16, c.rank() == root ? 77 : -1);
                coll::bcast(c, data.data(), data.size() * 4, Datatype::byte(), root);
                for (int v : data) EXPECT_EQ(v, 77) << "n=" << n << " root=" << root;
            });
        }
    }
}

TEST(Reduce, SumToEachRoot) {
    const int n = 6;
    World w(n);
    for (int root = 0; root < n; ++root) {
        w.run([&](Comm& c) {
            std::vector<long> v{static_cast<long>(c.rank()), 10L * c.rank()};
            coll::reduce(c, v.data(), v.size(), ReduceOp::Sum, root);
            if (c.rank() == root) {
                EXPECT_EQ(v[0], n * (n - 1) / 2);
                EXPECT_EQ(v[1], 10L * n * (n - 1) / 2);
            }
        });
    }
}

TEST(Reduce, MaxAndMin) {
    const int n = 7;
    World w(n);
    w.run([&](Comm& c) {
        double mx = static_cast<double>(c.rank());
        coll::reduce(c, &mx, 1, ReduceOp::Max, 0);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(mx, n - 1.0);
        }
        double mn = static_cast<double>(c.rank()) + 5.0;
        coll::reduce(c, &mn, 1, ReduceOp::Min, 0);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(mn, 5.0);
        }
    });
}

TEST(Allreduce, SumIdenticalEverywhere) {
    for (int n : {1, 2, 4, 5, 9}) {
        World w(n);
        w.run([&](Comm& c) {
            double v = 1.5;
            coll::allreduce(c, &v, 1, ReduceOp::Sum);
            EXPECT_DOUBLE_EQ(v, 1.5 * n);
            EXPECT_DOUBLE_EQ(coll::allreduce_one(c, static_cast<double>(c.rank()), ReduceOp::Max),
                             n - 1.0);
        });
    }
}

TEST(Gather, ContiguousBlocks) {
    const int n = 5;
    World w(n);
    w.run([&](Comm& c) {
        std::array<int, 3> mine{c.rank(), c.rank() * 10, c.rank() * 100};
        std::vector<int> all(3 * static_cast<std::size_t>(n), -1);
        coll::gather(c, mine.data(), mine.size() * 4, Datatype::byte(), all.data(), 12,
                     Datatype::byte(), 2);
        if (c.rank() == 2) {
            for (int i = 0; i < n; ++i) {
                EXPECT_EQ(all[static_cast<std::size_t>(3 * i)], i);
                EXPECT_EQ(all[static_cast<std::size_t>(3 * i + 2)], i * 100);
            }
        }
    });
}

TEST(Gatherv, VariableBlocks) {
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        // Rank r contributes r+1 doubles of value r.
        std::vector<double> mine(static_cast<std::size_t>(c.rank()) + 1,
                                 static_cast<double>(c.rank()));
        std::vector<std::size_t> counts{1, 2, 3, 4};
        std::vector<std::size_t> displs{0, 1, 3, 6};
        std::vector<double> all(10, -1.0);
        coll::gatherv(c, mine.data(), mine.size(), Datatype::float64(), all.data(), counts,
                      displs, Datatype::float64(), 0);
        if (c.rank() == 0) {
            const std::vector<double> expect{0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
            EXPECT_EQ(all, expect);
        }
    });
}

TEST(Scatterv, VariableBlocks) {
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        std::vector<double> all;
        std::vector<std::size_t> counts{1, 2, 3, 4};
        std::vector<std::size_t> displs{0, 1, 3, 6};
        if (c.rank() == 1) {
            all = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
        }
        std::vector<double> mine(static_cast<std::size_t>(c.rank()) + 1, -1.0);
        coll::scatterv(c, all.data(), counts, displs, Datatype::float64(), mine.data(),
                       mine.size(), Datatype::float64(), 1);
        for (double v : mine) EXPECT_DOUBLE_EQ(v, static_cast<double>(c.rank()));
    });
}

// ---------------------------------------------------------------------------
// allgatherv — all algorithms, uniform and outlier volume sets

struct AgvCase {
    int nranks;
    AllgathervAlgo algo;
};

class AllgathervAll : public ::testing::TestWithParam<std::tuple<int, int>> {};

void run_allgatherv_case(int n, AllgathervAlgo algo, bool outlier) {
    if (algo == AllgathervAlgo::RecursiveDoubling && (n & (n - 1)) != 0) {
        GTEST_SKIP() << "recursive doubling needs power-of-two ranks";
    }
    World w(n);
    w.run([&](Comm& c) {
        // Rank r contributes `counts[r]` doubles of value 1000*r + j.
        std::vector<std::size_t> counts(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            counts[static_cast<std::size_t>(i)] =
                (outlier && i == 0) ? 4096 : static_cast<std::size_t>(1 + (i % 3));
        }
        std::vector<std::size_t> displs(static_cast<std::size_t>(n));
        std::size_t at = 0;
        for (int i = 0; i < n; ++i) {
            displs[static_cast<std::size_t>(i)] = at;
            at += counts[static_cast<std::size_t>(i)];
        }
        const std::size_t mine = counts[static_cast<std::size_t>(c.rank())];
        std::vector<double> send(mine);
        for (std::size_t j = 0; j < mine; ++j) {
            send[j] = 1000.0 * c.rank() + static_cast<double>(j);
        }
        std::vector<double> recv(at, -1.0);
        CollConfig cfg;
        cfg.allgatherv_algo = algo;
        coll::allgatherv(c, send.data(), mine, Datatype::float64(), recv.data(), counts, displs,
                         Datatype::float64(), cfg);
        for (int i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < counts[static_cast<std::size_t>(i)]; ++j) {
                EXPECT_DOUBLE_EQ(recv[displs[static_cast<std::size_t>(i)] + j],
                                 1000.0 * i + static_cast<double>(j))
                    << "n=" << n << " rank-block=" << i << " j=" << j;
            }
        }
    });
}

TEST_P(AllgathervAll, UniformVolumes) {
    const auto [n, algo_i] = GetParam();
    run_allgatherv_case(n, static_cast<AllgathervAlgo>(algo_i), /*outlier=*/false);
}

TEST_P(AllgathervAll, OutlierVolumes) {
    const auto [n, algo_i] = GetParam();
    run_allgatherv_case(n, static_cast<AllgathervAlgo>(algo_i), /*outlier=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgathervAll,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Allgather, UniformWrapper) {
    const int n = 6;
    World w(n);
    w.run([&](Comm& c) {
        std::array<double, 2> mine{c.rank() + 0.25, c.rank() + 0.75};
        std::vector<double> all(2 * static_cast<std::size_t>(n));
        coll::allgather(c, mine.data(), 2, Datatype::float64(), all.data(), 2,
                        Datatype::float64());
        for (int i = 0; i < n; ++i) {
            EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i)], i + 0.25);
            EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i + 1)], i + 0.75);
        }
    });
}

TEST(Allgatherv, NoncontiguousRecvType) {
    // Gather into every third double of the destination: recvtype =
    // resized double with 24-byte extent.
    const int n = 4;
    World w(n);
    w.run([&](Comm& c) {
        auto spaced = Datatype::resized(Datatype::float64(), 0, 24);
        std::vector<std::size_t> counts(static_cast<std::size_t>(n), 2);
        std::vector<std::size_t> displs{0, 2, 4, 6};
        double send[2] = {c.rank() + 0.5, c.rank() + 0.75};
        std::vector<double> recv(3 * 8, -1.0);
        coll::allgatherv(c, send, 16, Datatype::byte(), recv.data(), counts, displs, spaced);
        for (int i = 0; i < n; ++i) {
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i)], i + 0.5);
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i + 3)], i + 0.75);
            EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(6 * i + 1)], -1.0);
        }
    });
}

TEST(Allgatherv, SizeMismatchRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     std::vector<std::size_t> counts{1, 1};
                     std::vector<std::size_t> displs{0, 1};
                     double s[2] = {0, 0};
                     double r[2];
                     coll::allgatherv(c, s, 2, Datatype::float64(), r, counts, displs,
                                      Datatype::float64());
                 }),
                 nncomm::Error);
}

// ---------------------------------------------------------------------------
// alltoallw — both algorithms, nearest-neighbor ring pattern

class AlltoallwAll : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlltoallwAll, RingNeighborExchange) {
    const auto [n, algo_i] = GetParam();
    const auto algo = static_cast<AlltoallwAlgo>(algo_i);
    World w(n);
    w.run([&](Comm& c) {
        // The paper's Fig. 15 pattern: each rank exchanges a 10x10 matrix of
        // doubles with its ring successor and predecessor, nothing with
        // anyone else.
        const int rank = c.rank();
        const int succ = (rank + 1) % n;
        const int pred = (rank + n - 1) % n;
        const std::size_t nn = static_cast<std::size_t>(n);
        constexpr std::size_t kElems = 100;

        std::vector<double> sendbuf(nn * kElems, 0.0);
        std::vector<double> recvbuf(nn * kElems, -1.0);
        std::vector<std::size_t> scounts(nn, 0), rcounts(nn, 0);
        std::vector<std::ptrdiff_t> sdispls(nn, 0), rdispls(nn, 0);
        std::vector<Datatype> types(nn, Datatype::float64());
        for (std::size_t i = 0; i < nn; ++i) {
            sdispls[i] = static_cast<std::ptrdiff_t>(i * kElems * 8);
            rdispls[i] = static_cast<std::ptrdiff_t>(i * kElems * 8);
        }
        for (int peer : {succ, pred}) {
            const auto p = static_cast<std::size_t>(peer);
            scounts[p] = kElems;
            rcounts[p] = kElems;
            for (std::size_t j = 0; j < kElems; ++j) {
                sendbuf[p * kElems + j] = 10000.0 * rank + 100.0 * peer + static_cast<double>(j);
            }
        }
        CollConfig cfg;
        cfg.alltoallw_algo = algo;
        coll::alltoallw(c, sendbuf.data(), scounts, sdispls, types, recvbuf.data(), rcounts,
                        rdispls, types, cfg);

        for (int peer : {succ, pred}) {
            const auto p = static_cast<std::size_t>(peer);
            for (std::size_t j = 0; j < kElems; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[p * kElems + j],
                                 10000.0 * peer + 100.0 * rank + static_cast<double>(j))
                    << "n=" << n << " peer=" << peer << " j=" << j;
            }
        }
        // Non-neighbors must remain untouched (n > 3 makes them distinct).
        if (n > 3) {
            const auto far = static_cast<std::size_t>((rank + 2) % n);
            EXPECT_DOUBLE_EQ(recvbuf[far * kElems], -1.0);
        }
    });
}

TEST_P(AlltoallwAll, NonuniformVolumesWithDerivedTypes) {
    const auto [n, algo_i] = GetParam();
    const auto algo = static_cast<AlltoallwAlgo>(algo_i);
    if (n < 2) GTEST_SKIP();
    World w(n);
    w.run([&](Comm& c) {
        // Rank r sends (r + i) % 4 strided doubles to each rank i (zero for
        // some pairs), sent as every-other-double and received densely.
        const int rank = c.rank();
        const auto nn = static_cast<std::size_t>(n);
        auto strided = Datatype::resized(Datatype::float64(), 0, 16);

        auto vol = [&](int from, int to) { return static_cast<std::size_t>((from + to) % 4); };

        std::vector<double> sendbuf(nn * 8, 0.0);
        std::vector<double> recvbuf(nn * 4, -1.0);
        std::vector<std::size_t> scounts(nn), rcounts(nn);
        std::vector<std::ptrdiff_t> sdispls(nn), rdispls(nn);
        std::vector<Datatype> stypes(nn, strided), rtypes(nn, Datatype::float64());
        for (int i = 0; i < n; ++i) {
            const auto ii = static_cast<std::size_t>(i);
            scounts[ii] = vol(rank, i);
            rcounts[ii] = vol(i, rank);
            sdispls[ii] = static_cast<std::ptrdiff_t>(ii * 8 * 8);
            rdispls[ii] = static_cast<std::ptrdiff_t>(ii * 4 * 8);
            for (std::size_t j = 0; j < scounts[ii]; ++j) {
                sendbuf[ii * 8 + 2 * j] = 100.0 * rank + 10.0 * i + static_cast<double>(j);
            }
        }
        CollConfig cfg;
        cfg.alltoallw_algo = algo;
        cfg.small_msg_threshold = 17;  // split the 0..3-double volumes across bins
        coll::alltoallw(c, sendbuf.data(), scounts, sdispls, stypes, recvbuf.data(), rcounts,
                        rdispls, rtypes, cfg);
        for (int i = 0; i < n; ++i) {
            const auto ii = static_cast<std::size_t>(i);
            for (std::size_t j = 0; j < rcounts[ii]; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[ii * 4 + j],
                                 100.0 * i + 10.0 * rank + static_cast<double>(j))
                    << "from=" << i << " j=" << j;
            }
            for (std::size_t j = rcounts[ii]; j < 4; ++j) {
                EXPECT_DOUBLE_EQ(recvbuf[ii * 4 + j], -1.0);
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlltoallwAll,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8, 12),
                                            ::testing::Values(1, 2)));  // RoundRobin, Binned

TEST(Alltoall, UniformContiguous) {
    const int n = 5;
    World w(n);
    w.run([&](Comm& c) {
        const auto nn = static_cast<std::size_t>(n);
        std::vector<int> send(nn * 2), recv(nn * 2, -1);
        for (int i = 0; i < n; ++i) {
            send[static_cast<std::size_t>(2 * i)] = 100 * c.rank() + i;
            send[static_cast<std::size_t>(2 * i + 1)] = -100 * c.rank() - i;
        }
        coll::alltoall(c, send.data(), 8, Datatype::byte(), recv.data());
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i)], 100 * i + c.rank());
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i + 1)], -100 * i - c.rank());
        }
    });
}

// ---------------------------------------------------------------------------
// copy_typed aliasing (the local "self send" every alltoallw performs)

TEST(CopyTyped, IdenticalInPlaceCopyIsNoop) {
    // src == dst on the contiguous path: must not call memcpy on the
    // identical range (undefined behavior the ASan gate flags).
    std::vector<int> buf(16);
    std::iota(buf.begin(), buf.end(), 0);
    coll::detail::copy_typed(buf.data(), buf.size() * 4, Datatype::byte(), buf.data(),
                             buf.size() * 4, Datatype::byte());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], i);
}

TEST(CopyTyped, OverlappingContiguousCopyUsesMemmove) {
    // Forward-overlapping ranges (dst inside src): memcpy is undefined
    // here; memmove must produce the shifted copy intact.
    std::vector<int> buf(24);
    std::iota(buf.begin(), buf.end(), 0);
    coll::detail::copy_typed(buf.data(), 16 * 4, Datatype::byte(), buf.data() + 4, 16 * 4,
                             Datatype::byte());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i + 4)], i);
}

TEST(CopyTyped, AlltoallwInPlaceSelfExchange) {
    // Both algorithms route the self block through copy_typed. With
    // sendbuf == recvbuf, zero volume for every other peer, and identical
    // self displacements, the self copy is fully aliased: it must be a
    // no-op, not a memcpy over the identical range.
    for (auto algo : {AlltoallwAlgo::RoundRobin, AlltoallwAlgo::Binned}) {
        const int n = 3;
        World w(n);
        w.run([&](Comm& c) {
            const auto un = static_cast<std::size_t>(n);
            const auto me = static_cast<std::size_t>(c.rank());
            CollConfig cfg;
            cfg.alltoallw_algo = algo;
            std::vector<std::size_t> counts(un, 0);
            counts[me] = 4;
            std::vector<std::ptrdiff_t> displs(un, 0);
            std::vector<Datatype> types(un, Datatype::int32());
            std::vector<std::int32_t> buf(8);
            std::iota(buf.begin(), buf.end(), c.rank() * 10);
            coll::alltoallw(c, buf.data(), counts, displs, types, buf.data(), counts, displs,
                            types, cfg);
            for (int i = 0; i < 8; ++i) {
                EXPECT_EQ(buf[static_cast<std::size_t>(i)], c.rank() * 10 + i)
                    << "algo=" << static_cast<int>(algo);
            }
        });
    }
}

TEST(CopyTyped, AlltoallwOverlappingSelfExchange) {
    // Partially overlapping self displacements (recv block starts 8 bytes
    // into the send block): the contiguous path must behave like memmove.
    const int n = 2;
    World w(n);
    w.run([&](Comm& c) {
        const auto un = static_cast<std::size_t>(n);
        const auto me = static_cast<std::size_t>(c.rank());
        std::vector<std::size_t> counts(un, 0);
        counts[me] = 4;
        std::vector<std::ptrdiff_t> sdispls(un, 0), rdispls(un, 0);
        rdispls[me] = 8;
        std::vector<Datatype> types(un, Datatype::int32());
        std::vector<std::int32_t> buf(8);
        std::iota(buf.begin(), buf.end(), 0);
        coll::alltoallw(c, buf.data(), counts, sdispls, types, buf.data(), counts, rdispls,
                        types);
        // buf[2..5] now holds the original buf[0..3]; the head is untouched.
        EXPECT_EQ(buf[0], 0);
        EXPECT_EQ(buf[1], 1);
        for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i + 2)], i);
    });
}

}  // namespace

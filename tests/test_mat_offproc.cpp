// Off-process MatAIJ assembly tests.
//
// The contract under test: a matrix assembled with entries inserted from
// ARBITRARY ranks (rows owned elsewhere stashed and flushed through the
// NBX sparse exchange at assemble()) is bit-identical — CSR structure and
// every value byte — to one assembled by the owning ranks performing the
// same insertions themselves in ascending-origin order. That must hold
// with insert-vs-add collisions on the same remote coordinate, under
// seeded SchedulePolicy perturbation (arrival order must never leak into
// the result), and at both payload-pool budget extremes (no shared store,
// unbounded).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "petsckit/mat.hpp"

namespace {

using namespace nncomm;
using pk::Index;
using pk::Layout;
using pk::MatAIJ;
using pk::ScatterBackend;
using pk::Vec;
using rt::Comm;
using rt::SchedulePolicy;
using rt::World;

constexpr std::uint64_t kSeeds[] = {1, 7, 23, 42, 101, 271, 1009, 65537};
constexpr std::size_t kPoolBudgets[] = {0, std::numeric_limits<std::size_t>::max()};

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

struct Contribution {
    Index row;
    Index col;
    double val;
    bool insert;
};

// The deterministic contribution list of one origin rank: rows land
// anywhere in the matrix (mostly off-process), and a slice of the entries
// deliberately collides on shared (row, col) coordinates — some as add,
// some as insert — so the origin-major merge order is load-bearing.
std::vector<Contribution> contributions_of(std::uint64_t seed, int origin, Index n,
                                           int entries) {
    std::vector<Contribution> out;
    for (int t = 0; t < entries; ++t) {
        const std::uint64_t h =
            mix(seed ^ (static_cast<std::uint64_t>(origin) << 24) ^
                static_cast<std::uint64_t>(t));
        Contribution c;
        if (t % 4 == 3) {
            // Collision slice: every origin hits the same few coordinates.
            c.row = static_cast<Index>(h % 5);
            c.col = static_cast<Index>((h >> 8) % 5);
        } else {
            c.row = static_cast<Index>(h % static_cast<std::uint64_t>(n));
            c.col = static_cast<Index>((h >> 16) % static_cast<std::uint64_t>(n));
        }
        c.val = static_cast<double>(static_cast<std::int64_t>(h % 2001) - 1000) * 0.5;
        c.insert = ((h >> 40) & 7u) == 0;  // ~1/8 inserts among the adds
        out.push_back(c);
    }
    return out;
}

// Assembles the same logical matrix two ways and requires bit-identity.
void check_offproc_assembly(int nranks, std::uint64_t seed, SchedulePolicy policy,
                            std::size_t pool_budget, ScatterBackend backend) {
    const Index n = 24;
    const int entries = 40;
    World w(nranks);
    w.set_schedule(policy);
    w.set_payload_pool_budget(pool_budget);
    w.run([&](Comm& c) {
        auto layout = std::make_shared<const Layout>(Layout::uniform(n, c.size()));

        // Off-process path: every origin inserts its own list, wherever
        // the rows live.
        MatAIJ offproc(c, layout);
        for (const Contribution& e : contributions_of(seed, c.rank(), n, entries)) {
            if (e.insert) offproc.set_value(e.row, e.col, e.val);
            else offproc.add_value(e.row, e.col, e.val);
        }
        const std::size_t stashed = offproc.remote_stashed();
        offproc.assemble(backend);
        EXPECT_EQ(offproc.remote_stashed(), 0u);

        // Baseline: owners perform all insertions themselves, ascending
        // origin, each origin's entries in insertion order — the documented
        // merge contract.
        MatAIJ owner_only(c, layout);
        for (int origin = 0; origin < c.size(); ++origin) {
            for (const Contribution& e : contributions_of(seed, origin, n, entries)) {
                if (!owner_only.row_range().contains(e.row)) continue;
                if (e.insert) owner_only.set_value(e.row, e.col, e.val);
                else owner_only.add_value(e.row, e.col, e.val);
            }
        }
        EXPECT_EQ(owner_only.remote_stashed(), 0u);
        owner_only.assemble(backend);

        // Bit-identical CSR blocks (exact ==, not near).
        EXPECT_EQ(offproc.diag_block().row_ptr, owner_only.diag_block().row_ptr);
        EXPECT_EQ(offproc.diag_block().col, owner_only.diag_block().col);
        EXPECT_EQ(offproc.diag_block().val, owner_only.diag_block().val);
        EXPECT_EQ(offproc.offdiag_block().row_ptr, owner_only.offdiag_block().row_ptr);
        EXPECT_EQ(offproc.offdiag_block().col, owner_only.offdiag_block().col);
        EXPECT_EQ(offproc.offdiag_block().val, owner_only.offdiag_block().val);
        EXPECT_EQ(offproc.num_ghost_cols(), owner_only.num_ghost_cols());

        // And bit-identical matvecs.
        Vec x(c, n), y1(c, n), y2(c, n);
        for (Index g = x.range().begin; g < x.range().end; ++g) {
            x.at_global(g) = 0.25 * static_cast<double>(g) - 3.0;
        }
        offproc.mult(x, y1);
        owner_only.mult(x, y2);
        for (Index g = 0; g < y1.local_size(); ++g) {
            ASSERT_EQ(y1.data()[g], y2.data()[g]) << "row slot " << g;
        }

        // Conservation: what this rank stashed, the owners received.
        (void)stashed;
    });
}

TEST(MatOffproc, BasicRemoteInsertLandsAtOwner) {
    World w(3);
    w.run([](Comm& c) {
        auto layout = std::make_shared<const Layout>(Layout::uniform(9, c.size()));
        MatAIJ m(c, layout);
        // Rank 0 builds the entire diagonal, including rows it doesn't own.
        if (c.rank() == 0) {
            for (Index r = 0; r < 9; ++r) m.set_value(r, r, static_cast<double>(r + 1));
            EXPECT_EQ(m.remote_stashed(), 6u);
        }
        m.assemble();
        if (c.rank() != 0) {
            EXPECT_EQ(m.remote_received(), 3u);
        }

        Vec x(c, 9), y(c, 9);
        x.set_all(2.0);
        m.mult(x, y);
        for (Index r = y.range().begin; r < y.range().end; ++r) {
            EXPECT_DOUBLE_EQ(y.at_global(r), 2.0 * static_cast<double>(r + 1));
        }
    });
}

TEST(MatOffproc, RemoteAddsAccumulateAcrossOrigins) {
    World w(4);
    w.run([](Comm& c) {
        auto layout = std::make_shared<const Layout>(Layout::uniform(8, c.size()));
        MatAIJ m(c, layout);
        // Every rank adds 1.0 to the same entry (0, 5) — owned by rank 0,
        // column owned by rank 2.
        m.add_value(0, 5, 1.0);
        m.assemble();
        Vec x(c, 8), y(c, 8);
        x.set_all(1.0);
        m.mult(x, y);
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(y.at_global(0), 4.0);
        }
    });
}

TEST(MatOffproc, InsertFromOneOriginBeatsAddsFromEarlierOrigins) {
    // Origin-major merge: rank 2's insert lands after ranks 0/1's adds and
    // before rank 3's add, regardless of message arrival order.
    World w(4);
    w.run([](Comm& c) {
        auto layout = std::make_shared<const Layout>(Layout::uniform(8, c.size()));
        MatAIJ m(c, layout);
        if (c.rank() == 2) m.set_value(0, 0, 100.0);
        else m.add_value(0, 0, 1.0);
        m.assemble();
        Vec x(c, 8), y(c, 8);
        x.set_all(1.0);
        m.mult(x, y);
        // origins 0,1 add 1+1 -> overwritten by origin 2's 100 -> origin 3
        // adds 1: 101.
        if (c.rank() == 0) {
            EXPECT_DOUBLE_EQ(y.at_global(0), 101.0);
        }
    });
}

TEST(MatOffproc, NoRemoteEntriesStillCollective) {
    // assemble() must not deadlock when nobody stashed anything (the
    // empty-neighborhood sparse exchange).
    World w(4);
    w.run([](Comm& c) {
        auto layout = std::make_shared<const Layout>(Layout::uniform(8, c.size()));
        MatAIJ m(c, layout);
        for (Index r = m.row_range().begin; r < m.row_range().end; ++r) {
            m.add_value(r, r, 1.0);
        }
        m.assemble();
        EXPECT_EQ(m.remote_received(), 0u);
        EXPECT_EQ(m.num_ghost_cols(), 0u);
    });
}

class MatOffprocStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MatOffprocStress,
                         ::testing::Combine(::testing::ValuesIn(kSeeds),
                                            ::testing::ValuesIn(kPoolBudgets)));

TEST_P(MatOffprocStress, BitIdenticalUnderPerturbation) {
    const auto [seed, pool_budget] = GetParam();
    check_offproc_assembly(4, seed, SchedulePolicy::perturb(seed, 3), pool_budget,
                           ScatterBackend::HandTuned);
}

TEST_P(MatOffprocStress, BitIdenticalUnperturbedWiderWorld) {
    const auto [seed, pool_budget] = GetParam();
    check_offproc_assembly(6, seed ^ 0xbeef, SchedulePolicy{}, pool_budget,
                           ScatterBackend::DatatypeOptimized);
}

}  // namespace

// Invariants of the runtime's one wait discipline (Comm::wait, wait_until,
// probe): poll, spin out a bounded window once per call, then park in
// registered timed sleeps. Every assertion here holds under any thread
// interleaving; none checks that a wait did *not* sleep, which would hang
// on the host's scheduling. Run under the `stress` ctest label, so the
// asan/tsan presets exercise the sleeper registration and the abort path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/win.hpp"

namespace {

using namespace nncomm;
using rt::Comm;
using rt::SchedulePolicy;
using rt::Win;
using rt::World;

std::uint64_t site_sum(const StatCounters& s) {
    return s.rt_cv_waits_recv + s.rt_cv_waits_send + s.rt_cv_waits_epoch + s.rt_cv_waits_probe;
}

// A wait that outlasts its spin window parks, and however many sleep
// slices it takes, it opens at most one window. The second wait's
// predicate counts its own sleeps, so it ends after exactly three slices
// whatever the host's timing.
TEST(Wait, LongWaitSleepsAndOpensOneWindowPerCall) {
    World w(1);
    w.run([](Comm& c) {
        using clock = std::chrono::steady_clock;
        const auto until = clock::now() + std::chrono::milliseconds(20);
        c.wait_until([&] { return clock::now() >= until; });
        const StatCounters first = c.counters();
        EXPECT_GE(first.rt_cv_waits, 1u);
        EXPECT_EQ(first.rt_cv_waits_epoch, first.rt_cv_waits);
        EXPECT_EQ(site_sum(first), first.rt_cv_waits);
        EXPECT_LE(first.rt_spin_windows, 1u);

        c.wait_until([&] { return c.counters().rt_cv_waits >= first.rt_cv_waits + 3; });
        const StatCounters second = c.counters();
        EXPECT_EQ(second.rt_cv_waits_epoch - first.rt_cv_waits_epoch, 3u);
        // A one-rank world never outnumbers the host's hardware threads.
        const std::uint64_t window = std::thread::hardware_concurrency() != 0 ? 1 : 0;
        EXPECT_EQ(second.rt_spin_windows - first.rt_spin_windows, window);
    });
}

// The per-site split covers every parked wait: a receive whose message
// comes 20 ms late charges its sleeps to the receive site.
TEST(Wait, LateMessageChargesReceiveSite) {
    World w(2);
    std::vector<StatCounters> seen(2);
    w.run([&](Comm& c) {
        int v = 0;
        if (c.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            v = 42;
            c.send_n(&v, 1, 1, 7);
        } else {
            c.recv_n(&v, 1, 0, 7);
            EXPECT_EQ(v, 42);
        }
        seen[static_cast<std::size_t>(c.rank())] = c.counters();
    });
    EXPECT_GE(seen[1].rt_cv_waits_recv, 1u);
    for (const StatCounters& s : seen) {
        EXPECT_EQ(site_sum(s), s.rt_cv_waits);
        EXPECT_LE(s.rt_spin_windows, 1u);  // one blocking call per rank
    }
}

// An abort raised while a rank is past its first checks, inside the spin
// window (or, on a slow host, already parked), surfaces in that rank as
// AbortedError, and the world reports the root cause.
TEST(Wait, AbortInsideSpinWindowSurfacesAsAbortedError) {
    World w(2);
    std::atomic<int> polls{0};
    std::atomic<bool> aborted_seen{false};
    EXPECT_THROW(w.run([&](Comm& c) {
        if (c.rank() == 1) {
            while (polls.load(std::memory_order_acquire) < 20) std::this_thread::yield();
            throw Error("boom");
        }
        try {
            c.wait_until([&] {
                polls.fetch_add(1, std::memory_order_acq_rel);
                return false;
            });
        } catch (const rt::AbortedError&) {
            aborted_seen.store(true);
            throw;
        }
    }),
                 Error);
    EXPECT_TRUE(aborted_seen.load());
    EXPECT_EQ(w.faulting_rank(), 1);
}

// A world with more ranks than the host has hardware threads never opens a
// spin window, and its fenced ring of puts still completes every execute
// under a perturbed schedule (the RmaStress oversubscription case).
TEST(Wait, OversubscribedWorldSkipsWindowAndCompletesFences) {
    const int ranks = std::max(16, static_cast<int>(std::thread::hardware_concurrency()) + 1);
    if (ranks > 64) GTEST_SKIP() << "host too wide to oversubscribe cheaply";
    constexpr int kIters = 6;
    World w(ranks);
    w.set_schedule(SchedulePolicy::perturb(0x5eed, 2));
    std::vector<StatCounters> seen(static_cast<std::size_t>(ranks));
    w.run([&](Comm& c) {
        const int r = c.rank();
        const int n = c.size();
        std::uint64_t slot = 0;
        Win win = Win::create(c, &slot, sizeof slot);
        win.fence();
        auto tag = [](int it, int rank) {
            return (static_cast<std::uint64_t>(it) << 32) | static_cast<unsigned>(rank);
        };
        for (int it = 0; it < kIters; ++it) {
            const std::uint64_t v = tag(it, r);
            win.put(&v, sizeof v, (r + 1) % n, 0);
            win.fence();
            EXPECT_EQ(slot, tag(it, (r + n - 1) % n)) << "iteration " << it;
            win.fence();  // every rank has read its slot before the next put
        }
        seen[static_cast<std::size_t>(r)] = c.counters();
    });
    for (const StatCounters& s : seen) {
        EXPECT_EQ(s.rt_spin_windows, 0u);
        EXPECT_EQ(site_sum(s), s.rt_cv_waits);
    }
}

}  // namespace

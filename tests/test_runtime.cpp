// Tests for the threaded message-passing runtime: matching, ordering,
// wildcards, nonblocking ops, datatype transfers, barrier and error
// propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "datatype/pack.hpp"
#include "runtime/comm.hpp"

namespace {

using nncomm::dt::Datatype;
using nncomm::rt::Comm;
using nncomm::rt::kAnySource;
using nncomm::rt::kAnyTag;
using nncomm::rt::RecvStatus;
using nncomm::rt::Request;
using nncomm::rt::World;
using nncomm::StatCounters;

TEST(Runtime, SingleRankWorld) {
    World w(1);
    int visits = 0;
    w.run([&](Comm& c) {
        EXPECT_EQ(c.rank(), 0);
        EXPECT_EQ(c.size(), 1);
        ++visits;
    });
    EXPECT_EQ(visits, 1);
}

TEST(Runtime, PingPong) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int x = 42;
            c.send_n(&x, 1, 1, 7);
            int y = 0;
            RecvStatus st = c.recv_n(&y, 1, 1, 8);
            EXPECT_EQ(y, 43);
            EXPECT_EQ(st.source, 1);
            EXPECT_EQ(st.tag, 8);
            EXPECT_EQ(st.bytes, sizeof(int));
        } else {
            int x = 0;
            c.recv_n(&x, 1, 0, 7);
            const int y = x + 1;
            c.send_n(&y, 1, 0, 8);
        }
    });
}

TEST(Runtime, SendBeforeRecvIsBuffered) {
    // The unexpected-message queue: sender completes before any recv posts.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 10; ++i) c.send_n(&i, 1, 1, i);
        } else {
            // Receive in reverse tag order to exercise matching, not FIFO.
            for (int i = 9; i >= 0; --i) {
                int v = -1;
                c.recv_n(&v, 1, 0, i);
                EXPECT_EQ(v, i);
            }
        }
    });
}

TEST(Runtime, FifoOrderPerSenderSameTag) {
    World w(2);
    w.run([](Comm& c) {
        constexpr int kN = 100;
        if (c.rank() == 0) {
            for (int i = 0; i < kN; ++i) c.send_n(&i, 1, 1, 5);
        } else {
            for (int i = 0; i < kN; ++i) {
                int v = -1;
                c.recv_n(&v, 1, 0, 5);
                EXPECT_EQ(v, i);  // same (source, tag) => FIFO
            }
        }
    });
}

TEST(Runtime, WildcardSource) {
    World w(4);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            std::vector<bool> seen(4, false);
            for (int i = 1; i < 4; ++i) {
                int v = -1;
                RecvStatus st = c.recv_n(&v, 1, kAnySource, 3);
                EXPECT_EQ(v, st.source * 10);
                seen[static_cast<std::size_t>(st.source)] = true;
            }
            EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
        } else {
            const int v = c.rank() * 10;
            c.send_n(&v, 1, 0, 3);
        }
    });
}

TEST(Runtime, WildcardTag) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 5;
            c.send_n(&v, 1, 1, 1234);
        } else {
            int v = 0;
            RecvStatus st = c.recv_n(&v, 1, 0, kAnyTag);
            EXPECT_EQ(st.tag, 1234);
            EXPECT_EQ(v, 5);
        }
    });
}

TEST(Runtime, ZeroByteMessageSynchronizes) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            c.send(nullptr, 0, Datatype::byte(), 1, 9);
        } else {
            RecvStatus st = c.recv(nullptr, 0, Datatype::byte(), 0, 9);
            EXPECT_EQ(st.bytes, 0u);
            EXPECT_EQ(st.source, 0);
        }
    });
}

TEST(Runtime, NonblockingExchange) {
    World w(2);
    w.run([](Comm& c) {
        const int peer = 1 - c.rank();
        std::vector<double> out(64, c.rank() + 1.0);
        std::vector<double> in(64, 0.0);
        Request rr = c.irecv(in.data(), in.size() * 8, Datatype::byte(), peer, 0);
        Request sr = c.isend(out.data(), out.size() * 8, Datatype::byte(), peer, 0);
        std::vector<Request> reqs{rr, sr};
        c.waitall(reqs);
        EXPECT_DOUBLE_EQ(in[0], peer + 1.0);
        EXPECT_DOUBLE_EQ(in[63], peer + 1.0);
    });
}

TEST(Runtime, SendRecvToSelf) {
    World w(1);
    w.run([](Comm& c) {
        const int x = 77;
        int y = 0;
        c.sendrecv(&x, sizeof(int), Datatype::byte(), 0, 1, &y, sizeof(int), Datatype::byte(),
                   0, 1);
        EXPECT_EQ(y, 77);
    });
}

TEST(Runtime, SendRecvRing) {
    World w(5);
    w.run([](Comm& c) {
        const int n = c.size();
        const int to = (c.rank() + 1) % n;
        const int from = (c.rank() + n - 1) % n;
        int out = c.rank();
        int in = -1;
        c.sendrecv(&out, sizeof(int), Datatype::byte(), to, 0, &in, sizeof(int),
                   Datatype::byte(), from, 0);
        EXPECT_EQ(in, from);
    });
}

TEST(Runtime, NoncontiguousSendContiguousRecv) {
    // The matrix-transpose pattern: send column-major with a derived type,
    // receive raw bytes.
    constexpr std::size_t n = 8;
    World w(2);
    w.run([&](Comm& c) {
        auto elem = Datatype::contiguous(3, Datatype::float64());
        auto col = Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), elem);
        auto col_r = Datatype::resized(col, 0, elem.extent());
        auto matrix = Datatype::contiguous(n, col_r);
        if (c.rank() == 0) {
            std::vector<double> m(n * n * 3);
            std::iota(m.begin(), m.end(), 0.0);
            c.send(m.data(), 1, matrix, 1, 0);
        } else {
            std::vector<double> recv(n * n * 3, -1.0);
            c.recv(recv.data(), recv.size() * 8, Datatype::byte(), 0, 0);
            // recv now holds the transpose: element (i,j) of the received
            // row-major matrix is element (j,i) of the original.
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    for (std::size_t k = 0; k < 3; ++k) {
                        EXPECT_DOUBLE_EQ(recv[(i * n + j) * 3 + k],
                                         static_cast<double>((j * n + i) * 3 + k));
                    }
                }
            }
        }
    });
}

TEST(Runtime, NoncontiguousBothSides) {
    // Send a column, receive into a row: both ranks use derived types.
    constexpr std::size_t n = 6;
    World w(2);
    w.run([&](Comm& c) {
        auto col = Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), Datatype::float64());
        auto row = Datatype::contiguous(n, Datatype::float64());
        if (c.rank() == 0) {
            std::vector<double> m(n * n);
            std::iota(m.begin(), m.end(), 0.0);
            c.send(m.data(), 1, col, 1, 0);  // column 0: 0, 6, 12, ...
        } else {
            std::vector<double> m(n * n, -1.0);
            c.recv(m.data() + n, 1, row, 0, 0);  // into row 1
            for (std::size_t j = 0; j < n; ++j) {
                EXPECT_DOUBLE_EQ(m[n + j], static_cast<double>(j * n));
            }
            EXPECT_DOUBLE_EQ(m[0], -1.0);
        }
    });
}

TEST(Runtime, EngineSelectionBothProduceSameResult) {
    constexpr std::size_t n = 12;
    for (auto kind : {nncomm::dt::EngineKind::SingleContext, nncomm::dt::EngineKind::DualContext}) {
        World w(2);
        w.run([&](Comm& c) {
            c.set_engine(kind);
            auto col =
                Datatype::vector(n, 1, static_cast<std::ptrdiff_t>(n), Datatype::float64());
            if (c.rank() == 0) {
                std::vector<double> m(n * n);
                std::iota(m.begin(), m.end(), 0.0);
                c.send(m.data(), 1, col, 1, 0);
            } else {
                std::vector<double> v(n, 0.0);
                c.recv(v.data(), n * 8, Datatype::byte(), 0, 0);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_DOUBLE_EQ(v[i], static_cast<double>(i * n));
                }
            }
        });
    }
}

TEST(Runtime, BaselineEngineAccumulatesSearchCounters) {
    constexpr std::size_t n = 64;
    World w(2);
    w.run([&](Comm& c) {
        c.set_engine(nncomm::dt::EngineKind::SingleContext);
        nncomm::dt::EngineConfig cfg;
        cfg.pipeline_chunk = 512;
        c.set_engine_config(cfg);
        // Aperiodic gaps (hash jitter on a base stride of 3): neither a
        // constant stride nor a periodic inner run, so the layout compiles
        // to the Irregular plan class and the baseline engine's re-search
        // path is actually exercised. (A periodic jitter like 2i + (i&1)
        // would classify as the BlockedStrided plan kernel and bypass it.)
        std::vector<std::size_t> lens(n * n, 1);
        std::vector<std::ptrdiff_t> displs(n * n);
        for (std::size_t i = 0; i < n * n; ++i) {
            const auto jit = static_cast<std::ptrdiff_t>(
                (static_cast<std::uint64_t>(i) * 2654435761ULL >> 7) % 2);
            displs[i] = (static_cast<std::ptrdiff_t>(3 * i) + jit) * 8;
        }
        auto col = Datatype::hindexed(lens, displs, Datatype::float64());
        if (c.rank() == 0) {
            std::vector<double> m(3 * n * n + 2);
            c.send(m.data(), 1, col, 1, 0);
            EXPECT_GT(c.counters().search_blocks_visited, 0u);
            EXPECT_GT(c.timers().ns(nncomm::Phase::Search), 0u);
        } else {
            std::vector<double> v(n * n);
            c.recv(v.data(), n * n * 8, Datatype::byte(), 0, 0);
        }
    });
}

TEST(Runtime, Barrier) {
    constexpr int kRounds = 20;
    World w(7);
    std::atomic<int> phase{0};
    std::atomic<int> arrived{0};
    w.run([&](Comm& c) {
        for (int r = 0; r < kRounds; ++r) {
            // Everyone must observe the same phase before and after.
            EXPECT_EQ(phase.load(), r);
            if (arrived.fetch_add(1) + 1 == c.size()) {
                arrived.store(0);
                phase.store(r + 1);
            }
            c.barrier();
            EXPECT_EQ(phase.load(), r + 1);
        }
    });
}

TEST(Runtime, MessageLargerThanBufferThrows) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         std::vector<double> big(100);
                         c.send_n(big.data(), big.size(), 1, 0);
                     } else {
                         double small[2];
                         c.recv_n(small, 2, 0, 0);
                     }
                 }),
                 nncomm::Error);
}

TEST(Runtime, ExceptionInOneRankPropagatesAndUnblocksOthers) {
    World w(3);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         throw nncomm::Error("boom");
                     }
                     // Other ranks block on a message that never comes; the
                     // abort must wake them.
                     int v = 0;
                     c.recv_n(&v, 1, 0, 99);
                 }),
                 nncomm::Error);
}

TEST(Runtime, InvalidDestinationRejected) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         int v = 1;
                         c.send_n(&v, 1, 5, 0);  // rank 5 does not exist
                     } else {
                         int v = 0;
                         c.recv_n(&v, 1, 0, 0);
                     }
                 }),
                 nncomm::Error);
}

TEST(Runtime, WorldIsReusableAcrossRuns) {
    World w(3);
    for (int iter = 0; iter < 3; ++iter) {
        w.run([&](Comm& c) {
            int token = c.rank();
            const int to = (c.rank() + 1) % c.size();
            const int from = (c.rank() + c.size() - 1) % c.size();
            int in = -1;
            c.sendrecv(&token, sizeof(int), Datatype::byte(), to, iter, &in, sizeof(int),
                       Datatype::byte(), from, iter);
            EXPECT_EQ(in, from);
        });
    }
}

TEST(Runtime, ManyRanksAllToOne) {
    World w(16);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            long sum = 0;
            for (int i = 1; i < c.size(); ++i) {
                int v = 0;
                c.recv_n(&v, 1, kAnySource, 0);
                sum += v;
            }
            EXPECT_EQ(sum, 15 * 16 / 2);
        } else {
            const int v = c.rank();
            c.send_n(&v, 1, 0, 0);
        }
    });
}

TEST(Runtime, DoubleWaitIsIdempotent) {
    // wait() on an already-completed request returns the cached status and
    // must not rematch or unpack again.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int x = 11;
            c.send_n(&x, 1, 1, 4);
        } else {
            int x = 0;
            Request r = c.irecv(&x, sizeof(int), Datatype::byte(), 0, 4);
            RecvStatus first = c.wait(r);
            RecvStatus again = c.wait(r);
            EXPECT_EQ(x, 11);
            EXPECT_EQ(first.source, again.source);
            EXPECT_EQ(first.tag, again.tag);
            EXPECT_EQ(first.bytes, again.bytes);
        }
    });
}

TEST(Runtime, WaitallOnCompletedSendsIsIdempotent) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            std::vector<int> payload(4, 3);
            std::vector<Request> sends;
            for (int i = 0; i < 4; ++i) {
                sends.push_back(c.isend(&payload[static_cast<std::size_t>(i)], sizeof(int),
                                        Datatype::byte(), 1, i));
            }
            c.waitall(sends);
            c.waitall(sends);  // all complete: must be a no-op
        } else {
            for (int i = 0; i < 4; ++i) {
                int v = 0;
                c.recv_n(&v, 1, 0, i);
                EXPECT_EQ(v, 3);
            }
        }
    });
}

TEST(Runtime, PendingIsendCompletesUnderPerturbation) {
    // With a perturbation policy the isend is genuinely pending: the
    // request completes only once the delivery engine drains it, and the
    // sched_pending_sends counter proves it went through the queue.
    World w(2);
    w.set_schedule(nncomm::rt::SchedulePolicy::perturb(/*seed=*/12345, /*level=*/2));
    std::atomic<std::uint64_t> pending{0};
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> out(256, 2.5);
            Request s = c.isend(out.data(), out.size() * 8, Datatype::byte(), 1, 0);
            c.wait(s);
            pending += c.counters().sched_pending_sends;
        } else {
            std::vector<double> in(256, 0.0);
            c.recv_n(in.data(), in.size(), 0, 0);
            EXPECT_DOUBLE_EQ(in[0], 2.5);
            EXPECT_DOUBLE_EQ(in[255], 2.5);
        }
    });
    EXPECT_GT(pending.load(), 0u);
}

TEST(Runtime, UnexpectedQueueKeepsArrivalOrderUnderPerturbation) {
    // All messages arrive before any receive posts (a barrier separates
    // send and receive phases), so they queue as unexpected. Wildcard
    // receives must then drain them in arrival order — and the fault
    // injector's reordering never applies to user-context traffic, so
    // arrival order for one (source, tag) stream is post order.
    World w(2);
    w.set_schedule(nncomm::rt::SchedulePolicy::perturb(/*seed=*/777, /*level=*/3));
    w.run([](Comm& c) {
        constexpr int kN = 32;
        if (c.rank() == 0) {
            for (int i = 0; i < kN; ++i) c.send_n(&i, 1, 1, 5);
            c.barrier();
        } else {
            c.barrier();  // every message is now queued unexpected
            for (int i = 0; i < kN; ++i) {
                int v = -1;
                RecvStatus st = c.recv_n(&v, 1, kAnySource, kAnyTag);
                EXPECT_EQ(v, i);
                EXPECT_EQ(st.tag, 5);
            }
        }
    });
}

TEST(Runtime, RootCauseErrorWinsOverSecondaryAborts) {
    // The rank that throws is the one reported, not a rank whose blocked
    // recv was woken by the abort — whichever reaches the error slot first.
    World w(3);
    bool caught = false;
    try {
        w.run([](Comm& c) {
            if (c.rank() == 1) throw nncomm::Error("boom");
            int v = 0;
            c.recv_n(&v, 1, 1, 99);  // never sent; abort must wake this
        });
    } catch (const nncomm::rt::AbortedError&) {
        ADD_FAILURE() << "secondary AbortedError masked the root cause";
    } catch (const nncomm::Error& e) {
        caught = true;
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(w.faulting_rank(), 1);
}

// ---------------------------------------------------------------------------
// The buffered-eager transport: posted-receive registry, payload pool and
// the counters that make both observable.

constexpr int kDataTag = 7;
constexpr int kTokenTag = 8;

struct ExchangeStats {
    std::atomic<std::uint64_t> bytes_copied{0};
    std::atomic<std::uint64_t> payload_allocs{0};
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> pool_misses{0};

    void add(const StatCounters& c) {
        bytes_copied += c.rt_bytes_copied;
        payload_allocs += c.rt_payload_allocs;
        pool_hits += c.rt_pool_hits;
        pool_misses += c.rt_pool_misses;
    }
};

// Posting a receive and matching an arrival against it run only on the
// receiving rank's thread, so neither takes a lock. No SchedulePolicy;
// the messages are zero-byte (no payload pool) and fewer than the lane
// ring's 8 slots (no overflow spill), so the receiver's lock count must
// not move at all.
TEST(Runtime, PostedReceivesTakeNoLocks) {
    constexpr int kMsgs = 6;
    std::atomic<std::uint64_t> receiver_locks{~std::uint64_t{0}};
    World w(2);
    w.run([&](Comm& c) {
        if (c.rank() == 1) {
            const std::uint64_t before = c.counters().rt_lock_acquisitions;
            std::vector<Request> reqs;
            for (int i = 0; i < kMsgs; ++i) {
                reqs.push_back(c.irecv(nullptr, 0, Datatype::byte(), 0, i));
            }
            c.send(nullptr, 0, Datatype::byte(), 0, kTokenTag);  // receives are posted
            c.waitall(reqs);
            receiver_locks = c.counters().rt_lock_acquisitions - before;
        } else {
            c.recv(nullptr, 0, Datatype::byte(), 1, kTokenTag);
            for (int i = 0; i < kMsgs; ++i) c.send(nullptr, 0, Datatype::byte(), 1, i);
        }
    });
    EXPECT_EQ(receiver_locks.load(), 0u);
}

TEST(Runtime, ZeroByteMessagesTouchNothing) {
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        if (c.rank() == 1) {
            Request r = c.irecv(nullptr, 0, Datatype::byte(), 0, kDataTag);
            RecvStatus st = c.wait(r);
            EXPECT_EQ(st.bytes, 0u);
            EXPECT_EQ(st.source, 0);
        } else {
            c.send(nullptr, 0, Datatype::byte(), 1, kDataTag);
        }
        s.add(c.counters());
    });
    // Empty sends are pure synchronization: no allocation, no pool
    // traffic, no copies.
    EXPECT_EQ(s.payload_allocs.load(), 0u);
    EXPECT_EQ(s.pool_hits.load() + s.pool_misses.load(), 0u);
    EXPECT_EQ(s.bytes_copied.load(), 0u);
}

TEST(Runtime, PayloadPoolRecyclesInSteadyState) {
    constexpr std::size_t kBytes = 4096;
    constexpr int kRounds = 32;
    ExchangeStats s;
    World w(2);
    w.run([&](Comm& c) {
        std::vector<std::uint8_t> buf(kBytes, static_cast<std::uint8_t>(c.rank()));
        const int peer = 1 - c.rank();
        for (int round = 0; round < kRounds; ++round) {
            // Blocking ping-pong: each payload buffer is released back to
            // the pool before the next send of the same size class fires.
            if (c.rank() == 0) {
                c.send(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
                c.recv(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
            } else {
                c.recv(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
                c.send(buf.data(), kBytes, Datatype::byte(), peer, kDataTag);
            }
        }
        s.add(c.counters());
    });
    const std::uint64_t acquires = s.pool_hits.load() + s.pool_misses.load();
    EXPECT_EQ(acquires, static_cast<std::uint64_t>(2 * kRounds));
    // Every payload is staged once and unpacked once.
    EXPECT_EQ(s.bytes_copied.load(), static_cast<std::uint64_t>(2 * 2 * kRounds) * kBytes);
    // Steady state: the same one or two buffers cycle between the ranks.
    EXPECT_LE(s.payload_allocs.load(), 2u);
    EXPECT_GE(s.pool_hits.load(), static_cast<std::uint64_t>(2 * kRounds - 2));
}

// Regression for the pool byte budget. The per-class cap bounds buffer
// COUNT only, so before the budget existed a burst of large eager messages
// could pin count-cap x 8 MiB in the shared store forever. The budget must
// bound the store's resident bytes at every point (trimming largest
// classes first on insert), the rt_pool_resident_bytes counter must record
// the high water, and shrinking the budget must trim immediately.
TEST(PayloadPoolBudget, SharedStoreHonorsByteBudget) {
    constexpr std::size_t kBudget = 1 << 20;  // 1 MiB
    constexpr std::size_t kMsg = 256 * 1024;  // one 256 KiB size class
    constexpr int kMsgs = 24;  // enough releases to flush the receiver shelf repeatedly
    std::atomic<std::uint64_t> high_water{0};
    World w(2);
    w.set_payload_pool_budget(kBudget);
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<std::uint8_t> out(kMsg, 0x3D);
            for (int i = 0; i < kMsgs; ++i) {
                c.send(out.data(), kMsg, Datatype::byte(), 1, kDataTag);
            }
        } else {
            // Drain after the fact: each finish_recv releases a 256 KiB
            // buffer onto this rank's shelf, whose overflow flushes batches
            // into the budgeted shared store.
            std::vector<std::uint8_t> in(kMsg, 0);
            for (int i = 0; i < kMsgs; ++i) {
                c.recv(in.data(), kMsg, Datatype::byte(), 0, kDataTag);
                EXPECT_EQ(in[0], 0x3D);
                EXPECT_EQ(in[kMsg - 1], 0x3D);
            }
        }
        c.barrier();
        std::uint64_t hw = c.counters().rt_pool_resident_bytes;
        std::uint64_t cur = high_water.load();
        while (hw > cur && !high_water.compare_exchange_weak(cur, hw)) {
        }
    });
    EXPECT_LE(w.payload_pool_resident_bytes(), kBudget);
    EXPECT_GT(high_water.load(), 0u) << "flushes never reached the shared store";
    EXPECT_LE(high_water.load(), kBudget) << "budget was exceeded at some point";
    w.set_payload_pool_budget(0);  // shrink: must trim the store right away
    EXPECT_EQ(w.payload_pool_resident_bytes(), 0u);
}

// A message longer than a receive that was posted before it arrived fails
// at the receiver, exactly like one that waited in the unexpected queue.
TEST(Runtime, OversizedMessageIntoPostedReceiveThrows) {
    World w(2);
    EXPECT_THROW(w.run([&](Comm& c) {
                     if (c.rank() == 1) {
                         std::vector<std::uint8_t> in(1024, 0);
                         Request r = c.irecv(in.data(), in.size(), Datatype::byte(), 0, kDataTag);
                         int token = 1;
                         c.send_n(&token, 1, 0, kTokenTag);
                         c.wait(r);
                     } else {
                         std::vector<std::uint8_t> out(2048, 9);
                         int token = 0;
                         c.recv_n(&token, 1, 1, kTokenTag);
                         c.send(out.data(), out.size(), Datatype::byte(), 1, kDataTag);
                     }
                 }),
                 nncomm::Error);
}

// A blocking send of a large message to a rank that has posted nothing
// returns without waiting for the receiver: the payload is buffered.
TEST(Runtime, BlockingSendNeverWaitsForTheReceiver) {
    constexpr std::size_t kBytes = 256 * 1024;
    World w(2);
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<std::uint8_t> out(kBytes, 0xAB);
            // The receiver posts nothing until after this send returns.
            c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 1, kTokenTag);
        } else {
            int token = 0;
            c.recv_n(&token, 1, 0, kTokenTag);
            std::vector<std::uint8_t> in(kBytes, 0);
            c.recv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
            EXPECT_EQ(in[0], 0xAB);
            EXPECT_EQ(in[kBytes - 1], 0xAB);
        }
    });
}

// isend returns an already-complete request: the payload is staged before
// isend returns, so reusing the send buffer cannot change what arrives.
TEST(Runtime, IsendBufferReusableOnReturn) {
    constexpr std::size_t kBytes = 64 * 1024;
    World w(2);
    w.run([&](Comm& c) {
        if (c.rank() == 1) {
            std::vector<std::uint8_t> in(kBytes, 0);
            Request r = c.irecv(in.data(), kBytes, Datatype::byte(), 0, kDataTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);
            c.wait(r);
            EXPECT_EQ(in[0], 0x5C);
            EXPECT_EQ(in[kBytes - 1], 0x5C);
        } else {
            std::vector<std::uint8_t> out(kBytes, 0x5C);
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            Request r = c.isend(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
            out.assign(kBytes, 0x00);
            c.wait(r);
        }
    });
}

TEST(Runtime, WildcardReceiveStatusFilledCorrectly) {
    constexpr std::size_t kBytes = 48 * 1024;
    World w(2);
    w.run([&](Comm& c) {
        if (c.rank() == 1) {
            std::vector<std::uint8_t> in(kBytes, 0);
            Request r = c.irecv(in.data(), kBytes, Datatype::byte(), kAnySource, kAnyTag);
            int token = 1;
            c.send_n(&token, 1, 0, kTokenTag);
            // The token travels TO rank 0, so the payload is the only
            // message rank 1 ever receives: the wildcard can only match it.
            RecvStatus st = c.wait(r);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, kDataTag);
            EXPECT_EQ(st.bytes, kBytes);
            EXPECT_EQ(in[kBytes - 1], static_cast<std::uint8_t>((kBytes - 1) % 251));
        } else {
            std::vector<std::uint8_t> out(kBytes);
            for (std::size_t i = 0; i < kBytes; ++i) {
                out[i] = static_cast<std::uint8_t>(i % 251);
            }
            int token = 0;
            c.recv_n(&token, 1, 1, kTokenTag);
            c.send(out.data(), kBytes, Datatype::byte(), 1, kDataTag);
        }
    });
}

// The engine-vs-plan rule holds on the eager path: a SingleContext
// strided->strided message runs the engine on the sender and never a
// receive plan; the DualContext twin runs plans. The bytes land
// identically either way.
TEST(Runtime, EagerTransferObeysTheEngineRule) {
    constexpr std::size_t kN = 4096;
    const Datatype strided = Datatype::vector(kN, 1, 2, Datatype::float64());

    struct Run {
        StatCounters sender, receiver;
        std::vector<double> landed;
    };
    auto run = [&](nncomm::dt::EngineKind kind) {
        Run out;
        World w(2);
        w.run([&](Comm& c) {
            c.set_engine(kind);
            if (c.rank() == 1) {
                std::vector<double> in(2 * kN - 1, -1.0);
                c.recv(in.data(), 1, strided, 0, kDataTag);
                out.receiver = c.counters();
                out.landed = std::move(in);
            } else {
                std::vector<double> src(2 * kN - 1, -7.0);
                for (std::size_t i = 0; i < kN; ++i) src[2 * i] = static_cast<double>(i) * 0.25;
                c.send(src.data(), 1, strided, 1, kDataTag);
                out.sender = c.counters();
            }
        });
        return out;
    };

    const Run base = run(nncomm::dt::EngineKind::SingleContext);
    const Run dual = run(nncomm::dt::EngineKind::DualContext);
    EXPECT_EQ(base.receiver.plan_hits, 0u);
    EXPECT_GT(base.sender.engine_builds, 0u);
    EXPECT_GT(dual.receiver.plan_hits, 0u);  // the eager scatter ran the receive plan

    ASSERT_EQ(dual.landed.size(), base.landed.size());
    EXPECT_EQ(std::memcmp(dual.landed.data(), base.landed.data(),
                          base.landed.size() * sizeof(double)),
              0);
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(base.landed[2 * i], static_cast<double>(i) * 0.25) << "elem " << i;
        if (i + 1 < kN) {
            ASSERT_EQ(base.landed[2 * i + 1], -1.0) << "gap " << i;
        }
    }
}

// Parameterized stress: random point-to-point traffic with mixed datatypes
// is delivered correctly at several world sizes.
class RuntimeStress : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeStress, RandomRingTraffic) {
    const int n = GetParam();
    World w(n);
    w.run([&](Comm& c) {
        const int to = (c.rank() + 1) % n;
        const int from = (c.rank() + n - 1) % n;
        for (int round = 0; round < 8; ++round) {
            std::vector<int> out(64);
            std::iota(out.begin(), out.end(), c.rank() * 1000 + round);
            std::vector<int> in(64, -1);
            c.sendrecv(out.data(), out.size() * 4, Datatype::byte(), to, round, in.data(),
                       in.size() * 4, Datatype::byte(), from, round);
            EXPECT_EQ(in[0], from * 1000 + round);
            EXPECT_EQ(in[63], from * 1000 + round + 63);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuntimeStress, ::testing::Values(1, 2, 3, 4, 8, 13, 16));

}  // namespace

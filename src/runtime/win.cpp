#include "runtime/win.hpp"

#include <atomic>
#include <cstring>

#include "core/error.hpp"

namespace nncomm::rt {

namespace detail {

/// Shared control block of one window: every rank's exposed region plus the
/// epoch counters. All counters are monotonic — an epoch transition is
/// "counter reached k", never a reset — so a waiter can only ever be behind,
/// and the release increment / acquire load pair publishes every put byte
/// stored before the transition.
struct WinShared {
    struct Region {
        std::uint8_t* base = nullptr;
        std::size_t bytes = 0;
    };
    int nranks = 0;
    std::vector<Region> regions;
    /// fence_epoch[r]: fences rank r has entered.
    std::unique_ptr<std::atomic<std::uint64_t>[]> fence_epoch;
    /// posts[o * nranks + t]: exposure epochs rank t has posted to origin o.
    std::unique_ptr<std::atomic<std::uint64_t>[]> posts;
    /// completes[t * nranks + o]: access epochs origin o has completed at
    /// target t.
    std::unique_ptr<std::atomic<std::uint64_t>[]> completes;

    static std::unique_ptr<std::atomic<std::uint64_t>[]> zeroed(std::size_t n) {
        auto a = std::make_unique<std::atomic<std::uint64_t>[]>(n);
        for (std::size_t i = 0; i < n; ++i) a[i].store(0, std::memory_order_relaxed);
        return a;
    }
};

namespace {

/// Window-creation tag lane, disjoint from the persistent-plan (+0x500)
/// and sparse-exchange bases below kEpochTagStride.
constexpr int kWinTagBase = kInternalTagBase + 0x600;

struct RegionMsg {
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
};

}  // namespace

}  // namespace detail

Win Win::create(Comm& comm, void* base, std::size_t bytes) {
    NNCOMM_CHECK_MSG(base != nullptr || bytes == 0, "window region of null base");
    const int n = comm.size();
    const int me = comm.rank();
    const int tag = epoch_tag(detail::kWinTagBase, comm.next_collective_epoch());
    const dt::Datatype byte = dt::Datatype::byte();

    // Rank 0 gathers every region, builds the control block once, then
    // ships each peer a heap clone of the shared_ptr — 8 bytes over the
    // internal context; the threads share one address space.
    std::shared_ptr<detail::WinShared> shared;
    if (me == 0) {
        shared = std::make_shared<detail::WinShared>();
        shared->nranks = n;
        shared->regions.resize(static_cast<std::size_t>(n));
        shared->regions[0] = {static_cast<std::uint8_t*>(base), bytes};
        for (int r = 1; r < n; ++r) {
            detail::RegionMsg msg;
            comm.recv_i(&msg, sizeof msg, byte, r, tag);
            shared->regions[static_cast<std::size_t>(r)] = {
                reinterpret_cast<std::uint8_t*>(msg.base),
                static_cast<std::size_t>(msg.bytes)};
        }
        const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
        shared->fence_epoch = detail::WinShared::zeroed(static_cast<std::size_t>(n));
        shared->posts = detail::WinShared::zeroed(nn);
        shared->completes = detail::WinShared::zeroed(nn);
        for (int r = 1; r < n; ++r) {
            auto* clone = new std::shared_ptr<detail::WinShared>(shared);
            const std::uint64_t addr = reinterpret_cast<std::uint64_t>(clone);
            comm.send_i(&addr, sizeof addr, byte, r, tag);
        }
    } else {
        detail::RegionMsg msg{reinterpret_cast<std::uint64_t>(base),
                              static_cast<std::uint64_t>(bytes)};
        comm.send_i(&msg, sizeof msg, byte, 0, tag);
        std::uint64_t addr = 0;
        comm.recv_i(&addr, sizeof addr, byte, 0, tag);
        auto* clone = reinterpret_cast<std::shared_ptr<detail::WinShared>*>(addr);
        shared = *clone;
        delete clone;
    }

    Win w(std::move(shared), &comm, me);
    w.consumed_posts_.assign(static_cast<std::size_t>(n), 0);
    w.consumed_completes_.assign(static_cast<std::size_t>(n), 0);
    return w;
}

int Win::rank() const {
    NNCOMM_CHECK_MSG(valid(), "rank() on null window");
    return rank_;
}

int Win::size() const {
    NNCOMM_CHECK_MSG(valid(), "size() on null window");
    return shared_->nranks;
}

std::size_t Win::region_bytes(int target) const {
    NNCOMM_CHECK_MSG(valid(), "region_bytes() on null window");
    NNCOMM_CHECK_MSG(target >= 0 && target < shared_->nranks, "window target out of range");
    return shared_->regions[static_cast<std::size_t>(target)].bytes;
}

void Win::attach(void* base, std::size_t bytes) {
    NNCOMM_CHECK_MSG(valid(), "attach() on null window");
    NNCOMM_CHECK_MSG(base != nullptr || bytes == 0, "window region of null base");
    NNCOMM_CHECK_MSG(!fence_open_ && !access_open_ && !exposure_open_,
                     "attach() inside an open epoch");
    shared_->regions[static_cast<std::size_t>(rank_)] = {static_cast<std::uint8_t*>(base), bytes};
}

void* Win::translate(int target, std::size_t offset, std::size_t bytes) {
    NNCOMM_CHECK_MSG(valid(), "translate() on null window");
    NNCOMM_CHECK_MSG(target >= 0 && target < shared_->nranks, "window target out of range");
    const detail::WinShared::Region& reg = shared_->regions[static_cast<std::size_t>(target)];
    NNCOMM_CHECK_MSG(offset <= reg.bytes && bytes <= reg.bytes - offset,
                     "window access outside the target region");
    return reg.base + offset;
}

void Win::put(const void* src, std::size_t bytes, int target, std::size_t target_offset) {
    void* dst = translate(target, target_offset, bytes);
    if (bytes > 0) std::memcpy(dst, src, bytes);
    ++comm_->counters().rt_rma_puts;
    comm_->counters().rt_rma_put_bytes += bytes;
}

void Win::put(const void* src, std::size_t count, const dt::Datatype& type, int target,
              std::ptrdiff_t tdispl, std::size_t tcount, const dt::Datatype& ttype,
              const TransferCtx& how) {
    const std::size_t total = count * type.size();
    NNCOMM_CHECK_MSG(total <= tcount * ttype.size(), "put longer than the target layout");
    const auto [lo, hi] = ttype.flat().footprint(tcount);
    NNCOMM_CHECK_MSG(tdispl + lo >= 0, "window access outside the target region");
    auto* first = static_cast<std::byte*>(translate(
        target, static_cast<std::size_t>(tdispl + lo), static_cast<std::size_t>(hi - lo)));
    transfer(src, count, type, first - lo, tcount, ttype, total, how);
    ++comm_->counters().rt_rma_puts;
    comm_->counters().rt_rma_put_bytes += total;
}

void Win::get(void* dst, std::size_t bytes, int target, std::size_t target_offset) {
    const void* src = translate(target, target_offset, bytes);
    if (bytes > 0) std::memcpy(dst, src, bytes);
    ++comm_->counters().rt_rma_gets;
    comm_->counters().rt_rma_get_bytes += bytes;
}

void Win::flush(int target) {
    NNCOMM_CHECK_MSG(valid(), "flush() on null window");
    NNCOMM_CHECK_MSG(target >= 0 && target < shared_->nranks, "window target out of range");
    // Puts are synchronous copies on this runtime; completing them is a
    // matter of publishing the stores.
    std::atomic_thread_fence(std::memory_order_release);
    ++comm_->counters().rt_rma_flushes;
}

void Win::flush_all() {
    NNCOMM_CHECK_MSG(valid(), "flush_all() on null window");
    std::atomic_thread_fence(std::memory_order_release);
    ++comm_->counters().rt_rma_flushes;
}

void Win::fence_begin() {
    NNCOMM_CHECK_MSG(valid(), "fence_begin() on null window");
    NNCOMM_CHECK_MSG(!fence_open_, "fence_begin() with a fence already open");
    // The release increment publishes every put byte this rank stored
    // before the fence; the pulses wake parked peers so no waiter sits out
    // a full timed slice in the common case.
    fence_target_ =
        shared_->fence_epoch[static_cast<std::size_t>(rank_)].fetch_add(
            1, std::memory_order_release) + 1;
    fence_open_ = true;
    for (int r = 0; r < shared_->nranks; ++r) {
        if (r != rank_) comm_->pulse_rank(r);
    }
}

bool Win::fence_test() {
    NNCOMM_CHECK_MSG(valid(), "fence_test() on null window");
    if (!fence_open_) return true;
    for (int r = 0; r < shared_->nranks; ++r) {
        if (shared_->fence_epoch[static_cast<std::size_t>(r)].load(std::memory_order_acquire) <
            fence_target_) {
            return false;
        }
    }
    fence_open_ = false;
    ++comm_->counters().rt_rma_fences;
    return true;
}

void Win::fence() {
    fence_begin();
    if (!fence_test()) {
        comm_->wait_until([this] { return fence_test(); });
    }
}

void Win::post(const std::vector<int>& origins) {
    NNCOMM_CHECK_MSG(valid(), "post() on null window");
    NNCOMM_CHECK_MSG(!exposure_open_, "post() with an exposure epoch already open");
    const int n = shared_->nranks;
    for (int o : origins) {
        NNCOMM_CHECK_MSG(o >= 0 && o < n, "post() origin out of range");
        shared_->posts[static_cast<std::size_t>(o) * static_cast<std::size_t>(n) +
                       static_cast<std::size_t>(rank_)]
            .fetch_add(1, std::memory_order_release);
        comm_->pulse_rank(o);
    }
    post_group_ = origins;
    exposure_open_ = true;
}

void Win::start(const std::vector<int>& targets) {
    NNCOMM_CHECK_MSG(valid(), "start() on null window");
    NNCOMM_CHECK_MSG(!access_open_, "start() with an access epoch already open");
    const int n = shared_->nranks;
    for (int t : targets) {
        NNCOMM_CHECK_MSG(t >= 0 && t < n, "start() target out of range");
        const std::uint64_t want = consumed_posts_[static_cast<std::size_t>(t)] + 1;
        const std::atomic<std::uint64_t>& posted =
            shared_->posts[static_cast<std::size_t>(rank_) * static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(t)];
        comm_->wait_until(
            [&posted, want] { return posted.load(std::memory_order_acquire) >= want; });
        consumed_posts_[static_cast<std::size_t>(t)] = want;
    }
    start_group_ = targets;
    access_open_ = true;
}

void Win::complete() {
    NNCOMM_CHECK_MSG(valid(), "complete() on null window");
    NNCOMM_CHECK_MSG(access_open_, "complete() without a started access epoch");
    const int n = shared_->nranks;
    for (int t : start_group_) {
        shared_->completes[static_cast<std::size_t>(t) * static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(rank_)]
            .fetch_add(1, std::memory_order_release);
        comm_->pulse_rank(t);
    }
    start_group_.clear();
    access_open_ = false;
    ++comm_->counters().rt_rma_pscw_epochs;
}

void Win::wait() {
    NNCOMM_CHECK_MSG(valid(), "wait() on null window");
    NNCOMM_CHECK_MSG(exposure_open_, "wait() without a posted exposure epoch");
    const int n = shared_->nranks;
    for (int o : post_group_) {
        const std::uint64_t want = consumed_completes_[static_cast<std::size_t>(o)] + 1;
        const std::atomic<std::uint64_t>& done =
            shared_->completes[static_cast<std::size_t>(rank_) * static_cast<std::size_t>(n) +
                               static_cast<std::size_t>(o)];
        comm_->wait_until(
            [&done, want] { return done.load(std::memory_order_acquire) >= want; });
        consumed_completes_[static_cast<std::size_t>(o)] = want;
    }
    post_group_.clear();
    exposure_open_ = false;
}

}  // namespace nncomm::rt

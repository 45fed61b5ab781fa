#include "coll/persistent.hpp"

#include <algorithm>
#include <vector>

#include "runtime/protocol.hpp"

namespace nncomm::coll {

namespace {
/// Own tag space so persistent traffic can never match one-shot alltoallw
/// messages in flight on the same communicator. (0x500: the previous 0x300
/// base collided with bcast's tag.)
constexpr int kPersistentTagBase = rt::kInternalTagBase + 0x500;
/// One-sided plans exchange receive layouts exactly once, at plan time, on
/// this lane (disjoint from the payload lane at offset 0; steady state then
/// moves zero control messages).
constexpr int kRmaLayoutExchange = 0x100;
}  // namespace

AlltoallwPlan::AlltoallwPlan(rt::Comm& comm, std::span<const std::size_t> sendcounts,
                             std::span<const std::ptrdiff_t> sdispls,
                             std::span<const dt::Datatype> sendtypes,
                             std::span<const std::size_t> recvcounts,
                             std::span<const std::ptrdiff_t> rdispls,
                             std::span<const dt::Datatype> recvtypes, const CollConfig& config,
                             dt::EngineKind engine)
    : comm_(&comm), engine_kind_(engine), engine_config_(comm.engine_config()) {
    const auto n = static_cast<std::size_t>(comm.size());
    NNCOMM_CHECK_MSG(sendcounts.size() == n && sdispls.size() == n && sendtypes.size() == n &&
                         recvcounts.size() == n && rdispls.size() == n && recvtypes.size() == n,
                     "AlltoallwPlan: all argument arrays must have one entry per rank");
    const int rank = comm.rank();

    struct Peer {
        int rank;
        std::size_t count;
        std::ptrdiff_t displ;
        dt::Datatype type;
        std::uint64_t bytes;
    };
    std::vector<Peer> sends, recvs;

    bool has_self = false;
    std::size_t self_i = 0;
    std::uint64_t self_vol = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t svol =
            static_cast<std::uint64_t>(sendcounts[i]) * sendtypes[i].size();
        const std::uint64_t rvol =
            static_cast<std::uint64_t>(recvcounts[i]) * recvtypes[i].size();
        if (static_cast<int>(i) == rank) {
            NNCOMM_CHECK_MSG(svol == rvol, "AlltoallwPlan: self send/recv volume mismatch");
            if (svol > 0) {
                has_self = true;
                self_i = i;
                self_vol = svol;
            }
            continue;
        }
        if (svol > 0) {
            sends.push_back({static_cast<int>(i), sendcounts[i], sdispls[i], sendtypes[i], svol});
        }
        if (rvol > 0) {
            recvs.push_back({static_cast<int>(i), recvcounts[i], rdispls[i], recvtypes[i], rvol});
        }
    }

    // The binned send order, frozen at plan time: zero-volume peers never
    // made it into sends; the rest go smallest volume first so cheap peers
    // are not delayed behind expensive noncontiguous packing, with the
    // small/large boundary ordered exactly as the one-shot binned
    // algorithm orders it.
    const std::uint64_t small = config.small_msg_threshold;
    std::sort(sends.begin(), sends.end(), [small](const Peer& a, const Peer& b) {
        const bool as = a.bytes < small, bs = b.bytes < small;
        if (as != bs) return as;
        return a.bytes < b.bytes || (a.bytes == b.bytes && a.rank < b.rank);
    });
    send_peers_ = sends.size();
    recv_peers_ = recvs.size();

    // One-sided lowering decision. It MUST be uniform across ranks — the
    // closing fence is collective, and a rank with zero local traffic
    // cannot see its peers' volumes — so it is a pure function of the
    // config and the build/env gates, never of the traffic matrix.
    // Protocol::Eager in the config forces the two-sided graph.
    rma_ = rt::rma_selection_enabled() &&
           (config.persistent_protocol == rt::Protocol::Auto ||
            config.persistent_protocol == rt::Protocol::Rma);

    if (rma_) {
        // The window region is the data footprint of this rank's remote
        // receive layouts inside recvbuf; begin() re-points it at each
        // execute's buffer. Each source learns its typed layout relative to
        // that region (and we learn ours at each destination) in a single
        // setup-time exchange of heap handles, the hand-off Win::create uses
        // for its control block; steady state then puts straight into the
        // peers' receive buffers with no envelopes and no unpacks.
        std::ptrdiff_t lo = PTRDIFF_MAX, hi = PTRDIFF_MIN;
        for (const Peer& p : recvs) {
            const auto [first, last] = p.type.flat().footprint(p.count);
            lo = std::min(lo, p.displ + first);
            hi = std::max(hi, p.displ + last);
        }
        recv_lo_ = recvs.empty() ? 0 : lo;
        recv_bytes_ = recvs.empty() ? 0 : static_cast<std::size_t>(hi - lo);
        win_ = rt::Win::create(comm, nullptr, 0);

        TagSpace xspace(comm, kPersistentTagBase);
        const int xtag = xspace.tag(kRmaLayoutExchange);
        const dt::Datatype byte = dt::Datatype::byte();
        std::vector<std::uint64_t> handles_in(n, 0), handles_out(n, 0);
        std::vector<rt::Request> xreqs;
        xreqs.reserve(sends.size() + recvs.size());
        for (const Peer& p : sends) {
            xreqs.push_back(comm.irecv_i(&handles_in[static_cast<std::size_t>(p.rank)],
                                         sizeof(std::uint64_t), byte, p.rank, xtag));
        }
        for (const Peer& p : recvs) {
            auto* layout = new RecvLayout{p.displ - recv_lo_, p.count, p.type};
            auto& h = handles_out[static_cast<std::size_t>(p.rank)];
            h = reinterpret_cast<std::uint64_t>(layout);
            xreqs.push_back(comm.isend_i(&h, sizeof h, byte, p.rank, xtag));
        }
        for (rt::Request& rq : xreqs) comm.wait(rq);
        std::vector<RecvLayout> targets(n);
        for (const Peer& p : sends) {
            const auto d = static_cast<std::size_t>(p.rank);
            auto* layout = reinterpret_cast<RecvLayout*>(handles_in[d]);
            targets[d] = std::move(*layout);
            delete layout;
        }

        request_ = CollRequest(
            *comm_, build_alltoallw_rma_schedule(rank, static_cast<int>(n), sendcounts,
                                                 sdispls, sendtypes, recvcounts, rdispls,
                                                 recvtypes, targets,
                                                 config.small_msg_threshold));
        request_.set_window(&win_);
        request_.set_pack_engine(engine_kind_);
        return;
    }

    // Compile the schedule. Emission order is execution order: typed
    // receives post first, then the self copy, then the pack+send pairs in
    // binned order, all in one round.
    Schedule s;
    s.tag_base = kPersistentTagBase;

    for (const Peer& p : recvs) {
        ScheduleOp rcv;
        rcv.kind = ScheduleOpKind::Recv;
        rcv.peer = p.rank;
        rcv.a = {BufRef::Space::Recv, p.displ};
        rcv.count = p.count;
        rcv.type = p.type;
        rcv.bytes = p.bytes;
        s.ops.push_back(std::move(rcv));
    }
    if (has_self) {
        // Self exchange staged through a persistent slot (slot >= 0 routes
        // the Copy through pack_into/unpack_from instead of copy_typed).
        ScheduleOp cp;
        cp.kind = ScheduleOpKind::Copy;
        cp.a = {BufRef::Space::Send, sdispls[self_i]};
        cp.count = sendcounts[self_i];
        cp.type = sendtypes[self_i];
        cp.b = {BufRef::Space::Recv, rdispls[self_i]};
        cp.bcount = recvcounts[self_i];
        cp.btype = recvtypes[self_i];
        cp.slot = static_cast<int>(sends.size());
        cp.bytes = self_vol;
        s.ops.push_back(std::move(cp));
    }
    for (std::size_t k = 0; k < sends.size(); ++k) {
        const Peer& p = sends[k];
        ScheduleOp pk;
        pk.kind = ScheduleOpKind::Pack;
        pk.a = {BufRef::Space::Send, p.displ};
        pk.count = p.count;
        pk.type = p.type;
        pk.slot = static_cast<int>(k);
        pk.bytes = p.bytes;
        s.ops.push_back(std::move(pk));
        const int pack_idx = static_cast<int>(s.ops.size()) - 1;

        ScheduleOp snd;
        snd.kind = ScheduleOpKind::Send;
        snd.peer = p.rank;
        snd.a = {BufRef::Space::Send, p.displ};  // informational; wire uses the slot
        snd.count = p.count;
        snd.type = p.type;
        snd.slot = static_cast<int>(k);
        snd.bytes = p.bytes;
        snd.deps = {pack_idx};
        s.ops.push_back(std::move(snd));
    }

    s.staging.reserve(sends.size() + (has_self ? 1u : 0u));
    for (const Peer& p : sends) s.staging.push_back(static_cast<std::size_t>(p.bytes));
    if (has_self) s.staging.push_back(static_cast<std::size_t>(self_vol));

    request_ = CollRequest(*comm_, std::move(s));
    request_.set_pack_engine(engine_kind_);
}

AlltoallwPlan::~AlltoallwPlan() = default;

void AlltoallwPlan::begin(const void* sendbuf, void* recvbuf) {
    NNCOMM_CHECK_MSG(!request_.active(),
                     "AlltoallwPlan::begin while a previous execution is in flight");
    // Engine-config changes between executes invalidate the persistent
    // engines (their scratch sizing depends on the pipeline chunk); treat
    // it as a re-plan of the engines only.
    if (!(comm_->engine_config() == engine_config_)) {
        engine_config_ = comm_->engine_config();
        request_.invalidate_engines();
    }
    // Before this execute's open fence, which publishes the region to peers.
    if (rma_) {
        win_.attach(recv_bytes_ > 0 ? static_cast<std::byte*>(recvbuf) + recv_lo_ : nullptr,
                    recv_bytes_);
    }
    request_.reset();
    StatCounters extra;
    ++extra.persistent_executes;
    if (rma_) ++extra.coll_rma_plan_executes;
    if (executes_ > 0) ++extra.coll_schedule_cache_hits;
    request_.inject(extra);
    request_.start(sendbuf, recvbuf);
}

void AlltoallwPlan::end() {
    request_.wait();
    counters_ += request_.last_step();
    ++executes_;
}

void AlltoallwPlan::execute(const void* sendbuf, void* recvbuf) {
    begin(sendbuf, recvbuf);
    end();
}

}  // namespace nncomm::coll

#include "netsim/sim.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace nncomm::sim {

namespace {

// (src, dst, tag) packed into one 64-bit key: ranks < 2^16, tags < 2^32.
std::uint64_t pair_key(int src, int dst, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst) & 0xffff) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

struct RankState {
    std::size_t pc = 0;    ///< next op index
    double clock = 0.0;    ///< local virtual time (us)
    bool done = false;
};

/// One collective fence epoch. Fences are collective and every rank passes
/// the same number of them, so epoch k is globally well defined; a put
/// issued by rank r after its fence k-1 and before its fence k belongs to
/// epoch k and must have arrived before epoch k completes.
struct FenceState {
    int arrived = 0;           ///< ranks that have entered this fence
    double max_arrival = 0.0;  ///< latest entry time
    double put_latest = 0.0;   ///< latest arrival of a put in this epoch
    double completion = 0.0;
    bool complete = false;
};

/// One message in transit: arrival time plus what the receiver still owes
/// for it (the eager unpack copy; rendezvous bytes land in place).
struct Transit {
    double arrival = 0.0;
    std::uint64_t bytes = 0;
    bool rendezvous = false;
};

}  // namespace

SimResult Simulator::run(const std::vector<RankProgram>& programs) const {
    const int n = config_.nprocs;
    NNCOMM_CHECK_MSG(programs.size() == static_cast<std::size_t>(n),
                     "one program per rank required");

    std::vector<RankState> ranks(static_cast<std::size_t>(n));
    std::unordered_map<std::uint64_t, std::deque<Transit>> in_flight;  // FIFO per key
    in_flight.reserve(1024);
    std::unordered_map<std::uint64_t, FenceState> fences;       // epoch index -> state
    std::vector<std::uint64_t> next_fence(static_cast<std::size_t>(n), 0);
    std::vector<char> fence_entered(static_cast<std::size_t>(n), 0);
    SimResult result;

    // Sweep until every rank finishes. Sends never block, so any rank that
    // is stuck is waiting on a message; each sweep delivers at least one
    // message if the programs are deadlock-free.
    bool progress = true;
    int remaining = n;
    while (remaining > 0) {
        NNCOMM_CHECK_MSG(progress, "simulated programs deadlocked");
        progress = false;
        for (int r = 0; r < n; ++r) {
            RankState& st = ranks[static_cast<std::size_t>(r)];
            if (st.done) continue;
            const RankProgram& prog = programs[static_cast<std::size_t>(r)];
            const double speed = config_.rank_speed(r);
            while (st.pc < prog.size()) {
                const Op& op = prog[st.pc];
                if (op.kind == Op::Kind::Compute) {
                    st.clock += op.compute_us / speed;
                } else if (op.kind == Op::Kind::Send) {
                    // Sender occupied for overhead + serialization; message
                    // arrives one wire latency after it leaves the NIC.
                    // Protocol split of the modeled MPI stack: rendezvous
                    // iff bytes >= threshold AND the message is nonempty,
                    // so at threshold 0 a zero-byte send is still not
                    // charged a handshake.
                    const bool rdv = op.bytes > 0 && op.bytes >= config_.rendezvous_threshold;
                    double occupied = config_.overhead_us / speed +
                                      static_cast<double>(op.bytes) * config_.us_per_byte;
                    if (rdv) {
                        occupied += config_.rendezvous_handshake_us +
                                    static_cast<double>(op.bytes) * config_.copy_us_per_byte;
                        ++result.rendezvous_messages;
                    } else {
                        occupied += static_cast<double>(op.bytes) * config_.copy_us_per_byte;
                    }
                    st.clock += occupied;
                    in_flight[pair_key(r, op.peer, op.tag)].push_back(
                        Transit{st.clock + config_.latency_us, op.bytes, rdv});
                    ++result.messages;
                    result.bytes += op.bytes;
                } else if (op.kind == Op::Kind::Put) {
                    // LogGP put: sender pays overhead + serialization + the
                    // one copy into the target's receive layout. No
                    // handshake term (nothing to match) and no
                    // receiver-side cost: the bytes land where they belong.
                    st.clock += config_.overhead_us / speed +
                                static_cast<double>(op.bytes) * config_.us_per_byte +
                                static_cast<double>(op.bytes) * config_.copy_us_per_byte;
                    FenceState& fs = fences[next_fence[static_cast<std::size_t>(r)]];
                    fs.put_latest =
                        std::max(fs.put_latest, st.clock + config_.latency_us);
                    ++result.puts;
                    result.put_bytes += op.bytes;
                } else if (op.kind == Op::Kind::Fence) {
                    const std::uint64_t k = next_fence[static_cast<std::size_t>(r)];
                    FenceState& fs = fences[k];
                    if (!fence_entered[static_cast<std::size_t>(r)]) {
                        fence_entered[static_cast<std::size_t>(r)] = 1;
                        st.clock += config_.overhead_us / speed;
                        fs.max_arrival = std::max(fs.max_arrival, st.clock);
                        ++fs.arrived;
                        progress = true;
                    }
                    if (fs.arrived < n) break;  // blocked on stragglers
                    if (!fs.complete) {
                        fs.complete = true;
                        fs.completion = std::max(fs.max_arrival, fs.put_latest);
                        ++result.fences;
                    }
                    st.clock = std::max(st.clock, fs.completion);
                    fence_entered[static_cast<std::size_t>(r)] = 0;
                    ++next_fence[static_cast<std::size_t>(r)];
                } else {  // Recv
                    auto it = in_flight.find(pair_key(op.peer, r, op.tag));
                    if (it == in_flight.end() || it->second.empty()) break;  // blocked
                    const Transit msg = it->second.front();
                    it->second.pop_front();
                    if (it->second.empty()) in_flight.erase(it);  // keys rarely repeat
                    st.clock = std::max(st.clock, msg.arrival) + config_.overhead_us / speed;
                    if (!msg.rendezvous) {
                        // Eager second copy: unpack out of the staging buffer.
                        st.clock += static_cast<double>(msg.bytes) * config_.copy_us_per_byte;
                    }
                }
                ++st.pc;
                progress = true;
            }
            if (st.pc == prog.size() && !st.done) {
                st.done = true;
                --remaining;
                progress = true;
            }
        }
    }

    result.finish_us.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        result.finish_us[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].clock;
        result.makespan_us = std::max(result.makespan_us, ranks[static_cast<std::size_t>(r)].clock);
    }
    return result;
}

}  // namespace nncomm::sim

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "coll/collectives.hpp"
#include "datatype/plan.hpp"
#include "petsckit/mg.hpp"
#include "petsckit/scatter.hpp"

namespace perf {

namespace rt = nncomm::rt;
namespace dt = nncomm::dt;
namespace coll = nncomm::coll;
namespace pk = nncomm::pk;

// ---------------------------------------------------------------------------
// Probe helpers

ProbeResult probe(const RankContext& ctx, const char* name, const char* layer,
                  const std::function<void()>& fn, bool rank0_only) {
    const bool active = !rank0_only || ctx.comm.rank() == 0;
    ctx.tracer.new_section();
    PhaseSpec spec;
    spec.seconds = 0.25;
    spec.min_ops = 50;
    spec.max_ops = 20000;
    spec.cap_seconds = 5.0;
    const PhaseResult r = ctx.driver.run(
        ctx.comm.rank(), spec, [](std::uint64_t) {},
        [&](std::uint64_t) {
            if (!active) return;
            ScopedSpan s(ctx.tracer, name, layer);
            fn();
        },
        [](std::uint64_t) { return true; });
    return {r.timing.p50_ms, r.ops};
}

namespace {

/// Median one-way time (us) of a `bytes`-byte contiguous message between
/// rank pairs (0,1), (2,3), ... in ping-pong.
double pingpong_us(const RankContext& ctx, std::size_t bytes) {
    rt::Comm& comm = ctx.comm;
    const int me = comm.rank();
    const int peer = me ^ 1;
    std::vector<std::byte> buf(bytes, std::byte{1});
    const auto type = dt::Datatype::byte();
    constexpr int kTag = 77;
    const ProbeResult r = probe(ctx, "Comm::send+recv", "runtime", [&] {
        if (peer >= comm.size()) return;
        if (me % 2 == 0) {
            comm.send(buf.data(), bytes, type, peer, kTag);
            comm.recv(buf.data(), bytes, type, peer, kTag);
        } else {
            comm.recv(buf.data(), bytes, type, peer, kTag);
            comm.send(buf.data(), bytes, type, peer, kTag);
        }
    });
    return r.p50_ms * 1e3 / 2.0;
}

/// Single-thread PackPlan pack and unpack rates (GB/s) of the given types on
/// rank 0, while the other ranks wait.
std::pair<double, double> pack_rates_GBps(const RankContext& ctx, const dt::Datatype& send_type,
                                          const void* send_base, const dt::Datatype& recv_type,
                                          void* recv_base) {
    // Batch small types so one timed op stays well above clock resolution.
    auto reps_for = [](std::size_t bytes) {
        return std::max<std::size_t>(1, (std::size_t{1} << 18) / std::max<std::size_t>(bytes, 1));
    };
    std::vector<std::byte> packed(std::max(send_type.size(), recv_type.size()));
    const std::size_t send_reps = reps_for(send_type.size());
    const std::size_t recv_reps = reps_for(recv_type.size());
    const dt::PackPlan& splan = send_type.plan();
    const dt::PackPlan& rplan = recv_type.plan();
    const auto* sbase = static_cast<const std::byte*>(send_base);
    auto* rbase = static_cast<std::byte*>(recv_base);
    const ProbeResult p = probe(
        ctx, "PackPlan::pack", "datatype",
        [&] {
            for (std::size_t i = 0; i < send_reps; ++i) {
                splan.pack(send_type.flat(), sbase, 1,
                           std::span<std::byte>(packed.data(), send_type.size()));
            }
        },
        /*rank0_only=*/true);
    // Unpack a valid packed stream of the receive type.
    if (ctx.comm.rank() == 0) {
        rplan.pack(recv_type.flat(), rbase, 1,
                   std::span<std::byte>(packed.data(), recv_type.size()));
    }
    const ProbeResult u = probe(
        ctx, "PackPlan::unpack", "datatype",
        [&] {
            for (std::size_t i = 0; i < recv_reps; ++i) {
                rplan.unpack(recv_type.flat(), rbase, 1,
                             std::span<const std::byte>(packed.data(), recv_type.size()));
            }
        },
        /*rank0_only=*/true);
    auto gbps = [](double bytes, double ms) { return ms > 0 ? bytes / (ms * 1e-3) * 1e-9 : 0.0; };
    return {gbps(static_cast<double>(send_type.size() * send_reps), p.p50_ms),
            gbps(static_cast<double>(recv_type.size() * recv_reps), u.p50_ms)};
}

bool same_bits(const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// mg_solve: the examples/laplacian_mg problem on the shipping configuration.

class MgSolve final : public Workload {
public:
    static constexpr double kRtol = 1e-8;
    static constexpr int kMaxCycles = 40;
    /// Relative amplitude of the seeded part of the right-hand side. Small,
    /// so the V-cycle count (the work per solve) does not depend on the
    /// seed while every value still does.
    static constexpr double kRhsNoise = 1e-3;

    explicit MgSolve(const RankContext& ctx) : ctx_(ctx) {}

    static pk::MGConfig config(pk::ScatterBackend backend) {
        pk::MGConfig cfg;
        cfg.levels = 3;
        cfg.scatter_backend = backend;
        cfg.coll.alltoallw_algo = coll::AlltoallwAlgo::Binned;
        return cfg;
    }

    /// The seeded right-hand side on `mg`'s fine grid.
    pk::Vec rhs(const pk::MGSolver& mg) const {
        const pk::DMDA& da = mg.fine_dmda();
        pk::Vec b = da.create_global();
        const pk::GridBox& o = da.owned();
        double* bd = b.data();
        std::size_t at = 0;
        for (pk::Index k = o.zs; k < o.zs + o.zm; ++k) {
            for (pk::Index j = o.ys; j < o.ys + o.ym; ++j) {
                for (pk::Index i = o.xs; i < o.xs + o.xm; ++i, ++at) {
                    const auto g = static_cast<std::uint64_t>(da.global_index(i, j, k));
                    bd[at] = mg.fine_op().on_boundary(i, j, k)
                                 ? 0.0
                                 : 1.0 + kRhsNoise * (payload_value(ctx_.seed, g) - 1.0);
                }
            }
        }
        return b;
    }

    void build_reference() override {
        ctx_.comm.set_engine(dt::EngineKind::DualContext);
        pk::MGSolver ref(ctx_.comm, 3, pk::GridSize{33, 33, 33},
                         config(pk::ScatterBackend::HandTuned));
        const pk::Vec b = rhs(ref);
        pk::Vec x = b.clone_empty();
        const auto res = ref.solve(b, x, kRtol, kMaxCycles);
        NNCOMM_CHECK_MSG(res.converged, "mg_solve: reference solve did not converge");
        ref_x_.assign(x.data(), x.data() + x.local_size());
        ref_iters_ = res.iterations;
    }

    void construct() override {
        ctx_.comm.set_engine(dt::EngineKind::DualContext);
        mg_ = std::make_unique<pk::MGSolver>(ctx_.comm, 3, pk::GridSize{33, 33, 33},
                                             config(pk::ScatterBackend::DatatypeOptimized));
        b_ = rhs(*mg_);
        x_ = b_.clone_empty();
        r_ = b_.clone_empty();
        ax_ = b_.clone_empty();
    }

    void prepare(bool) override { x_.zero(); }

    const char* op_name() const override { return "MGSolver::solve"; }
    const char* op_layer() const override { return "petsckit"; }

    void op() override {
        if (!ctx_.tracer.enabled) {
            iters_ = mg_->solve(b_, x_, kRtol, kMaxCycles).iterations;
            return;
        }
        // MGSolver::solve, step for step, through its public calls.
        Tracer& t = ctx_.tracer;
        const pk::LaplacianOp& A = mg_->fine_op();
        auto apply = [&] {
            ScopedSpan s(t, "LaplacianOp::apply", "petsckit");
            A.apply(x_, ax_);
        };
        auto norm = [&] {
            ScopedSpan s(t, "Vec::norm2", "petsckit");
            return r_.norm2();
        };
        apply();
        r_.waxpy_diff(b_, ax_);
        const double r0 = norm();
        iters_ = 0;
        if (r0 == 0.0) return;
        for (int it = 1; it <= kMaxCycles; ++it) {
            {
                ScopedSpan s(t, "MGSolver::v_cycle", "petsckit");
                mg_->v_cycle(b_, x_);
            }
            apply();
            r_.waxpy_diff(b_, ax_);
            iters_ = it;
            if (norm() <= kRtol * r0) return;
        }
    }

    bool check(bool) override {
        return iters_ == ref_iters_ &&
               ref_x_.size() == static_cast<std::size_t>(x_.local_size()) &&
               same_bits(x_.data(), ref_x_.data(), ref_x_.size());
    }

    void corrupt() override { x_.data()[0] += 1.0; }

    std::map<std::string, double> traced_metrics() const override {
        return {{"petsckit.vcycles", static_cast<double>(iters_)}};
    }

    std::map<std::string, double> probes() override {
        std::map<std::string, double> m;
        const pk::DMDA& da = mg_->fine_dmda();
        const pk::LaplacianOp& A = mg_->fine_op();
        const coll::CollConfig cc = mg_->config().coll;
        std::vector<double> local = da.create_local();

        m["petsckit.apply_ms"] =
            probe(ctx_, "LaplacianOp::apply", "petsckit", [&] { A.apply(x_, ax_); }).p50_ms;

        // The ghost exchange also gives the runtime's copies per payload
        // byte, on a call whose payload is known exactly.
        double ghost_bytes = 0.0;
        for (const auto& nb : da.neighbors()) ghost_bytes += static_cast<double>(nb.send_bytes);
        const CounterSnap before = CounterSnap::of(ctx_.comm);
        const ProbeResult g = probe(ctx_, "DMDA::global_to_local", "petsckit",
                                    [&] { da.global_to_local(x_, local, cc); });
        const CounterDelta d = CounterDelta::between(before, CounterSnap::of(ctx_.comm));
        m["petsckit.ghost_exchange_ms"] = g.p50_ms;
        m["petsckit.stencil_ms"] = m["petsckit.apply_ms"] - g.p50_ms;
        m["runtime.copied_per_payload_byte"] =
            ghost_bytes > 0 ? d.bytes_copied / (ghost_bytes * static_cast<double>(g.ops)) : 0.0;

        // The ghost exchange's alltoallw on its own: per-neighbor subarray
        // slabs of the owned storage into the ghosted storage, no self copy.
        const int n = ctx_.comm.size();
        const auto nn = static_cast<std::size_t>(n);
        std::vector<std::size_t> sc(nn, 0), rc(nn, 0);
        std::vector<std::ptrdiff_t> sd(nn, 0), rd(nn, 0);
        std::vector<dt::Datatype> st(nn, dt::Datatype::byte()), rtypes(nn, dt::Datatype::byte());
        const pk::GridBox& own = da.owned();
        const pk::GridBox& gh = da.ghosted();
        auto slab = [](const pk::GridBox& storage, const pk::GridBox& box) {
            const std::array<std::size_t, 3> sizes{static_cast<std::size_t>(storage.zm),
                                                   static_cast<std::size_t>(storage.ym),
                                                   static_cast<std::size_t>(storage.xm)};
            const std::array<std::size_t, 3> sub{static_cast<std::size_t>(box.zm),
                                                 static_cast<std::size_t>(box.ym),
                                                 static_cast<std::size_t>(box.xm)};
            const std::array<std::size_t, 3> starts{
                static_cast<std::size_t>(box.zs - storage.zs),
                static_cast<std::size_t>(box.ys - storage.ys),
                static_cast<std::size_t>(box.xs - storage.xs)};
            return dt::Datatype::subarray(sizes, sub, starts, dt::Datatype::float64());
        };
        const pk::DMDA::Neighbor* largest = nullptr;
        for (const auto& nb : da.neighbors()) {
            const auto p = static_cast<std::size_t>(nb.rank);
            sc[p] = rc[p] = 1;
            st[p] = slab(own, nb.send_box);
            rtypes[p] = slab(gh, nb.recv_box);
            if (!largest || nb.send_bytes > largest->send_bytes) largest = &nb;
        }
        m["coll.alltoallw_us"] =
            probe(ctx_, "coll::alltoallw", "coll", [&] {
                coll::alltoallw(ctx_.comm, x_.data(), sc, sd, st, local.data(), rc, rd, rtypes,
                                cc);
            }).p50_ms * 1e3;

        std::uint64_t msg = largest ? largest->send_bytes : 0;
        msg = coll::allreduce_one(ctx_.comm, msg, coll::ReduceOp::Max);
        m["runtime.pingpong_us"] = pingpong_us(ctx_, static_cast<std::size_t>(msg));

        // Pack rates of rank 0's largest face slab.
        const dt::Datatype send_t = largest ? slab(own, largest->send_box) : dt::Datatype::float64();
        const dt::Datatype recv_t = largest ? slab(gh, largest->recv_box) : dt::Datatype::float64();
        const auto [pack, unpack] = pack_rates_GBps(ctx_, send_t, x_.data(), recv_t, local.data());
        m["datatype.pack_GBps"] = pack;
        m["datatype.unpack_GBps"] = unpack;
        return m;
    }

private:
    RankContext ctx_;
    std::unique_ptr<pk::MGSolver> mg_;
    pk::Vec b_, x_, r_, ax_;
    std::vector<double> ref_x_;
    int ref_iters_ = -1;
    int iters_ = 0;
};

// ---------------------------------------------------------------------------
// scatter_steady: the Fig. 16 shape through a persistent VecScatter.

class ScatterSteady final : public Workload {
public:
    static constexpr pk::Index kElems = 65536;  ///< stride-2 doubles sent per rank

    explicit ScatterSteady(const RankContext& ctx) : ctx_(ctx) {}

    void construct() override {
        rt::Comm& comm = ctx_.comm;
        comm.set_engine(dt::EngineKind::DualContext);
        const pk::Index p = comm.size();
        src_ = pk::Vec(comm, 2 * kElems * p);
        dst_ = pk::Vec(comm, kElems * p);
        double* s = src_.data();
        for (pk::Index i = 0; i < src_.local_size(); ++i) {
            s[i] = payload_value(ctx_.seed, static_cast<std::uint64_t>(src_.range().begin + i));
        }
        // Rank r's even-offset elements go to rank r+1's portion of dst.
        std::vector<pk::Index> to;
        to.reserve(static_cast<std::size_t>(kElems * p));
        for (pk::Index r = 0; r < p; ++r) {
            for (pk::Index j = 0; j < kElems; ++j) to.push_back(((r + 1) % p) * kElems + j);
        }
        scatter_ = std::make_unique<pk::VecScatter>(
            src_, pk::IndexSet::stride(0, 2, kElems * p), dst_, pk::IndexSet::general(to));
    }

    void build_reference() override {
        const int p = ctx_.comm.size();
        const pk::Index prev = (ctx_.comm.rank() + p - 1) % p;
        expected_.resize(static_cast<std::size_t>(kElems));
        for (pk::Index j = 0; j < kElems; ++j) {
            expected_[static_cast<std::size_t>(j)] =
                payload_value(ctx_.seed, static_cast<std::uint64_t>(prev * 2 * kElems + 2 * j));
        }
    }

    void prepare(bool checked) override {
        if (checked) dst_.zero();
    }

    const char* op_name() const override { return "VecScatter::execute"; }
    const char* op_layer() const override { return "petsckit"; }
    void op() override { scatter_->execute(src_, dst_, pk::ScatterBackend::DatatypeOptimized); }

    bool check(bool checked) override {
        return !checked ||
               (static_cast<std::size_t>(dst_.local_size()) == expected_.size() &&
                same_bits(dst_.data(), expected_.data(), expected_.size()));
    }

    void corrupt() override { dst_.data()[kElems / 2] = 0.0; }
    std::uint64_t check_every() const override { return 64; }
    double payload_bytes_per_op() const override { return kElems * 8.0; }

    std::map<std::string, double> probes() override {
        std::map<std::string, double> m;
        rt::Comm& comm = ctx_.comm;
        m["petsckit.scatter_execute_ms"] =
            probe(ctx_, "VecScatter::execute", "petsckit", [&] { op(); }).p50_ms;

        // The same data motion as one-shot alltoallw calls (no persistent plan).
        const int n = comm.size();
        const auto nn = static_cast<std::size_t>(n);
        const auto succ = static_cast<std::size_t>((comm.rank() + 1) % n);
        const auto pred = static_cast<std::size_t>((comm.rank() + n - 1) % n);
        const auto send_t = dt::Datatype::vector(kElems, 1, 2, dt::Datatype::float64());
        const auto recv_t = dt::Datatype::contiguous(kElems, dt::Datatype::float64());
        std::vector<std::size_t> sc(nn, 0), rc(nn, 0);
        std::vector<std::ptrdiff_t> sd(nn, 0), rd(nn, 0);
        std::vector<dt::Datatype> st(nn, send_t), rtypes(nn, recv_t);
        sc[succ] = 1;
        rc[pred] = 1;
        coll::CollConfig cc;
        cc.alltoallw_algo = coll::AlltoallwAlgo::Binned;
        m["coll.alltoallw_us"] = probe(ctx_, "coll::alltoallw", "coll", [&] {
                                     coll::alltoallw(comm, src_.data(), sc, sd, st, dst_.data(),
                                                     rc, rd, rtypes, cc);
                                 }).p50_ms * 1e3;
        m["runtime.pingpong_us"] = pingpong_us(ctx_, static_cast<std::size_t>(kElems * 8));
        const auto [pack, unpack] =
            pack_rates_GBps(ctx_, send_t, src_.data(), recv_t, dst_.data());
        m["datatype.pack_GBps"] = pack;
        m["datatype.unpack_GBps"] = unpack;
        return m;
    }

private:
    RankContext ctx_;
    pk::Vec src_, dst_;
    std::unique_ptr<pk::VecScatter> scatter_;
    std::vector<double> expected_;
};

// ---------------------------------------------------------------------------
// alltoallw_ring: the Fig. 15 shape through one-shot coll::alltoallw calls.

class AlltoallwRing final : public Workload {
public:
    static constexpr std::size_t kBlock = 100;  ///< 10 x 10 doubles per peer
    /// Calls cycle through this many precomputed payloads, so a call's
    /// inputs and check cost a pointer and a compare, not payload hashing.
    static constexpr std::uint64_t kSlots = 16;

    explicit AlltoallwRing(const RankContext& ctx) : ctx_(ctx) {}

    /// Value k of the block `from` sends to `to` in calls of slot `slot`.
    double value(int from, int to, std::uint64_t slot, std::size_t k) const {
        return payload_value(ctx_.seed,
                             (static_cast<std::uint64_t>(from) << 32) |
                                 static_cast<std::uint64_t>(to),
                             slot, k);
    }

    void build_reference() override {
        const int n = ctx_.comm.size();
        const int me = ctx_.comm.rank();
        const int succ = (me + 1) % n;
        const int pred = (me + n - 1) % n;
        // Per slot, block 0 pairs with the successor and block 1 with the
        // predecessor, in what this rank sends and in what it receives.
        payload_.resize(kSlots * 2 * kBlock);
        expected_.resize(kSlots * 2 * kBlock);
        for (std::uint64_t s = 0; s < kSlots; ++s) {
            double* out = payload_.data() + s * 2 * kBlock;
            double* in = expected_.data() + s * 2 * kBlock;
            for (std::size_t k = 0; k < kBlock; ++k) {
                out[k] = value(me, succ, s, k);
                out[kBlock + k] = value(me, pred, s, k);
                in[k] = value(succ, me, s, k);
                in[kBlock + k] = value(pred, me, s, k);
            }
        }
    }

    void construct() override {
        rt::Comm& comm = ctx_.comm;
        comm.set_engine(dt::EngineKind::DualContext);
        const int n = comm.size();
        const auto nn = static_cast<std::size_t>(n);
        const auto succ = static_cast<std::size_t>((comm.rank() + 1) % n);
        const auto pred = static_cast<std::size_t>((comm.rank() + n - 1) % n);
        send_.assign(2 * kBlock, 0.0);
        recv_.assign(2 * kBlock, 0.0);
        const auto block = dt::Datatype::contiguous(kBlock, dt::Datatype::float64());
        sc_.assign(nn, 0);
        rc_.assign(nn, 0);
        sd_.assign(nn, 0);
        rd_.assign(nn, 0);
        st_.assign(nn, block);
        rt_.assign(nn, block);
        const auto blk = static_cast<std::ptrdiff_t>(kBlock * sizeof(double));
        sc_[succ] = 1;
        sc_[pred] = 1;
        sd_[pred] = blk;
        rc_[succ] = 1;
        rc_[pred] = 1;
        rd_[pred] = blk;
        config_.alltoallw_algo = coll::AlltoallwAlgo::Binned;
    }

    void prepare(bool checked) override {
        slot_ = next_call_++ % kSlots;
        // Set-up Worlds build no reference and send zeros, unchecked.
        sendbuf_ = payload_.empty() ? send_.data() : payload_.data() + slot_ * 2 * kBlock;
        if (checked) std::fill(recv_.begin(), recv_.end(), 0.0);
    }

    const char* op_name() const override { return "coll::alltoallw"; }
    const char* op_layer() const override { return "coll"; }
    void op() override {
        coll::alltoallw(ctx_.comm, sendbuf_, sc_, sd_, st_, recv_.data(), rc_, rd_, rt_, config_);
    }

    bool check(bool checked) override {
        return !checked || same_bits(recv_.data(), expected_.data() + slot_ * 2 * kBlock,
                                     2 * kBlock);
    }

    void corrupt() override { recv_[kBlock + 3] += 1.0; }
    double payload_bytes_per_op() const override { return 2.0 * kBlock * sizeof(double); }

    std::map<std::string, double> probes() override {
        std::map<std::string, double> m;
        m["coll.alltoallw_us"] = probe(ctx_, "coll::alltoallw", "coll", [&] { op(); }).p50_ms * 1e3;
        m["runtime.pingpong_us"] = pingpong_us(ctx_, kBlock * sizeof(double));
        const auto block = dt::Datatype::contiguous(kBlock, dt::Datatype::float64());
        const auto [pack, unpack] = pack_rates_GBps(ctx_, block, send_.data(), block, recv_.data());
        m["datatype.pack_GBps"] = pack;
        m["datatype.unpack_GBps"] = unpack;
        return m;
    }

private:
    RankContext ctx_;
    std::vector<double> send_, recv_, payload_, expected_;
    const double* sendbuf_ = nullptr;
    std::vector<std::size_t> sc_, rc_;
    std::vector<std::ptrdiff_t> sd_, rd_;
    std::vector<dt::Datatype> st_, rt_;
    coll::CollConfig config_{};
    std::uint64_t next_call_ = 0, slot_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const RankContext& ctx) {
    if (name == "mg_solve") return std::make_unique<MgSolve>(ctx);
    if (name == "scatter_steady") return std::make_unique<ScatterSteady>(ctx);
    if (name == "alltoallw_ring") return std::make_unique<AlltoallwRing>(ctx);
    return nullptr;
}

bool known_workload(const std::string& name) {
    return name == "mg_solve" || name == "scatter_steady" || name == "alltoallw_ring";
}

int setup_reps(const std::string& name) {
    // Enough that the median set-up spans ~0.2 s or more of host time.
    if (name == "mg_solve") return 5;
    return name == "scatter_steady" ? 9 : 201;
}

}  // namespace perf

#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perf {

double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::int64_t calibration_loop_ns() {
    std::uint64_t x = static_cast<std::uint64_t>(now_ns());
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalibrationSteps; ++i) x = mix64(x);
    const std::int64_t t = now_ns() - t0;
    volatile std::uint64_t sink = x;
    (void)sink;
    return t;
}

// ---------------------------------------------------------------------------
// Histogram

namespace {
constexpr double kHistMin = 10.0;  // ns
const double kLogRatio = std::log(1.005);
constexpr std::size_t kHistBins = 5080;  // up to ~1000 s
}  // namespace

Histogram::Histogram() : bins_(kHistBins, 0) {}

void Histogram::add(double ns) {
    const double x = std::log(std::max(ns, kHistMin) / kHistMin) / kLogRatio;
    const auto b = std::min(static_cast<std::size_t>(x), kHistBins - 1);
    ++bins_[b];
    ++n_;
}

void Histogram::merge(const Histogram& o) {
    for (std::size_t b = 0; b < kHistBins; ++b) bins_[b] += o.bins_[b];
    n_ += o.n_;
}

void Histogram::merge_scaled(const Histogram& o, double factor) {
    const auto shift = static_cast<std::ptrdiff_t>(std::lround(std::log(factor) / kLogRatio));
    const auto last = static_cast<std::ptrdiff_t>(kHistBins) - 1;
    for (std::size_t b = 0; b < kHistBins; ++b) {
        if (o.bins_[b] == 0) continue;
        const std::ptrdiff_t to = std::clamp(static_cast<std::ptrdiff_t>(b) + shift,
                                             std::ptrdiff_t{0}, last);
        bins_[static_cast<std::size_t>(to)] += o.bins_[b];
    }
    n_ += o.n_;
}

void Histogram::clear() {
    std::fill(bins_.begin(), bins_.end(), 0);
    n_ = 0;
}

double Histogram::quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    double below = 0.0;
    for (std::size_t b = 0; b < kHistBins; ++b) {
        const auto c = static_cast<double>(bins_[b]);
        if (c > 0 && below + c > rank) {
            // Spread the bin's samples evenly across it in log space.
            const double f = (rank - below + 0.5) / c;
            return kHistMin * std::exp((static_cast<double>(b) + f) * kLogRatio);
        }
        below += c;
    }
    return kHistMin * std::exp(static_cast<double>(kHistBins) * kLogRatio);
}

StealSample StealSample::now() {
    StealSample s;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f) return s;
    unsigned long long v[8] = {};
    // cpu user nice system idle iowait irq softirq steal ...
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        s.steal = v[7];
        for (unsigned long long x : v) s.total += x;
    }
    std::fclose(f);
    return s;
}

double StealSample::share_since(const StealSample& before) const {
    if (total <= before.total) return 0.0;
    return static_cast<double>(steal - before.steal) / static_cast<double>(total - before.total);
}

// ---------------------------------------------------------------------------
// Tracer

void Tracer::begin(const char* name, const char* layer) {
    Open o;
    o.span.name = name;
    o.span.layer = layer;
    o.span.start_ns = now_ns();
    o.span.op = op_id;
    o.span.parent = stack_.empty() ? -1 : stack_.back().stored;
    if (section_stored_ < kSpansPerSection) {
        ++section_stored_;
        o.stored = static_cast<int>(spans_.size());
        spans_.push_back(o.span);
    }
    stack_.push_back(o);
}

void Tracer::end() {
    const std::int64_t end_ns = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end_ns - o.span.start_ns;
    self_ns_[o.span.layer] += static_cast<double>(dur - o.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.stored >= 0) {
        spans_[static_cast<std::size_t>(o.stored)].end_ns = end_ns;
    } else {
        ++dropped_;
    }
}

bool write_chrome_trace(const std::string& path, const std::vector<Tracer>& tracers,
                        std::int64_t origin_ns) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
        if (!first) std::fprintf(f, ",\n");
        first = false;
    };
    for (std::size_t r = 0; r < tracers.size(); ++r) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%zu,"
                     "\"args\":{\"name\":\"rank %zu\"}}",
                     r, r);
        for (const Span& s : tracers[r].spans()) {
            sep();
            std::fprintf(f,
                         "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%zu,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,\"parent\":%d}}",
                         s.name, s.layer, r, static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                         static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                         static_cast<long long>(s.op), s.parent);
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Counters

CounterDelta CounterDelta::between(const CounterSnap& before, const CounterSnap& after) {
    const auto& a = before.c;
    const auto& b = after.c;
    auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
    CounterDelta o;
    o.bytes_packed = d(a.bytes_packed, b.bytes_packed);
    o.simd_pack_bytes = d(a.dt_simd_pack_bytes, b.dt_simd_pack_bytes);
    o.search_blocks = d(a.search_blocks_visited, b.search_blocks_visited);
    o.plan_compiles = d(a.plan_compiles, b.plan_compiles);
    o.engine_builds = d(a.engine_builds, b.engine_builds);
    o.scratch_allocs = d(a.scratch_allocs, b.scratch_allocs);
    o.bytes_copied = d(a.rt_bytes_copied, b.rt_bytes_copied);
    o.zero_copy = d(a.rt_zero_copy_msgs, b.rt_zero_copy_msgs);
    o.pool_hits = d(a.rt_pool_hits, b.rt_pool_hits);
    o.pool_misses = d(a.rt_pool_misses, b.rt_pool_misses);
    o.payload_allocs = d(a.rt_payload_allocs, b.rt_payload_allocs);
    o.lane_fast = d(a.rt_lane_fast_deliveries, b.rt_lane_fast_deliveries);
    o.lane_overflow = d(a.rt_lane_overflow_deliveries, b.rt_lane_overflow_deliveries);
    o.locks = d(a.rt_lock_acquisitions, b.rt_lock_acquisitions);
    o.cv_waits = d(a.rt_cv_waits, b.rt_cv_waits);
    o.cv_notifies = d(a.rt_cv_notifies, b.rt_cv_notifies);
    o.eager_chosen = d(a.rt_proto_eager_chosen, b.rt_proto_eager_chosen);
    o.rdzv_chosen = d(a.rt_proto_rdzv_chosen, b.rt_proto_rdzv_chosen);
    o.rma_puts = d(a.rt_rma_puts, b.rt_rma_puts);
    o.rma_fences = d(a.rt_rma_fences, b.rt_rma_fences);
    o.schedules_built = d(a.coll_schedules_built, b.coll_schedules_built);
    o.schedule_cache_hits = d(a.coll_schedule_cache_hits, b.coll_schedule_cache_hits);
    o.rounds = d(a.coll_rounds_executed, b.coll_rounds_executed);
    using nncomm::Phase;
    o.comm_ns = d(before.t.ns(Phase::Comm), after.t.ns(Phase::Comm));
    o.pack_ns = d(before.t.ns(Phase::Pack), after.t.ns(Phase::Pack));
    o.search_ns = d(before.t.ns(Phase::Search), after.t.ns(Phase::Search));
    o.pool_resident_bytes = static_cast<double>(b.rt_pool_resident_bytes);
    return o;
}

CounterDelta CounterDelta::mean(const std::vector<CounterDelta>& per_rank) {
    CounterDelta m;
    if (per_rank.empty()) return m;
    double* out = &m.bytes_packed;
    constexpr std::size_t kFields = sizeof(CounterDelta) / sizeof(double);
    static_assert(sizeof(CounterDelta) == kFields * sizeof(double));
    for (const CounterDelta& r : per_rank) {
        const double* in = &r.bytes_packed;
        for (std::size_t f = 0; f + 1 < kFields; ++f) out[f] += in[f];
        m.pool_resident_bytes = std::max(m.pool_resident_bytes, r.pool_resident_bytes);
    }
    for (std::size_t f = 0; f + 1 < kFields; ++f) {
        out[f] /= static_cast<double>(per_rank.size());
    }
    return m;
}

// ---------------------------------------------------------------------------
// BlockPool

BlockPool::BlockPool() : blocks_(kCapacity) {}

void BlockPool::clear() {
    for (std::size_t b = 0; b < used_; ++b) blocks_[b].times.clear();
    used_ = 0;
}

void BlockPool::add(const Histogram& times, std::int64_t ns, double steal,
                    double calibration_ns) {
    if (full()) return;
    Block& b = blocks_[used_++];
    b.times.merge(times);
    b.ns = ns;
    b.steal = steal;
    b.calibration_ns = calibration_ns;
}

BlockStats BlockPool::stats(double seconds, std::uint64_t min_ops) const {
    BlockStats r;
    Histogram raw, scaled;
    double raw_ns = 0.0, scaled_ns = 0.0;
    std::vector<double> calibration;
    auto enough = [&] { return raw_ns * 1e-9 >= seconds && raw.count() >= min_ops; };
    // Clean blocks first, in the order they ran; then disturbed ones, only
    // if the clean blocks fall short.
    for (const bool disturbed : {false, true}) {
        for (std::size_t i = 0; i < used_ && !enough(); ++i) {
            const Block& b = blocks_[i];
            if ((b.steal > kStealLimit) != disturbed) continue;
            const double factor = kReferenceCalibrationNs / b.calibration_ns;
            raw.merge(b.times);
            scaled.merge_scaled(b.times, factor);
            raw_ns += static_cast<double>(b.ns);
            scaled_ns += static_cast<double>(b.ns) * factor;
            calibration.push_back(b.calibration_ns);
            r.contended |= disturbed;
        }
    }
    r.blocks = static_cast<int>(used_);
    for (std::size_t i = 0; i < used_; ++i) r.disturbed_blocks += blocks_[i].steal > kStealLimit;
    r.ops = raw.count();
    r.p50_ms = scaled.quantile(0.5) * 1e-6;
    r.p90_ms = scaled.quantile(0.9) * 1e-6;
    r.raw_p50_ms = raw.quantile(0.5) * 1e-6;
    r.raw_p90_ms = raw.quantile(0.9) * 1e-6;
    r.samples_beyond_p90 =
        r.ops - static_cast<std::uint64_t>(std::ceil(0.9 * static_cast<double>(r.ops)));
    const auto ops = static_cast<double>(r.ops);
    r.ops_per_s = scaled_ns > 0 ? ops / (scaled_ns * 1e-9) : 0.0;
    r.raw_ops_per_s = raw_ns > 0 ? ops / (raw_ns * 1e-9) : 0.0;
    r.calibration_ms = median_of(calibration) * 1e-6;
    return r;
}

// ---------------------------------------------------------------------------
// PhaseDriver

PhaseDriver::PhaseDriver(int nranks)
    : nranks_(nranks), bar_(nranks, aborted_), slots_(static_cast<std::size_t>(nranks)) {}

void PhaseDriver::start_phase(const PhaseSpec& spec) {
    spec_ = spec;
    own_pool_.clear();
    pool_ = spec.pool ? spec.pool : &own_pool_;
    block_.clear();
    block_ops_ = 0;
    ops_ = clean_ops_ = 0;
    clean_ns_ = 0;
    go_ = true;
    for (Slot& s : slots_) {
        s.wait_ns = 0;
        s.failed.clear();
    }
    calibrate_ = spec.block_seconds > 0;
    block_calibration_ns_ = kReferenceCalibrationNs;
    block_steal_ = StealSample::now();
    phase_start_ = last_end_ = block_start_ = now_ns();
}

void PhaseDriver::calibrate_and_open_block(Slot& me) {
    bar_.arrive_and_wait();  // every CPU busy with the loop at once
    me.calibration_ns = calibration_loop_ns();
    bar_.arrive_and_wait([&] { open_block(); });
}

void PhaseDriver::open_block() {
    std::vector<double> c;
    for (const Slot& s : slots_) c.push_back(static_cast<double>(s.calibration_ns));
    block_calibration_ns_ = median_of(c);
    calibrate_ = false;
    // The block's time starts after the calibration.
    block_steal_ = StealSample::now();
    block_start_ = now_ns();
}

void PhaseDriver::close_block(std::int64_t end_ns) {
    const StealSample s = StealSample::now();
    const std::int64_t ns = end_ns - block_start_;
    const double steal = s.share_since(block_steal_);
    pool_->add(block_, ns, steal, block_calibration_ns_);
    if (steal <= kStealLimit) {
        clean_ns_ += ns;
        clean_ops_ += block_ops_;
    }
    block_.clear();
    block_ops_ = 0;
    block_start_ = end_ns;
    block_steal_ = s;
    calibrate_ = spec_.block_seconds > 0;
}

void PhaseDriver::record_op() {
    std::int64_t t0 = slots_[0].t0, t1 = slots_[0].t1;
    for (const Slot& s : slots_) {
        t0 = std::min(t0, s.t0);
        t1 = std::max(t1, s.t1);
    }
    block_.add(static_cast<double>(t1 - t0));
    ++block_ops_;
    ++ops_;
    last_end_ = t1;
    const double elapsed = static_cast<double>(t1 - phase_start_) * 1e-9;
    bool enough = elapsed >= spec_.seconds && ops_ >= spec_.min_ops;
    if (spec_.block_seconds > 0) {
        if (static_cast<double>(t1 - block_start_) * 1e-9 >= spec_.block_seconds) {
            close_block(t1);
        }
        enough = static_cast<double>(clean_ns_) * 1e-9 >= spec_.seconds &&
                 clean_ops_ >= spec_.min_ops;
    }
    go_ = !(enough || pool_->full() || ops_ >= spec_.max_ops || elapsed >= spec_.cap_seconds);
}

PhaseResult PhaseDriver::finish_phase() {
    if (block_ops_ > 0) close_block(last_end_);
    PhaseResult r;
    r.ops = ops_;
    std::vector<std::uint64_t> failed;
    double wait_ns = 0.0;
    for (const Slot& s : slots_) {
        failed.insert(failed.end(), s.failed.begin(), s.failed.end());
        wait_ns += static_cast<double>(s.wait_ns);
    }
    std::sort(failed.begin(), failed.end());
    r.failed_ops = static_cast<std::uint64_t>(
        std::unique(failed.begin(), failed.end()) - failed.begin());
    r.timing = pool_->stats(spec_.seconds, spec_.min_ops);
    r.wait_ms_per_op =
        ops_ ? wait_ns / static_cast<double>(nranks_) / static_cast<double>(ops_) * 1e-6 : 0.0;
    return r;
}

}  // namespace perf

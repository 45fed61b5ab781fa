// nncomm_perf: one benchmark run of one workload on the real runtime.
//
//   nncomm_perf --workload <mg_solve|scatter_steady|alltoallw_ring>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--corrupt] [--out-dir <dir>]
//
// All load comes from one rt::World of 4 rank threads in the shipping
// configuration (DatatypeOptimized backend, Binned alltoallw, dual-context
// engine, Protocol::Auto). A run:
//   1. times set-up (construction + the first, plan-compiling op) in
//      several fresh Worlds with cold plan caches and keeps the median;
//   2. in each of ten measuring Worlds (one with --trace 1), builds the
//      check reference, then the workload, warms up, and runs its share of
//      the timed closed loop: every op's output is checked (scatter_steady:
//      every 64th, with dst cleared before it, so the clearing perturbs
//      few ops);
//   Times are reported at a reference host speed: each 1-second block of
//   the timed loop, and each set-up, is rescaled by a calibration loop all
//   ranks run just before it (harness.hpp).
//   3. with --trace 1, splits the time into an untraced and a traced half,
//      then runs the per-layer probes, and writes the spans as a Chrome
//      trace plus a table of layer self time to --out-dir.
// The last stdout line is `RESULT {json}`; the exit code is 1 when any
// output check failed or any rank threw. --corrupt damages one checked
// result (the benchmark's self-test of its checks).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coll/collectives.hpp"
#include "datatype/plan.hpp"
#include "datatype/simd.hpp"
#include "harness.hpp"
#include "runtime/protocol.hpp"
#include "workloads.hpp"

#ifndef NNCOMM_PERF_BUILD_TYPE
#define NNCOMM_PERF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perf;
namespace rt = nncomm::rt;

constexpr int kRanks = 4;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corrupt = false;
    std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "nncomm_perf: %s\nusage: nncomm_perf --workload <mg_solve|scatter_steady|"
                 "alltoallw_ring> --seed <n> --seconds <s> --trace <0|1> [--corrupt] "
                 "[--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--corrupt") {
            o.corrupt = true;
        } else if (a == "--out-dir") {
            o.out_dir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!known_workload(o.workload)) usage("unknown or missing --workload");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
    return o;
}

/// Median of 25 single-thread calibration loops (ms), timed before and
/// after a run, so a slowed or contended host shows as a larger or drifting
/// time.
double calibration_ms() {
    std::vector<double> t;
    for (int rep = 0; rep < 25; ++rep) {
        t.push_back(static_cast<double>(calibration_loop_ns()) * 1e-6);
    }
    return median_of(t);
}

/// Median time (us) for a thread blocked on a condition variable to wake up
/// and answer, over 200 ping-pongs between two threads pinned to different
/// CPUs that always sleep. On a VM this is mostly the time the host takes to
/// run an idle vCPU again, which the calibration loop does not see. 0 when
/// the threads cannot be pinned.
double wakeup_us() {
    if (std::thread::hardware_concurrency() < 2) return 0.0;
    std::mutex m;
    std::condition_variable cv;
    int turn = 0;  // even: the pinger's turn, odd: the ponger's
    constexpr int kRounds = 200;
    std::vector<double> t;
    std::atomic<bool> pinned{true};
    auto pin = [&](int cpu) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) pinned.store(false);
    };
    // Fresh threads, so no affinity leaks into the rank threads.
    std::thread pong([&] {
        pin(1);
        std::unique_lock lk(m);
        for (int i = 0; i < kRounds; ++i) {
            cv.wait(lk, [&] { return turn % 2 == 1; });
            ++turn;
            cv.notify_all();
        }
    });
    std::thread ping([&] {
        pin(0);
        std::unique_lock lk(m);
        for (int i = 0; i < kRounds; ++i) {
            const std::int64_t t0 = now_ns();
            ++turn;
            cv.notify_all();
            cv.wait(lk, [&] { return turn % 2 == 0; });
            t.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / 2.0);
        }
    });
    ping.join();
    pong.join();
    return pinned.load() ? median_of(t) : 0.0;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// The timed phase of a `--trace 0` run is spread over this many fresh
/// Worlds, so one World's memory and thread placement does not decide the
/// run's timings.
constexpr int kMeasuredWorlds = 10;

/// Everything one run measures; filled by the rank threads of the measuring
/// Worlds.
struct RunData {
    std::vector<double> setup_s, raw_setup_s, construct_ms, first_op_ms;
    std::uint64_t attempted = 0, failed = 0;
    BlockPool timed;  ///< `--trace 0`: blocks of every measuring World
    PhaseResult untraced{}, traced{};
    std::vector<CounterDelta> traced_delta = std::vector<CounterDelta>(kRanks);
    std::vector<std::map<std::string, double>> probes =
        std::vector<std::map<std::string, double>>(kRanks);
    std::map<std::string, double> workload_metrics;
    double payload_bytes_per_op = 0.0;
    std::vector<Tracer> tracers;
    std::int64_t origin_ns = 0;
    const char* op_layer = "";
};

/// One World. Set-up World (`k` < 0): times set-up only. Measuring World
/// `k` of `measured`: builds the check reference first, then the workload,
/// and runs a share of the timed phase; with `--trace 1` the single
/// measuring World also runs the traced half and the probes.
void run_world(const Options& opt, int k, int measured, RunData& data) {
    nncomm::dt::PlanCache::instance().reset();
    rt::ProtoTuneCache::instance().reset();
    rt::World world(kRanks);
    PhaseDriver driver(kRanks);
    std::vector<Tracer> tracers(kRanks);
    std::vector<std::int64_t> start(kRanks), built(kRanks), first_done(kRanks);
    std::vector<double> calibration(kRanks);
    std::vector<char> first_ok(kRanks, 1);

    world.run([&](rt::Comm& comm) {
        const int r = comm.rank();
        const auto ur = static_cast<std::size_t>(r);
        const RankContext ctx{comm, driver, tracers[ur], opt.seed};
        std::unique_ptr<Workload> w = make_workload(opt.workload, ctx);
        if (k >= 0) w->build_reference();

        driver.barrier();
        calibration[ur] = static_cast<double>(calibration_loop_ns());
        driver.barrier();
        start[ur] = now_ns();
        w->construct();
        built[ur] = now_ns();
        w->prepare(true);
        w->op();
        first_done[ur] = now_ns();
        driver.barrier();
        if (r == 0 && k < 0) {
            const std::int64_t s = *std::min_element(start.begin(), start.end());
            const std::int64_t b = *std::max_element(built.begin(), built.end());
            const std::int64_t f = *std::max_element(first_done.begin(), first_done.end());
            const double scale = kReferenceCalibrationNs / median_of(calibration);
            data.raw_setup_s.push_back(static_cast<double>(f - s) * 1e-9);
            data.setup_s.push_back(static_cast<double>(f - s) * 1e-9 * scale);
            data.construct_ms.push_back(static_cast<double>(b - s) * 1e-6);
            data.first_op_ms.push_back(static_cast<double>(f - b) * 1e-6);
        }
        if (k < 0) return;

        w->build_reference();
        first_ok[ur] = w->check(true) ? 1 : 0;

        const std::uint64_t every = w->check_every();
        auto prepare = [&](std::uint64_t i) { w->prepare(i % every == 0); };
        auto check = [&](std::uint64_t i) { return w->check(i % every == 0); };
        auto check_corrupt = [&](std::uint64_t i) {
            if (opt.corrupt && k == 0 && r == 0 && i == 0) w->corrupt();
            return w->check(i % every == 0);
        };
        auto op = [&](std::uint64_t) { w->op(); };
        std::uint64_t attempted = 0, failed = 0;
        auto tally = [&](const PhaseResult& p) {
            attempted += p.ops;
            failed += p.failed_ops;
            return p;
        };

        PhaseSpec warm;
        warm.seconds = 0.3;
        warm.min_ops = 3;
        tally(driver.run(r, warm, prepare, op, check));

        // Each measuring World runs its share of the timed phase; a traced
        // run's single World splits it into an untraced and a traced half.
        const double share = opt.trace ? 0.5 : 1.0 / measured;
        PhaseSpec timed;
        timed.seconds = opt.seconds * share;
        timed.min_ops = opt.trace ? 20 : (100 + measured - 1) / measured;
        timed.block_seconds = 1.0;
        // Room to skip disturbed blocks while a run stays well under a minute.
        timed.cap_seconds = (1.5 * opt.seconds + 2) * share;
        timed.pool = opt.trace ? nullptr : &data.timed;
        const PhaseResult measured_phase =
            tally(driver.run(r, timed, prepare, op, check_corrupt));

        PhaseResult traced{};
        if (opt.trace) {
            Tracer& t = tracers[ur];
            t.enabled = true;
            t.new_section();
            auto traced_op = [&](std::uint64_t i) {
                t.op_id = static_cast<std::int64_t>(i);
                t.begin(w->op_name(), w->op_layer());
                w->op();
                t.end();
                t.op_id = -1;
            };
            const CounterSnap before = CounterSnap::of(comm);
            traced = tally(driver.run(r, timed, prepare, traced_op, check));
            data.traced_delta[ur] = CounterDelta::between(before, CounterSnap::of(comm));
            if (r == 0) data.workload_metrics = w->traced_metrics();

            std::map<std::string, double> probes = w->probes();
            double sink = 0.0;
            probes["coll.allreduce_us"] =
                probe(ctx, "coll::allreduce_one", "coll", [&] {
                    sink += nncomm::coll::allreduce_one(comm, 1.0, nncomm::coll::ReduceOp::Sum);
                }).p50_ms * 1e3;
            t.enabled = false;
            data.probes[ur] = probes;
        }
        driver.barrier();
        if (r == 0) {
            data.attempted += attempted + 1;  // + the set-up op
            data.failed += failed;
            if (std::find(first_ok.begin(), first_ok.end(), 0) != first_ok.end()) ++data.failed;
            if (opt.trace) {
                data.untraced = measured_phase;
                data.traced = traced;
            }
            data.payload_bytes_per_op = w->payload_bytes_per_op();
            data.op_layer = w->op_layer();
        }
        driver.barrier();
    });
    if (opt.trace && k >= 0) {
        data.tracers = std::move(tracers);
        data.origin_ns = *std::min_element(start.begin(), start.end());
    }
}

std::string json_escape(const std::string& s) {
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += c;
    }
    return o;
}

void print_result(const Options& opt, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics,
                  const std::map<std::string, std::string>& info) {
    std::printf("RESULT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
                "\"attempted\":%llu,\"failed\":%llu,\"info\":{",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto& [k, v] : info) {
        std::printf("%s\"%s\":\"%s\"", first ? "" : ",", k.c_str(), json_escape(v).c_str());
        first = false;
    }
    std::printf("},\"metrics\":{");
    first = true;
    for (const Metric& m : metrics) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                    m.name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string format_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/// The per-layer metrics of a traced run, plus the layer self-time table.
std::vector<Metric> layer_metrics(const Options& opt, const RunData& d) {
    const CounterDelta c = CounterDelta::mean(d.traced_delta);
    const double ops = static_cast<double>(std::max<std::uint64_t>(d.traced.ops, 1));
    auto per_op = [&](double v) { return v / ops; };
    std::map<std::string, double> probes;
    for (const auto& rank_probes : d.probes) {
        for (const auto& [k, v] : rank_probes) probes[k] += v / kRanks;
    }
    auto probe_or = [&](const std::string& k, double fallback) {
        auto it = probes.find(k);
        return it == probes.end() ? fallback : it->second;
    };
    auto wl_or = [&](const std::string& k, double fallback) {
        auto it = d.workload_metrics.find(k);
        return it == d.workload_metrics.end() ? fallback : it->second;
    };
    const double msgs = c.lane_fast + c.lane_overflow + c.zero_copy + c.rma_puts;

    std::map<std::string, double> self_ms;
    for (const Tracer& t : d.tracers) {
        for (const auto& [layer, ns] : t.self_ns()) self_ms[layer] += ns * 1e-6 / kRanks;
    }

    std::vector<Metric> m = {
        {"petsckit.construct_ms", median_of(d.construct_ms), "ms"},
        {"petsckit.first_op_ms", median_of(d.first_op_ms), "ms"},
        {"petsckit.scatter_execute_ms", probe_or("petsckit.scatter_execute_ms", 0.0), "ms"},
        {"coll.schedules_built_per_op", per_op(c.schedules_built), "count"},
        {"coll.schedule_cache_hits_per_op", per_op(c.schedule_cache_hits), "count"},
        {"coll.rounds_per_op", per_op(c.rounds), "count"},
        {"coll.alltoallw_us", probe_or("coll.alltoallw_us", 0.0), "us"},
        {"coll.allreduce_us", probe_or("coll.allreduce_us", 0.0), "us"},
        {"runtime.comm_ms", per_op(c.comm_ns) * 1e-6, "ms"},
        {"runtime.copied_per_payload_byte",
         probe_or("runtime.copied_per_payload_byte",
                  ratio(c.bytes_copied, d.payload_bytes_per_op * ops)),
         "ratio"},
        {"runtime.zero_copy_msgs_per_op", per_op(c.zero_copy), "count"},
        {"runtime.rma_puts_per_op", per_op(c.rma_puts), "count"},
        {"runtime.rma_fences_per_op", per_op(c.rma_fences), "count"},
        {"runtime.eager_chosen_per_op", per_op(c.eager_chosen), "count"},
        {"runtime.rdzv_chosen_per_op", per_op(c.rdzv_chosen), "count"},
        {"runtime.lane_fast_share", ratio(c.lane_fast, c.lane_fast + c.lane_overflow), "ratio"},
        {"runtime.locks_per_msg", ratio(c.locks, msgs), "ratio"},
        {"runtime.cv_waits_per_op", per_op(c.cv_waits), "count"},
        {"runtime.cv_notifies_per_op", per_op(c.cv_notifies), "count"},
        {"runtime.pingpong_us", probe_or("runtime.pingpong_us", 0.0), "us"},
        {"runtime.wait_ms", d.traced.wait_ms_per_op, "ms"},
        {"runtime.pool_hit_ratio", ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio"},
        {"runtime.payload_allocs_per_op", per_op(c.payload_allocs), "count"},
        {"runtime.pool_resident_bytes", c.pool_resident_bytes, "bytes"},
        {"datatype.pack_ms", per_op(c.pack_ns) * 1e-6, "ms"},
        {"datatype.search_ms", per_op(c.search_ns) * 1e-6, "ms"},
        {"datatype.bytes_packed_per_op", per_op(c.bytes_packed), "bytes"},
        {"datatype.simd_byte_share", ratio(c.simd_pack_bytes, c.bytes_packed), "ratio"},
        {"datatype.pack_GBps", probe_or("datatype.pack_GBps", 0.0), "GB/s"},
        {"datatype.unpack_GBps", probe_or("datatype.unpack_GBps", 0.0), "GB/s"},
        {"datatype.search_blocks_visited_per_op", per_op(c.search_blocks), "count"},
        {"datatype.plan_compiles_per_op", per_op(c.plan_compiles), "count"},
        {"datatype.engine_builds_per_op", per_op(c.engine_builds), "count"},
        {"datatype.scratch_allocs_per_op", per_op(c.scratch_allocs), "count"},
    };
    // The multigrid's own metrics exist on mg_solve only, which is not one
    // of BENCHMARK.json's workloads.
    if (probes.count("petsckit.apply_ms")) {
        m.push_back({"petsckit.vcycles", wl_or("petsckit.vcycles", 0.0), "count"});
        for (const char* k :
             {"petsckit.apply_ms", "petsckit.ghost_exchange_ms", "petsckit.stencil_ms"}) {
            m.push_back({k, probes[k], "ms"});
        }
    }
    for (const char* layer : {"petsckit", "coll", "runtime", "datatype"}) {
        m.push_back({std::string(layer) + ".self_ms", self_ms[layer], "ms"});
    }
    m.push_back({"trace.op_ms_p50", d.traced.timing.p50_ms, "ms"});
    m.push_back({"trace.overhead_ms", d.traced.timing.p50_ms - d.untraced.timing.p50_ms, "ms"});
    m.push_back({"trace.ops", static_cast<double>(d.traced.ops), "count"});

    // Layer self-time table: spans give the self time of the layer each
    // public call belongs to; the Comm timers split the op's inside time.
    double total = 0.0;
    for (const auto& [layer, ms] : self_ms) total += ms;
    std::string table = "layer self time, " + opt.workload + " (traced run, mean per rank)\n";
    char line[256];
    std::snprintf(line, sizeof(line), "  %-10s %12s %8s\n", "layer", "self_ms", "share");
    table += line;
    for (const auto& [layer, ms] : self_ms) {
        std::snprintf(line, sizeof(line), "  %-10s %12.3f %7.1f%%\n", layer.c_str(), ms,
                      100.0 * ratio(ms, total));
        table += line;
    }
    std::snprintf(line, sizeof(line),
                  "inside one %s op (Comm timers, mean per rank): comm %.4f ms, pack %.4f ms, "
                  "search %.4f ms of p50 %.4f ms\n",
                  d.op_layer, per_op(c.comm_ns) * 1e-6, per_op(c.pack_ns) * 1e-6,
                  per_op(c.search_ns) * 1e-6, d.traced.timing.p50_ms);
    table += line;
    std::uint64_t stored = 0, dropped = 0;
    for (const Tracer& t : d.tracers) {
        stored += t.spans().size();
        dropped += t.dropped();
    }
    std::snprintf(line, sizeof(line), "spans: %llu written to the trace, %llu counted only\n",
                  static_cast<unsigned long long>(stored), static_cast<unsigned long long>(dropped));
    table += line;
    std::fputs(table.c_str(), stdout);
    const std::string base = opt.out_dir + "/" + opt.workload;
    if (std::FILE* f = std::fopen((base + ".layers.txt").c_str(), "w")) {
        std::fputs(table.c_str(), f);
        std::fclose(f);
    }
    if (!write_chrome_trace(base + ".trace.json", d.tracers, d.origin_ns)) {
        std::fprintf(stderr, "nncomm_perf: could not write %s.trace.json\n", base.c_str());
    }
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    std::map<std::string, std::string> info;
    info["simd"] = nncomm::dt::simd::level_name(nncomm::dt::simd::active_level());
    info["build_type"] = NNCOMM_PERF_BUILD_TYPE;
    info["ranks"] = std::to_string(kRanks);
    const double calib_before = calibration_ms();
    const double wakeup_before = wakeup_us();
    const StealSample steal_before = StealSample::now();

    RunData data;
    try {
        const int measured = opt.trace ? 1 : kMeasuredWorlds;
        // Set-up Worlds go in groups before each measuring World, so a short
        // host disturbance cannot reach all of them.
        const int reps = setup_reps(opt.workload);
        for (int k = 0; k < measured; ++k) {
            for (int rep = k * reps / measured; rep < (k + 1) * reps / measured; ++rep) {
                run_world(opt, -1, measured, data);
            }
            run_world(opt, k, measured, data);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "nncomm_perf: %s failed: %s\n", opt.workload.c_str(), e.what());
        print_result(opt, false, std::max<std::uint64_t>(data.attempted, 1),
                     std::max<std::uint64_t>(data.attempted, 1), {}, info);
        return 1;
    }
    const double steal = StealSample::now().share_since(steal_before);
    const double calib_after = calibration_ms();
    const double wakeup_after = wakeup_us();
    info["calib_before_ms"] = format_number(calib_before);
    info["calib_after_ms"] = format_number(calib_after);
    info["wakeup_before_us"] = format_number(wakeup_before);
    info["wakeup_after_us"] = format_number(wakeup_after);
    info["steal_share"] = format_number(steal);

    std::vector<Metric> metrics;
    const BlockStats p = opt.trace ? data.untraced.timing : data.timed.stats(opt.seconds, 100);
    info["samples"] = std::to_string(p.ops);
    info["samples_beyond_p90"] = std::to_string(p.samples_beyond_p90);
    info["raw_op_ms_p50"] = format_number(p.raw_p50_ms);
    info["raw_op_ms_p90"] = format_number(p.raw_p90_ms);
    info["raw_ops_per_s"] = format_number(p.raw_ops_per_s);
    info["raw_setup_s"] = format_number(median_of(data.raw_setup_s));
    info["block_calibration_ms"] = format_number(p.calibration_ms);
    info["blocks"] = std::to_string(p.blocks);
    info["disturbed_blocks"] = std::to_string(p.disturbed_blocks);
    // Contended: a counted block, or the run as a whole, lost more than
    // kStealLimit of its CPU time to the hypervisor.
    info["contended"] = p.contended || steal > kStealLimit ? "yes" : "no";
    if (opt.trace) {
        metrics = layer_metrics(opt, data);
    } else {
        // op_ms_p90 and ops_per_s are reported, not gated in BENCHMARK.json:
        // both follow the tail of the op times, which host steal and
        // scatter_steady's fence-sleep mode move from run to run (see
        // METRICS.md).
        info["op_ms_p90"] = format_number(p.p90_ms);
        info["ops_per_s"] = format_number(p.ops_per_s);
        metrics = {
            {"op_ms_p50", p.p50_ms, "ms"},
            {"setup_s", median_of(data.setup_s), "s"},
            {"peak_rss_mib", peak_rss_mib(), "MiB"},
        };
    }
    const double failed_ratio =
        ratio(static_cast<double>(data.failed), static_cast<double>(data.attempted));
    info["failed_ops_ratio"] = format_number(failed_ratio);

    std::printf("%s seed %llu: %llu ops counted (%llu beyond p90), %llu attempted, %llu failed, "
                "failed_ops_ratio %.6f\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(p.ops),
                static_cast<unsigned long long>(p.samples_beyond_p90),
                static_cast<unsigned long long>(data.attempted),
                static_cast<unsigned long long>(data.failed), failed_ratio);
    const bool correct = data.failed == 0;
    print_result(opt, correct, data.attempted, data.failed, metrics, info);
    return correct ? 0 : 1;
}

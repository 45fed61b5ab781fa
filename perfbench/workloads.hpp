// The three benchmark workloads. One Workload object lives on each rank
// thread and owns that rank's library objects, inputs and expected outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "harness.hpp"
#include "runtime/comm.hpp"

namespace perf {

/// What a rank's workload needs from the harness.
struct RankContext {
    nncomm::rt::Comm& comm;
    PhaseDriver& driver;
    Tracer& tracer;
    std::uint64_t seed;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Untimed: computes what checks compare against, and the payloads of
    /// checked ops. Runs once per measuring World, before construct(), so
    /// that nothing it allocates is alive while the workload runs.
    virtual void build_reference() = 0;
    /// Builds the library objects and inputs (timed as set-up).
    virtual void construct() = 0;

    /// Untimed: writes the next call's inputs; clears outputs when the
    /// call will be checked.
    virtual void prepare(bool checked) = 0;
    /// The timed op. With the tracer enabled it records spans around the
    /// public calls it makes below the op itself.
    virtual void op() = 0;
    /// Name and layer of the public call one op is (the op's span).
    virtual const char* op_name() const = 0;
    virtual const char* op_layer() const = 0;
    /// Untimed: true when the last op's output is right (or not checked).
    virtual bool check(bool checked) = 0;
    /// Damages the last op's output so the next check must fail.
    virtual void corrupt() = 0;
    /// Ops are checked when (op index within a phase) % check_every() == 0.
    virtual std::uint64_t check_every() const { return 1; }

    /// Payload bytes one op sends from this rank (0 when unknown; the
    /// probes then supply runtime.copied_per_payload_byte themselves).
    virtual double payload_bytes_per_op() const { return 0.0; }
    /// Workload-specific per-layer numbers of the last traced phase
    /// (e.g. V-cycles per solve).
    virtual std::map<std::string, double> traced_metrics() const { return {}; }
    /// Times each layer's public entry point in isolation on this
    /// workload's own objects, data and peers. Collective over the ranks.
    virtual std::map<std::string, double> probes() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const RankContext& ctx);
bool known_workload(const std::string& name);
/// Set-up repetitions per run (each in a fresh World).
int setup_reps(const std::string& name);

/// Probe helper shared by the workloads and main (collective over the ranks).
struct ProbeResult {
    double p50_ms = 0.0;
    std::uint64_t ops = 0;
};
/// Runs `fn` in a short lock-step phase on every rank (or on rank 0 only)
/// and returns the median op time; each call is one span.
ProbeResult probe(const RankContext& ctx, const char* name, const char* layer,
                  const std::function<void()>& fn, bool rank0_only = false);

}  // namespace perf

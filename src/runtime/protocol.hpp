// The one-sided RMA selection gate for persistent plans.
//
// Persistent AlltoallwPlan/VecScatter plans lower onto rt::Win puts when
// RMA is compiled in (the NNCOMM_RMA CMake option) and not disabled at run
// time (the NNCOMM_RMA env var, "OFF"/"0"/"FALSE", case-insensitive). The
// choice is a pure function of the build, the environment and the plan's
// config, never of the traffic matrix or of measured timings, so every
// rank makes it identically.
#pragma once

#include <cstdlib>

namespace nncomm::rt {

/// True when the one-sided RMA machinery is eligible for plan selection
/// (the NNCOMM_RMA CMake option; OFF defines NNCOMM_RMA_DISABLED).
/// rt::Win itself always compiles — only the persistent-plan protocol
/// selection is gated, mirroring how NNCOMM_SIMD gates dispatch rather
/// than the kernels.
#if defined(NNCOMM_RMA_DISABLED)
inline constexpr bool kRmaCompiled = false;
#else
inline constexpr bool kRmaCompiled = true;
#endif

/// Runtime escape hatch: NNCOMM_RMA=OFF|0|FALSE keeps persistent plans on
/// the two-sided protocols. Parsing is split out so tests can drive the
/// raw parser without mutating the (memoized) process environment.
inline bool rma_env_enabled(const char* value) {
    if (value == nullptr) return true;
    auto matches = [](const char* e, const char* token) {
        for (; *e != '\0' && *token != '\0'; ++e, ++token) {
            const char c = (*e >= 'a' && *e <= 'z') ? static_cast<char>(*e - 'a' + 'A') : *e;
            if (c != *token) return false;
        }
        return *e == '\0' && *token == '\0';
    };
    return !(matches(value, "OFF") || matches(value, "0") || matches(value, "FALSE"));
}

/// Memoized read of the NNCOMM_RMA env var (first call wins).
inline bool rma_runtime_enabled() {
    static const bool enabled = rma_env_enabled(std::getenv("NNCOMM_RMA"));
    return enabled;
}

/// The one predicate persistent plans consult: RMA compiled in AND not
/// disabled by the env var.
inline bool rma_selection_enabled() { return kRmaCompiled && rma_runtime_enabled(); }

/// Stateless leftover of the retired protocol tune cache. The benchmark
/// program (perfbench/main.cpp) still calls instance().reset() between
/// workloads, and its sources are frozen with the benchmark, so the two
/// calls stay as no-ops until the next benchmark revision drops them.
class ProtoTuneCache {
public:
    static ProtoTuneCache& instance() {
        static ProtoTuneCache cache;
        return cache;
    }
    void reset() {}

private:
    ProtoTuneCache() = default;
};

}  // namespace nncomm::rt

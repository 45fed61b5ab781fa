// Pack plans: commit-time compilation of flattened datatypes into
// specialized copy kernels, plus a process-wide LRU plan cache.
//
// The paper's measurements (§4.1, Figures 12/13) show that datatype
// *processing* — not bytes moved — dominates nonuniform noncontiguous
// communication, and follow-up studies (Carpen-Amarie/Hunold/Träff;
// Eijkhout) show that generic interpretive packing loses to
// pattern-specialized copy loops. A PackPlan is the compiled form: at
// commit time (first use of a type) the flattened block stream is
// classified once into a kernel class,
//
//   Contiguous     — one dense run per message: a single memcpy,
//   Strided        — constant stride, uniform block length with an optional
//                    shorter trailing block (odd-count vector types): a
//                    two-level strided loop over a SIMD gather/scatter
//                    kernel pair selected per block length (simd.hpp),
//   BlockedStrided — constant inner blocklen/stride nested inside a
//                    constant outer stride (the DMDA face-exchange and
//                    transpose-column shape): a three-level loop whose
//                    inner runs use the same SIMD kernel pair,
//   Irregular      — anything else: a tight walk of the flattened block
//                    table (binary-search entry, fixed-size-dispatched
//                    copies) — still plan-driven, no per-block cursor
//                    bookkeeping,
//
// and every later pack/unpack of a structurally equal type dispatches
// straight to the kernel with O(1) positioning — no per-block cursor
// bookkeeping and no re-classification. The SIMD kernel pair is frozen
// into the plan at compile time (per-plan dispatch, not per-call), so the
// hot loop carries zero CPU-feature branching. Plans are cached two ways:
// each Datatype node memoizes its plan (Datatype::plan()), and a
// process-wide LRU cache keyed by the flattened structural signature
// shares one compiled plan between structurally equal types built
// independently (e.g. the per-peer indexed_block types two VecScatters plan
// over the same index pattern).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "datatype/cursor.hpp"
#include "datatype/flatten.hpp"
#include "datatype/simd.hpp"

namespace nncomm {
struct StatCounters;
}

namespace nncomm::dt {

enum class PackKernel {
    Contiguous,      ///< one dense run; pack == memcpy
    Strided,         ///< constant-stride vector pattern (uniform + optional tail)
    BlockedStrided,  ///< 2-D nested constant-stride pattern
    Irregular,       ///< flattened block-table walk
};

inline const char* pack_kernel_name(PackKernel k) {
    switch (k) {
        case PackKernel::Contiguous: return "contiguous";
        case PackKernel::Strided: return "strided";
        case PackKernel::BlockedStrided: return "blocked-strided";
        case PackKernel::Irregular: return "irregular";
    }
    return "?";
}

/// Immutable compiled pack plan for one datatype layout. The specialized
/// kernels (Contiguous/Strided/BlockedStrided) carry every parameter they
/// need as scalars plus a frozen SIMD kernel pair; the Irregular kernel
/// walks the caller-supplied FlatType's block table, which must be the
/// layout the plan was compiled from (or a structurally equal one).
class PackPlan {
public:
    /// Classifies `flat` and compiles the matching kernel.
    static PackPlan compile(const FlatType& flat);

    PackKernel kernel() const { return kernel_; }
    /// True when pack/unpack uses closed-form scalar parameters (no block
    /// table). The Irregular class is also plan-driven (tight table walk),
    /// but callers that keep separate machinery for the general case key
    /// off this.
    bool specialized() const { return kernel_ != PackKernel::Irregular; }

    std::size_t instance_size() const { return instance_size_; }
    /// Byte offset of the first data byte (block 0 / the dense run).
    std::ptrdiff_t first_offset() const { return first_offset_; }
    /// Strided kernel parameters (meaningful when kernel() == Strided or
    /// BlockedStrided).
    std::size_t block_length() const { return block_len_; }
    std::ptrdiff_t block_stride() const { return stride_; }
    std::size_t blocks_per_instance() const { return blocks_per_instance_; }
    /// Length of the trailing block (== block_length() when uniform).
    std::size_t tail_length() const { return tail_len_; }
    /// BlockedStrided shape: blocks per inner run / distance between runs.
    std::size_t inner_blocks() const { return inner_blocks_; }
    std::ptrdiff_t outer_stride() const { return outer_stride_; }
    /// True when the frozen kernel pair moves bytes through vector
    /// registers (feeds the dt_simd_* counters).
    bool vectorized() const { return kernels_.vector; }

    /// 64-bit structural signature of the flattened layout (cache key).
    std::uint64_t signature() const { return signature_; }

    /// Gathers `out.size()` packed-stream bytes starting at stream byte
    /// `pos` of `count` instances of the layout at `base` into `out`.
    /// `flat` must describe the layout the plan was compiled from (used
    /// only by the Irregular kernel). When `stats` is non-null the call is
    /// tallied into the dt_* dispatch counters.
    void pack_range(const FlatType& flat, const std::byte* base, std::size_t count,
                    std::uint64_t pos, std::span<std::byte> out,
                    StatCounters* stats = nullptr) const;

    /// Scatters `in` into the layout at `base` starting at packed-stream
    /// byte `pos` (the inverse of pack_range).
    void unpack_range(const FlatType& flat, std::byte* base, std::size_t count,
                      std::uint64_t pos, std::span<const std::byte> in,
                      StatCounters* stats = nullptr) const;

    /// Full-message helpers (pos = 0, whole stream).
    void pack(const FlatType& flat, const std::byte* base, std::size_t count,
              std::span<std::byte> out, StatCounters* stats = nullptr) const {
        pack_range(flat, base, count, 0, out, stats);
    }
    void unpack(const FlatType& flat, std::byte* base, std::size_t count,
                std::span<const std::byte> in, StatCounters* stats = nullptr) const {
        unpack_range(flat, base, count, 0, in, stats);
    }

private:
    friend class PlanCache;
    /// compile() with the structural signature already computed (the
    /// cache computes it first, to look the plan up).
    static PackPlan compile(const FlatType& flat, std::uint64_t signature);

    PackKernel kernel_ = PackKernel::Irregular;
    std::size_t instance_size_ = 0;      ///< data bytes per instance
    std::ptrdiff_t extent_ = 0;          ///< instance stride in memory
    std::ptrdiff_t first_offset_ = 0;    ///< offset of block 0 (or the dense run)
    std::size_t block_len_ = 0;          ///< uniform block length
    std::size_t tail_len_ = 0;           ///< trailing-block length (<= block_len_)
    std::ptrdiff_t stride_ = 0;          ///< byte distance between block starts
    std::size_t blocks_per_instance_ = 1;
    std::size_t inner_blocks_ = 1;       ///< blocks per inner run (BlockedStrided)
    std::ptrdiff_t outer_stride_ = 0;    ///< distance between inner-run starts
    simd::Kernels kernels_{};            ///< frozen at compile time
    std::uint64_t signature_ = 0;
};

/// Process-wide LRU cache of compiled plans keyed by structural signature.
/// Shared by all ranks (threads); all operations are mutex-protected.
class PlanCache {
public:
    static PlanCache& instance();

    /// Returns the cached plan for `type`'s flattened layout, compiling on
    /// miss (counted in `stats->plan_compiles` when given). The returned
    /// plan is shared and immutable.
    std::shared_ptr<const PackPlan> get(const Datatype& type, StatCounters* stats = nullptr);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;  ///< compiles
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };
    Stats stats() const;

    /// Drops all entries and zeroes the statistics (tests).
    void reset();
    /// Caps the number of retained plans (least recently used evicted).
    void set_capacity(std::size_t cap);

    static constexpr std::size_t kDefaultCapacity = 256;

private:
    PlanCache() = default;
    struct Impl;
    Impl& impl() const;
};

}  // namespace nncomm::dt

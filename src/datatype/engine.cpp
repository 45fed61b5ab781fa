#include "datatype/engine.hpp"

#include <cstring>

#include "datatype/pack.hpp"

namespace nncomm::dt {

PackEngine::PackEngine(const void* base, const Datatype& type, std::size_t count,
                       const EngineConfig& config)
    : base_(static_cast<const std::byte*>(base)), type_(type), count_(count), config_(config) {
    NNCOMM_CHECK(type.valid());
    NNCOMM_CHECK_MSG(config.pipeline_chunk > 0, "pipeline chunk must be > 0");
    NNCOMM_CHECK_MSG(config.lookahead_blocks > 0, "look-ahead window must be > 0");
    total_bytes_ = static_cast<std::uint64_t>(type.size()) * count;
    plan_ = &type_.plan(&counters_);  // commit-time compile / cache lookup
    ++counters_.engine_builds;
    ++counters_.scratch_allocs;
    scratch_.resize(config.pipeline_chunk);
}

void PackEngine::reset(const void* base) {
    base_ = static_cast<const std::byte*>(base);
    bytes_done_ = 0;
}

bool PackEngine::plan_chunk(ChunkView& out) {
    if (!config_.enable_plan_fastpath || !plan_->specialized()) return false;

    const std::uint64_t budget64 =
        std::min<std::uint64_t>(config_.pipeline_chunk, total_bytes_ - bytes_done_);
    const std::size_t budget = static_cast<std::size_t>(budget64);

    if (plan_->kernel() == PackKernel::Contiguous) {
        // Adjacent instances tile memory densely: each chunk is one direct
        // region, no look-ahead or classification needed.
        ++counters_.dense_chunks;
        ++counters_.plan_hits;
        ++counters_.blocks_packed;
        iov_.clear();
        iov_.emplace_back(base_ + plan_->first_offset() +
                              static_cast<std::ptrdiff_t>(bytes_done_),
                          budget);
        out.dense = true;
        out.iov = std::span<const std::pair<const std::byte*, std::size_t>>(iov_.data(),
                                                                            iov_.size());
        out.packed = {};
        out.bytes = budget;
        bytes_done_ += budget;
        return true;
    }

    // Strided / BlockedStrided: the dense/sparse decision is a property of
    // the (fixed) block length, not of any particular chunk. Dense strided
    // chunks still go through the engine's iov walk (the transport reads
    // the regions either way); sparse ones dispatch to the plan's frozen
    // SIMD gather kernel with O(1) positioning — no cursor, no look-ahead.
    const std::size_t block_len = plan_->block_length();
    if (static_cast<double>(block_len) >= config_.density_threshold) return false;

    ++counters_.sparse_chunks;
    ++counters_.plan_hits;
    {
        PhaseScope scope(timers_, Phase::Pack);
        plan_->pack_range(type_.flat(), base_, count_, bytes_done_,
                          std::span<std::byte>(scratch_.data(), budget), &counters_);
    }
    counters_.bytes_packed += budget;
    counters_.blocks_packed +=
        (bytes_done_ % block_len + budget + block_len - 1) / block_len;
    out.dense = false;
    out.iov = {};
    out.packed = std::span<const std::byte>(scratch_.data(), budget);
    out.bytes = budget;
    bytes_done_ += budget;
    return true;
}

SingleContextEngine::SingleContextEngine(const void* base, const Datatype& type,
                                         std::size_t count, const EngineConfig& config)
    : PackEngine(base, type, count, config), cursor_(&type_.flat(), count_) {}

void SingleContextEngine::reset(const void* base) {
    PackEngine::reset(base);
    cursor_.rewind();
}

bool SingleContextEngine::next_chunk(ChunkView& out) {
    if (finished()) return false;
    // Specialized plans bypass the single-context machinery entirely —
    // there is no context to lose when the position is O(1)-computable.
    // The quadratic re-search below is only reachable (and measured) on
    // irregular types, which is what the paper's workloads flatten to.
    if (plan_chunk(out)) return true;

    const std::uint64_t chunk_start = bytes_done_;
    const std::uint64_t budget64 = std::min<std::uint64_t>(config_.pipeline_chunk,
                                                           total_bytes_ - bytes_done_);
    const std::size_t budget = static_cast<std::size_t>(budget64);

    // Look-ahead: walk the (only) context forward over the signature of the
    // upcoming chunk to decide dense vs sparse, recording the regions as we
    // go (the dense path sends straight from them). This ADVANCES the
    // context past the chunk.
    iov_.clear();
    std::size_t la_bytes = 0;
    std::size_t la_blocks = 0;
    ++counters_.lookahead_events;
    while (la_bytes < budget && !cursor_.at_end()) {
        const std::size_t rem = cursor_.current_block_remaining();
        const std::size_t take = std::min(rem, budget - la_bytes);
        iov_.emplace_back(base_ + cursor_.current_offset(), take);
        cursor_.advance(take);
        la_bytes += take;
        ++la_blocks;
    }
    counters_.lookahead_blocks += la_blocks;

    const double avg = static_cast<double>(la_bytes) / static_cast<double>(la_blocks);
    const bool dense = avg >= config_.density_threshold;

    if (dense) {
        // Direct send from the look-ahead regions; the context conveniently
        // already sits at the chunk end.
        ++counters_.dense_chunks;
        counters_.blocks_packed += la_blocks;
        out.dense = true;
        out.iov = std::span<const std::pair<const std::byte*, std::size_t>>(iov_.data(),
                                                                            iov_.size());
        out.packed = {};
        out.bytes = la_bytes;
    } else {
        // Sparse: packing must start from the pre-look-ahead position, but
        // this context has moved past it. Recover by re-searching the whole
        // datatype from its head — the paper's quadratic-cost flaw.
        {
            PhaseScope scope(timers_, Phase::Search);
            cursor_.seek_linear(chunk_start, counters_);
        }
        {
            PhaseScope scope(timers_, Phase::Pack);
            const std::size_t produced =
                pack_bytes(base_, cursor_, std::span<std::byte>(scratch_.data(), la_bytes));
            NNCOMM_CHECK(produced == la_bytes);
        }
        ++counters_.sparse_chunks;
        counters_.blocks_packed += la_blocks;
        counters_.bytes_packed += la_bytes;
        out.dense = false;
        out.iov = {};
        out.packed = std::span<const std::byte>(scratch_.data(), la_bytes);
        out.bytes = la_bytes;
    }
    bytes_done_ += la_bytes;
    return true;
}

DualContextEngine::DualContextEngine(const void* base, const Datatype& type, std::size_t count,
                                     const EngineConfig& config)
    : PackEngine(base, type, count, config),
      pack_ctx_(&type_.flat(), count_),
      lookahead_ctx_(&type_.flat(), count_) {}

void DualContextEngine::reset(const void* base) {
    PackEngine::reset(base);
    pack_ctx_.rewind();
    lookahead_ctx_.rewind();
}

bool DualContextEngine::next_chunk(ChunkView& out) {
    if (finished()) return false;
    if (plan_chunk(out)) return true;

    const std::uint64_t budget64 = std::min<std::uint64_t>(config_.pipeline_chunk,
                                                           total_bytes_ - bytes_done_);
    const std::size_t budget = static_cast<std::size_t>(budget64);

    // Context 1 (look-ahead): resync to the pack position — an O(1) cursor
    // copy, the whole point of keeping two contexts — then roll forward
    // over at most `lookahead_blocks` signature elements. Only signatures
    // (block lengths) are read; no data is touched.
    lookahead_ctx_ = pack_ctx_;
    std::size_t la_bytes = 0;
    std::size_t la_blocks = 0;
    ++counters_.lookahead_events;
    while (la_bytes < budget && la_blocks < config_.lookahead_blocks &&
           !lookahead_ctx_.at_end()) {
        const std::size_t rem = lookahead_ctx_.current_block_remaining();
        const std::size_t take = std::min(rem, budget - la_bytes);
        lookahead_ctx_.advance(take);
        la_bytes += take;
        ++la_blocks;
    }
    counters_.lookahead_blocks += la_blocks;

    const double avg = static_cast<double>(la_bytes) / static_cast<double>(la_blocks);
    const bool dense = avg >= config_.density_threshold;

    std::size_t chunk_bytes = 0;
    if (dense) {
        // Direct send: walk context 2 across the chunk recording regions
        // (signature-only; the transport reads the data).
        ++counters_.dense_chunks;
        iov_.clear();
        while (chunk_bytes < budget && !pack_ctx_.at_end()) {
            const std::size_t rem = pack_ctx_.current_block_remaining();
            const std::size_t take = std::min(rem, budget - chunk_bytes);
            iov_.emplace_back(base_ + pack_ctx_.current_offset(), take);
            pack_ctx_.advance(take);
            chunk_bytes += take;
        }
        counters_.blocks_packed += iov_.size();
        out.dense = true;
        out.iov = std::span<const std::pair<const std::byte*, std::size_t>>(iov_.data(),
                                                                            iov_.size());
        out.packed = {};
        out.bytes = chunk_bytes;
    } else {
        // Sparse: context 2 packs from exactly where it stands — it was
        // never advanced by the look-ahead, so there is nothing to search
        // for. (The redundant work is context 2 re-parsing the <= 15
        // signature elements context 1 already saw.)
        PhaseScope scope(timers_, Phase::Pack);
        ++counters_.sparse_chunks;
        chunk_bytes =
            pack_bytes(base_, pack_ctx_, std::span<std::byte>(scratch_.data(), budget));
        counters_.bytes_packed += chunk_bytes;
        out.dense = false;
        out.iov = {};
        out.packed = std::span<const std::byte>(scratch_.data(), chunk_bytes);
        out.bytes = chunk_bytes;
    }
    bytes_done_ += chunk_bytes;
    return true;
}

std::unique_ptr<PackEngine> make_engine(EngineKind kind, const void* base, const Datatype& type,
                                        std::size_t count, const EngineConfig& config) {
    if (kind == EngineKind::SingleContext) {
        return std::make_unique<SingleContextEngine>(base, type, count, config);
    }
    return std::make_unique<DualContextEngine>(base, type, count, config);
}

}  // namespace nncomm::dt

// Flattened datatype representation: a stream of maximal contiguous blocks.
//
// The pack engines (engine.hpp) do not walk the recursive type tree during
// data movement; at type-commit time the tree is flattened once into an
// ordered array of (offset, length) blocks for a single type instance.
// Adjacent blocks are merged, so a "contiguous of 3 doubles" leaf becomes
// one 24-byte block and a fully dense type becomes exactly one block.
//
// This mirrors what production MPI implementations do (MPICH dataloops /
// Open MPI's opal_convertor flattened descriptions) and gives the engines a
// well-defined notion of "signature element" — one block — which is the
// unit both the paper's look-ahead window (~15 elements) and the baseline's
// quadratic re-search are counted in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace nncomm::dt {

/// One maximal contiguous region, relative to the type's origin.
struct FlatBlock {
    std::ptrdiff_t offset = 0;  ///< bytes from the buffer base
    std::size_t length = 0;     ///< bytes, > 0
};

/// Immutable flattened form of one datatype instance.
class FlatType {
public:
    FlatType(std::vector<FlatBlock> blocks, std::ptrdiff_t extent, std::ptrdiff_t lb);

    const std::vector<FlatBlock>& blocks() const { return blocks_; }
    std::size_t block_count() const { return blocks_.size(); }
    std::size_t size() const { return size_; }          ///< total data bytes
    std::ptrdiff_t extent() const { return extent_; }   ///< instance stride
    std::ptrdiff_t lb() const { return lb_; }
    std::size_t max_block_length() const { return max_block_; }
    std::size_t min_block_length() const { return min_block_; }
    /// Average contiguous-block length — the density measure the engines'
    /// sparse/dense decision is based on.
    double avg_block_length() const {
        return blocks_.empty() ? 0.0
                               : static_cast<double>(size_) / static_cast<double>(blocks_.size());
    }
    bool contiguous() const {
        return blocks_.size() <= 1 && static_cast<std::ptrdiff_t>(size_) == extent_ && lb_ == 0;
    }

    /// Lowest byte offset actually touched by one instance (<= 0 possible).
    std::ptrdiff_t data_lb() const { return data_lb_; }
    /// One past the highest byte offset actually touched by one instance.
    /// Can exceed extent() for resized types — buffers must be sized by
    /// (count - 1) * extent() + data_ub(), not count * extent().
    std::ptrdiff_t data_ub() const { return data_ub_; }
    /// Byte range [first, second) that `count` consecutive instances touch,
    /// relative to their base: data_lb()..data_ub() stretched over the
    /// (count - 1) extents between the first and the last instance.
    std::pair<std::ptrdiff_t, std::ptrdiff_t> footprint(std::size_t count) const {
        if (count == 0) return {0, 0};
        const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(count - 1) * extent_;
        return {std::min(data_lb_, data_lb_ + last), std::max(data_ub_, data_ub_ + last)};
    }

    /// Cumulative data bytes before block i (prefix_bytes()[block_count()] ==
    /// size()). Used by tests and by O(1) cursor re-positioning in the
    /// *optimized* engine's bookkeeping (the baseline deliberately walks).
    const std::vector<std::uint64_t>& prefix_bytes() const { return prefix_; }

private:
    std::vector<FlatBlock> blocks_;
    std::vector<std::uint64_t> prefix_;
    std::size_t size_ = 0;
    std::ptrdiff_t extent_ = 0;
    std::ptrdiff_t lb_ = 0;
    std::size_t max_block_ = 0;
    std::size_t min_block_ = 0;
    std::ptrdiff_t data_lb_ = 0;
    std::ptrdiff_t data_ub_ = 0;
};

/// Counts the blocks FlatBuilder keeps for the same add() sequence (same
/// merge rule), so Datatype::flat() can reserve exactly that many before
/// building: a type whose runs all merge reserves one block, not one per run.
class BlockCounter {
public:
    void add(std::ptrdiff_t offset, std::size_t length) {
        if (length == 0) return;
        if (count_ == 0 || end_ != offset) {
            ++count_;
            NNCOMM_CHECK_MSG(count_ <= kMaxBlocks, "datatype too fragmented to flatten");
        }
        end_ = offset + static_cast<std::ptrdiff_t>(length);
    }

    std::size_t count() const { return count_; }

    static constexpr std::size_t kMaxBlocks = std::size_t{1} << 27;  // 128M blocks

private:
    std::size_t count_ = 0;
    std::ptrdiff_t end_ = 0;  ///< one past the last kept block
};

/// Builder used by Datatype::flat(): appends blocks, merging adjacencies,
/// into storage reserved up front for `blocks` (BlockCounter's count).
class FlatBuilder {
public:
    explicit FlatBuilder(std::size_t blocks) { blocks_.reserve(blocks); }

    void add(std::ptrdiff_t offset, std::size_t length) {
        if (length == 0) return;
        if (!blocks_.empty()) {
            FlatBlock& last = blocks_.back();
            if (last.offset + static_cast<std::ptrdiff_t>(last.length) == offset) {
                last.length += length;
                return;
            }
        }
        blocks_.push_back(FlatBlock{offset, length});
    }

    std::vector<FlatBlock> take() { return std::move(blocks_); }

private:
    std::vector<FlatBlock> blocks_;
};

}  // namespace nncomm::dt

#include "datatype/plan.hpp"

#include <algorithm>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/counters.hpp"
#include "datatype/datatype.hpp"

namespace nncomm::dt {

namespace {

// splitmix64's finalizer: a bijection with full avalanche.
constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// The PlanCache trusts this key (with size, extent and block count) as
// structural identity, so a collision would pack through the wrong plan.
// Every 64-bit word is folded in as h = mix64(h ^ w). For a fixed state
// that step is a bijection in w, and for a fixed w a bijection in h, so two
// layouts that differ in a single word never collide; any other difference
// collides with probability ~2^-64. Blocks go round-robin to four
// independent lanes so the mixer's latency overlaps; a final chain folds
// the lanes into extent, lb and block count.
std::uint64_t structural_signature(const FlatType& flat) {
    constexpr int kLanes = 4;
    std::uint64_t lane[kLanes] = {0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
                                  0x165667b19e3779f9ULL, 0x27d4eb2f165667c5ULL};
    auto fold = [](std::uint64_t& h, const FlatBlock& b) {
        h = mix64(h ^ static_cast<std::uint64_t>(b.offset));
        h = mix64(h ^ b.length);
    };
    const auto& blocks = flat.blocks();
    const std::size_t B = blocks.size();
    std::size_t i = 0;
    for (; i + kLanes <= B; i += kLanes) {
        for (int l = 0; l < kLanes; ++l) fold(lane[l], blocks[i + static_cast<std::size_t>(l)]);
    }
    for (int l = 0; i < B; ++i, ++l) fold(lane[l], blocks[i]);

    std::uint64_t h = mix64(static_cast<std::uint64_t>(flat.extent()));
    h = mix64(h ^ static_cast<std::uint64_t>(flat.lb()));
    h = mix64(h ^ B);
    for (const std::uint64_t l : lane) h = mix64(h ^ l);
    return h;
}

// 2-D nested pattern: a run of `inner` blocks at constant stride `si`,
// repeated at constant outer stride `so` (the DMDA face-exchange and
// transpose-column shape). Requires at least two groups of at least two
// blocks; a full-length single run is plain Strided and never reaches here.
bool detect_blocked(const std::vector<FlatBlock>& blocks, std::size_t& inner,
                    std::ptrdiff_t& si, std::ptrdiff_t& so) {
    const std::size_t B = blocks.size();
    if (B < 4) return false;
    si = blocks[1].offset - blocks[0].offset;
    std::size_t I = 2;
    while (I < B && blocks[I].offset - blocks[I - 1].offset == si) ++I;
    if (I == B || B % I != 0) return false;
    so = blocks[I].offset - blocks[0].offset;
    const std::size_t G = B / I;
    if (G < 2) return false;
    for (std::size_t g = 0; g < G; ++g) {
        const std::ptrdiff_t start =
            blocks[0].offset + static_cast<std::ptrdiff_t>(g) * so;
        for (std::size_t k = 0; k < I; ++k) {
            if (blocks[g * I + k].offset != start + static_cast<std::ptrdiff_t>(k) * si) {
                return false;
            }
        }
    }
    inner = I;
    return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// compilation

PackPlan PackPlan::compile(const FlatType& flat) {
    return compile(flat, structural_signature(flat));
}

PackPlan PackPlan::compile(const FlatType& flat, std::uint64_t signature) {
    PackPlan p;
    p.instance_size_ = flat.size();
    p.extent_ = flat.extent();
    p.signature_ = signature;

    const auto& blocks = flat.blocks();
    if (blocks.empty()) {
        p.kernel_ = PackKernel::Contiguous;  // zero-size type: nothing to move
        return p;
    }
    p.first_offset_ = blocks.front().offset;
    p.blocks_per_instance_ = blocks.size();
    p.block_len_ = blocks.front().length;
    p.tail_len_ = blocks.back().length;

    if (blocks.size() == 1 &&
        static_cast<std::ptrdiff_t>(flat.size()) == flat.extent()) {
        // Consecutive instances tile memory densely: the whole message is
        // one run starting at first_offset_.
        p.kernel_ = PackKernel::Contiguous;
        return p;
    }

    const std::size_t B = blocks.size();
    // Uniform prefix: every block but possibly the last has the leading
    // length. A shorter trailing block (odd-count vector types) stays
    // Strided; a longer one cannot (the vector run math assumes tail <= L).
    bool prefix_uniform = true;
    for (std::size_t i = 1; i + 1 < B; ++i) {
        if (blocks[i].length != p.block_len_) {
            prefix_uniform = false;
            break;
        }
    }
    const bool uniform = prefix_uniform && p.tail_len_ == p.block_len_;
    const bool uniform_with_tail =
        prefix_uniform && B >= 2 && p.tail_len_ < p.block_len_;

    if (uniform || uniform_with_tail) {
        std::ptrdiff_t stride = 0;
        bool arithmetic = true;
        if (B >= 2) {
            stride = blocks[1].offset - blocks[0].offset;
            for (std::size_t i = 2; i < B; ++i) {
                if (blocks[i].offset - blocks[i - 1].offset != stride) {
                    arithmetic = false;
                    break;
                }
            }
        }
        if (arithmetic) {
            p.kernel_ = PackKernel::Strided;
            p.stride_ = stride;
            p.kernels_ = simd::select(p.block_len_);
            return p;
        }
        if (uniform) {
            std::size_t inner = 0;
            std::ptrdiff_t si = 0, so = 0;
            if (detect_blocked(blocks, inner, si, so)) {
                p.kernel_ = PackKernel::BlockedStrided;
                p.inner_blocks_ = inner;
                p.stride_ = si;
                p.outer_stride_ = so;
                p.kernels_ = simd::select(p.block_len_);
                return p;
            }
        }
    }

    p.kernel_ = PackKernel::Irregular;
    return p;
}

// ---------------------------------------------------------------------------
// kernels

void PackPlan::pack_range(const FlatType& flat, const std::byte* base, std::size_t count,
                          std::uint64_t pos, std::span<std::byte> out,
                          StatCounters* stats) const {
    std::size_t n = out.size();
    if (n == 0) return;
    NNCOMM_CHECK(pos + n <= static_cast<std::uint64_t>(instance_size_) * count);
    if (stats) ++stats->dt_kernel_dispatch[static_cast<std::size_t>(kernel_)];
    std::byte* dst = out.data();

    switch (kernel_) {
        case PackKernel::Contiguous:
            std::memcpy(dst, base + first_offset_ + static_cast<std::ptrdiff_t>(pos), n);
            return;
        case PackKernel::Strided: {
            const std::size_t L = block_len_;
            const std::size_t T = tail_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t U = (T == L) ? B : B - 1;  // uniform-run blocks
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t j = static_cast<std::size_t>(rem / L);
            std::size_t r = static_cast<std::size_t>(rem % L);
            std::uint64_t vec = 0;
            while (n > 0) {
                const std::byte* src = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                       first_offset_ +
                                       static_cast<std::ptrdiff_t>(j) * stride_;
                if (r == 0 && j < U && n >= L) {
                    const std::size_t run = std::min<std::size_t>(U - j, n / L);
                    kernels_.gather(dst, src, stride_, L, run);
                    vec += run * L;
                    dst += run * L;
                    n -= run * L;
                    j += run;
                } else {
                    const std::size_t blen = (j == B - 1) ? T : L;
                    const std::size_t take = std::min(blen - r, n);
                    std::memcpy(dst, src + r, take);
                    dst += take;
                    n -= take;
                    r += take;
                    if (r < blen) break;  // ended mid-block
                    r = 0;
                    ++j;
                }
                if (j == B) {
                    j = 0;
                    ++q;
                }
            }
            if (stats && kernels_.vector) stats->dt_simd_pack_bytes += vec;
            return;
        }
        case PackKernel::BlockedStrided: {
            const std::size_t L = block_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t I = inner_blocks_;
            const std::size_t G = B / I;
            const std::uint64_t blk = pos / L;
            std::size_t r = static_cast<std::size_t>(pos % L);
            std::uint64_t q = blk / B;
            std::size_t g = static_cast<std::size_t>((blk % B) / I);
            std::size_t k = static_cast<std::size_t>((blk % B) % I);
            std::uint64_t vec = 0;
            while (n > 0) {
                const std::byte* src = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                       first_offset_ +
                                       static_cast<std::ptrdiff_t>(g) * outer_stride_ +
                                       static_cast<std::ptrdiff_t>(k) * stride_;
                if (r == 0 && n >= L) {
                    const std::size_t run = std::min<std::size_t>(I - k, n / L);
                    kernels_.gather(dst, src, stride_, L, run);
                    vec += run * L;
                    dst += run * L;
                    n -= run * L;
                    k += run;
                } else {
                    const std::size_t take = std::min(L - r, n);
                    std::memcpy(dst, src + r, take);
                    dst += take;
                    n -= take;
                    r += take;
                    if (r < L) break;
                    r = 0;
                    ++k;
                }
                if (k == I) {
                    k = 0;
                    if (++g == G) {
                        g = 0;
                        ++q;
                    }
                }
            }
            if (stats && kernels_.vector) stats->dt_simd_pack_bytes += vec;
            return;
        }
        case PackKernel::Irregular: {
            // Tight block-table walk: one binary search to enter, then a
            // straight-line loop of memcpys (with aperiodic block lengths
            // any fixed-size dispatch is a mispredicted branch per block —
            // measured slower than letting memcpy take the runtime length).
            // The TypeCursor stays the *reference* implementation
            // (pack.hpp); this is the compiled form of the same walk.
            const auto& blocks = flat.blocks();
            const auto& prefix = flat.prefix_bytes();
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t bi = static_cast<std::size_t>(
                std::upper_bound(prefix.begin(), prefix.end(), rem) - prefix.begin() - 1);
            const std::size_t r = static_cast<std::size_t>(rem - prefix[bi]);
            const std::byte* ibase = base + static_cast<std::ptrdiff_t>(q) * extent_;
            if (r != 0) {  // partial head block, peeled off the hot loop
                const FlatBlock& b = blocks[bi];
                const std::size_t take = std::min(b.length - r, n);
                std::memcpy(dst, ibase + b.offset + static_cast<std::ptrdiff_t>(r), take);
                dst += take;
                n -= take;
                if (r + take < b.length) return;
                if (++bi == blocks.size()) {
                    bi = 0;
                    ibase += extent_;
                }
            }
            while (n > 0) {
                for (; bi < blocks.size(); ++bi) {
                    const FlatBlock& b = blocks[bi];
                    if (n < b.length) {
                        std::memcpy(dst, ibase + b.offset, n);
                        return;
                    }
                    std::memcpy(dst, ibase + b.offset, b.length);
                    dst += b.length;
                    n -= b.length;
                }
                bi = 0;
                ibase += extent_;
            }
            return;
        }
    }
}

void PackPlan::unpack_range(const FlatType& flat, std::byte* base, std::size_t count,
                            std::uint64_t pos, std::span<const std::byte> in,
                            StatCounters* stats) const {
    std::size_t n = in.size();
    if (n == 0) return;
    NNCOMM_CHECK(pos + n <= static_cast<std::uint64_t>(instance_size_) * count);
    if (stats) ++stats->dt_kernel_dispatch[static_cast<std::size_t>(kernel_)];
    const std::byte* src = in.data();

    switch (kernel_) {
        case PackKernel::Contiguous:
            std::memcpy(base + first_offset_ + static_cast<std::ptrdiff_t>(pos), src, n);
            return;
        case PackKernel::Strided: {
            const std::size_t L = block_len_;
            const std::size_t T = tail_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t U = (T == L) ? B : B - 1;
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t j = static_cast<std::size_t>(rem / L);
            std::size_t r = static_cast<std::size_t>(rem % L);
            std::uint64_t vec = 0;
            while (n > 0) {
                std::byte* dst = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                 first_offset_ + static_cast<std::ptrdiff_t>(j) * stride_;
                if (r == 0 && j < U && n >= L) {
                    const std::size_t run = std::min<std::size_t>(U - j, n / L);
                    kernels_.scatter(dst, src, stride_, L, run);
                    vec += run * L;
                    src += run * L;
                    n -= run * L;
                    j += run;
                } else {
                    const std::size_t blen = (j == B - 1) ? T : L;
                    const std::size_t take = std::min(blen - r, n);
                    std::memcpy(dst + r, src, take);
                    src += take;
                    n -= take;
                    r += take;
                    if (r < blen) break;
                    r = 0;
                    ++j;
                }
                if (j == B) {
                    j = 0;
                    ++q;
                }
            }
            if (stats && kernels_.vector_scatter) stats->dt_simd_unpack_bytes += vec;
            return;
        }
        case PackKernel::BlockedStrided: {
            const std::size_t L = block_len_;
            const std::size_t B = blocks_per_instance_;
            const std::size_t I = inner_blocks_;
            const std::size_t G = B / I;
            const std::uint64_t blk = pos / L;
            std::size_t r = static_cast<std::size_t>(pos % L);
            std::uint64_t q = blk / B;
            std::size_t g = static_cast<std::size_t>((blk % B) / I);
            std::size_t k = static_cast<std::size_t>((blk % B) % I);
            std::uint64_t vec = 0;
            while (n > 0) {
                std::byte* dst = base + static_cast<std::ptrdiff_t>(q) * extent_ +
                                 first_offset_ +
                                 static_cast<std::ptrdiff_t>(g) * outer_stride_ +
                                 static_cast<std::ptrdiff_t>(k) * stride_;
                if (r == 0 && n >= L) {
                    const std::size_t run = std::min<std::size_t>(I - k, n / L);
                    kernels_.scatter(dst, src, stride_, L, run);
                    vec += run * L;
                    src += run * L;
                    n -= run * L;
                    k += run;
                } else {
                    const std::size_t take = std::min(L - r, n);
                    std::memcpy(dst + r, src, take);
                    src += take;
                    n -= take;
                    r += take;
                    if (r < L) break;
                    r = 0;
                    ++k;
                }
                if (k == I) {
                    k = 0;
                    if (++g == G) {
                        g = 0;
                        ++q;
                    }
                }
            }
            if (stats && kernels_.vector_scatter) stats->dt_simd_unpack_bytes += vec;
            return;
        }
        case PackKernel::Irregular: {
            const auto& blocks = flat.blocks();
            const auto& prefix = flat.prefix_bytes();
            std::uint64_t q = pos / instance_size_;
            const std::uint64_t rem = pos % instance_size_;
            std::size_t bi = static_cast<std::size_t>(
                std::upper_bound(prefix.begin(), prefix.end(), rem) - prefix.begin() - 1);
            const std::size_t r = static_cast<std::size_t>(rem - prefix[bi]);
            std::byte* ibase = base + static_cast<std::ptrdiff_t>(q) * extent_;
            if (r != 0) {
                const FlatBlock& b = blocks[bi];
                const std::size_t take = std::min(b.length - r, n);
                std::memcpy(ibase + b.offset + static_cast<std::ptrdiff_t>(r), src, take);
                src += take;
                n -= take;
                if (r + take < b.length) return;
                if (++bi == blocks.size()) {
                    bi = 0;
                    ibase += extent_;
                }
            }
            while (n > 0) {
                for (; bi < blocks.size(); ++bi) {
                    const FlatBlock& b = blocks[bi];
                    if (n < b.length) {
                        std::memcpy(ibase + b.offset, src, n);
                        return;
                    }
                    std::memcpy(ibase + b.offset, src, b.length);
                    src += b.length;
                    n -= b.length;
                }
                bi = 0;
                ibase += extent_;
            }
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// PlanCache

struct PlanCache::Impl {
    struct Key {
        std::uint64_t sig = 0;
        std::size_t size = 0;
        std::ptrdiff_t extent = 0;
        std::size_t nblocks = 0;
        bool operator==(const Key&) const = default;
    };
    struct Entry {
        Key key;
        std::shared_ptr<const PackPlan> plan;
    };

    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::size_t capacity = kDefaultCapacity;
    Stats st;

    void evict_over_capacity() {
        while (lru.size() > capacity) {
            index.erase(lru.back().key.sig);
            lru.pop_back();
            ++st.evictions;
        }
    }
};

PlanCache& PlanCache::instance() {
    static PlanCache cache;
    return cache;
}

PlanCache::Impl& PlanCache::impl() const {
    static Impl i;
    return i;
}

std::shared_ptr<const PackPlan> PlanCache::get(const Datatype& type) {
    const FlatType& flat = type.flat();
    const Impl::Key key{structural_signature(flat), flat.size(), flat.extent(),
                        flat.block_count()};
    Impl& im = impl();
    // Hits return here, having paid only for the signature.
    auto lookup = [&]() -> std::shared_ptr<const PackPlan> {
        auto it = im.index.find(key.sig);
        if (it == im.index.end() || !(it->second->key == key)) return nullptr;
        ++im.st.hits;
        im.lru.splice(im.lru.begin(), im.lru, it->second);
        return im.lru.front().plan;
    };
    {
        std::lock_guard<std::mutex> lk(im.mu);
        if (auto hit = lookup()) return hit;
    }

    // Compile outside the lock; on a race the loser's compile is discarded.
    auto plan = std::make_shared<const PackPlan>(PackPlan::compile(flat, key.sig));
    std::lock_guard<std::mutex> lk(im.mu);
    if (auto hit = lookup()) return hit;
    ++im.st.misses;
    auto it = im.index.find(key.sig);
    if (it != im.index.end()) {
        // Signature collision with a structurally different type: replace.
        im.lru.erase(it->second);
        im.index.erase(it);
    }
    im.lru.push_front(Impl::Entry{key, plan});
    im.index[key.sig] = im.lru.begin();
    im.evict_over_capacity();
    return plan;
}

PlanCache::Stats PlanCache::stats() const {
    Impl& im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    Stats s = im.st;
    s.entries = im.lru.size();
    return s;
}

void PlanCache::reset() {
    Impl& im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.lru.clear();
    im.index.clear();
    im.st = Stats{};
}

void PlanCache::set_capacity(std::size_t cap) {
    Impl& im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.capacity = cap == 0 ? 1 : cap;
    im.evict_over_capacity();
}

}  // namespace nncomm::dt

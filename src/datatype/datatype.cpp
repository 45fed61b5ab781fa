#include "datatype/datatype.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <sstream>

#include "datatype/flatten.hpp"
#include "datatype/plan.hpp"

namespace nncomm::dt {

namespace detail {

struct TypeNode {
    TypeClass cls = TypeClass::Builtin;
    std::string name;  // builtins only

    // Recursive structure. Struct uses `children`; everything else `child`.
    Datatype child;
    std::vector<Datatype> children;

    std::size_t count = 0;
    std::size_t blocklength = 0;        // Vector/Hvector/IndexedBlock (one for all blocks)
    std::ptrdiff_t stride_bytes = 0;    // Hvector (Vector lowered to bytes)
    std::vector<std::size_t> blocklengths;      // Indexed/Hindexed/Struct
    std::vector<std::ptrdiff_t> displs_bytes;   // Indexed/Hindexed/IndexedBlock/Struct

    // Cached layout properties (computed at construction).
    std::size_t size = 0;
    std::ptrdiff_t lb = 0;
    std::ptrdiff_t ub = 0;  // extent = ub - lb
    bool contiguous = false;

    // Flattened form, computed on demand exactly once.
    mutable std::once_flag flat_once;
    mutable std::unique_ptr<FlatType> flat;

    // Compiled pack plan, resolved through the global PlanCache once.
    mutable std::once_flag plan_once;
    mutable std::shared_ptr<const PackPlan> plan;

    std::ptrdiff_t extent() const { return ub - lb; }
};

namespace {

using NodePtr = std::shared_ptr<TypeNode>;

NodePtr new_node(TypeClass cls) {
    auto n = std::make_shared<TypeNode>();
    n->cls = cls;
    return n;
}

const TypeNode& node_of(const Datatype& t);

// Emits the blocks of one instance of `t` displaced by `base` into `b`.
// `Sink` is FlatBuilder or BlockCounter (flatten.hpp): flat() runs the same
// walk twice, counting first so the builder reserves exactly what survives
// merging.
template <class Sink>
void emit_blocks(const Datatype& t, std::ptrdiff_t base, Sink& b);

template <class Sink>
void emit_child_instances(const Datatype& child, std::ptrdiff_t base, std::size_t n, Sink& b) {
    const std::ptrdiff_t ext = child.extent();
    for (std::size_t i = 0; i < n; ++i) {
        emit_blocks(child, base + static_cast<std::ptrdiff_t>(i) * ext, b);
    }
}

// Emits block i of an hvector/indexed node: `len(i)` child instances
// `start(i)` bytes past `base`, one run per block when the child is dense.
// The child's properties are read once, outside the per-block loop.
template <class Sink, class Start, class Len>
void emit_runs(const Datatype& child, std::ptrdiff_t base, std::size_t count, Start start,
               Len len, Sink& b) {
    if (child.is_contiguous()) {
        const std::ptrdiff_t at = base + child.lb();
        const std::size_t csize = child.size();
        for (std::size_t i = 0; i < count; ++i) b.add(at + start(i), len(i) * csize);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            emit_child_instances(child, base + start(i), len(i), b);
        }
    }
}

template <class Sink>
void emit_blocks(const Datatype& t, std::ptrdiff_t base, Sink& b) {
    const TypeNode& n = node_of(t);
    switch (n.cls) {
        case TypeClass::Builtin:
            b.add(base, n.size);
            break;
        case TypeClass::Contiguous:
            if (n.child.is_contiguous()) {
                // One dense run: count * child extent.
                b.add(base + n.child.lb(), n.count * n.child.size());
            } else {
                emit_child_instances(n.child, base, n.count, b);
            }
            break;
        case TypeClass::Vector:  // lowered to byte stride at construction
        case TypeClass::Hvector:
            emit_runs(
                n.child, base, n.count,
                [&](std::size_t i) { return static_cast<std::ptrdiff_t>(i) * n.stride_bytes; },
                [&](std::size_t) { return n.blocklength; }, b);
            break;
        case TypeClass::IndexedBlock:
            emit_runs(
                n.child, base, n.count, [&](std::size_t i) { return n.displs_bytes[i]; },
                [&](std::size_t) { return n.blocklength; }, b);
            break;
        case TypeClass::Indexed:
        case TypeClass::Hindexed:
            emit_runs(
                n.child, base, n.count, [&](std::size_t i) { return n.displs_bytes[i]; },
                [&](std::size_t i) { return n.blocklengths[i]; }, b);
            break;
        case TypeClass::Struct:
            for (std::size_t i = 0; i < n.children.size(); ++i) {
                emit_child_instances(n.children[i], base + n.displs_bytes[i], n.blocklengths[i],
                                     b);
            }
            break;
        case TypeClass::Subarray:
            // Subarray is lowered to an Hvector nest wrapped in Resized at
            // construction; the node keeps the nest as its child.
            emit_blocks(n.child, base, b);
            break;
        case TypeClass::Resized:
            emit_blocks(n.child, base, b);
            break;
    }
}

void finish_layout(TypeNode& n) {
    // size, lb, ub and contiguity derived from the emitted structure. We
    // compute lb/ub analytically per class below; callers have already set
    // size/lb/ub. Here we only derive the contiguity flag.
    n.contiguous = (n.lb == 0) && (static_cast<std::ptrdiff_t>(n.size) == n.extent());
    if (n.contiguous) {
        // Sizes match, but the data must also be one dense run. Cheap
        // structural checks cover the common cases; anything uncertain is
        // resolved precisely via flatten at first use.
        switch (n.cls) {
            case TypeClass::Builtin:
                break;
            case TypeClass::Contiguous:
                n.contiguous = n.child.is_contiguous();
                break;
            default:
                // Conservative: size==extent composite types are almost
                // always dense, and FlatType::contiguous() is the precise
                // answer where it matters (the engines use flat()).
                break;
        }
    }
}

}  // namespace

}  // namespace detail

using detail::TypeNode;

// ---------------------------------------------------------------------------
// accessors

struct DatatypeAccess {
    static const TypeNode& node(const Datatype& t) {
        NNCOMM_CHECK_MSG(t.valid(), "null Datatype");
        return *t.node_;
    }
    static Datatype wrap(std::shared_ptr<const TypeNode> n) { return Datatype(std::move(n)); }
};

namespace detail {
namespace {
const TypeNode& node_of(const Datatype& t) { return DatatypeAccess::node(t); }
}  // namespace
}  // namespace detail

namespace {
const TypeNode* raw(const Datatype& t) { return &DatatypeAccess::node(t); }
}  // namespace

TypeClass Datatype::type_class() const { return raw(*this)->cls; }
std::size_t Datatype::size() const { return raw(*this)->size; }
std::ptrdiff_t Datatype::extent() const { return raw(*this)->extent(); }
std::ptrdiff_t Datatype::lb() const { return raw(*this)->lb; }
bool Datatype::is_contiguous() const { return raw(*this)->contiguous; }
std::size_t Datatype::block_count() const { return flat().block_count(); }

const FlatType& Datatype::flat() const {
    const TypeNode& n = *raw(*this);
    std::call_once(n.flat_once, [&] {
        BlockCounter c;
        detail::emit_blocks(*this, 0, c);
        FlatBuilder b(c.count());
        detail::emit_blocks(*this, 0, b);
        n.flat = std::make_unique<FlatType>(b.take(), n.extent(), n.lb);
    });
    return *n.flat;
}

const PackPlan& Datatype::plan(StatCounters* stats) const {
    const TypeNode& n = *raw(*this);
    std::call_once(n.plan_once, [&] { n.plan = PlanCache::instance().get(*this, stats); });
    return *n.plan;
}

// ---------------------------------------------------------------------------
// constructors

Datatype Datatype::builtin(std::size_t size, std::string name) {
    NNCOMM_CHECK_MSG(size > 0, "builtin type must have nonzero size");
    auto n = detail::new_node(TypeClass::Builtin);
    n->name = std::move(name);
    n->size = size;
    n->lb = 0;
    n->ub = static_cast<std::ptrdiff_t>(size);
    n->contiguous = true;
    return DatatypeAccess::wrap(std::move(n));
}

Datatype Datatype::byte() {
    static const Datatype t = builtin(1, "byte");
    return t;
}
Datatype Datatype::chars() {
    static const Datatype t = builtin(1, "char");
    return t;
}
Datatype Datatype::int32() {
    static const Datatype t = builtin(4, "int32");
    return t;
}
Datatype Datatype::int64() {
    static const Datatype t = builtin(8, "int64");
    return t;
}
Datatype Datatype::float32() {
    static const Datatype t = builtin(4, "float32");
    return t;
}
Datatype Datatype::float64() {
    static const Datatype t = builtin(8, "float64");
    return t;
}

Datatype Datatype::contiguous(std::size_t count, const Datatype& oldtype) {
    NNCOMM_CHECK(oldtype.valid());
    auto n = detail::new_node(TypeClass::Contiguous);
    n->child = oldtype;
    n->count = count;
    n->size = count * oldtype.size();
    n->lb = (count == 0) ? 0 : oldtype.lb();
    n->ub = n->lb + static_cast<std::ptrdiff_t>(count) * oldtype.extent();
    detail::finish_layout(*n);
    return DatatypeAccess::wrap(std::move(n));
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklength, std::ptrdiff_t stride,
                          const Datatype& oldtype) {
    return hvector(count, blocklength, stride * oldtype.extent(), oldtype);
}

Datatype Datatype::hvector(std::size_t count, std::size_t blocklength,
                           std::ptrdiff_t stride_bytes, const Datatype& oldtype) {
    NNCOMM_CHECK(oldtype.valid());
    auto n = detail::new_node(TypeClass::Hvector);
    n->child = oldtype;
    n->count = count;
    n->blocklength = blocklength;
    n->stride_bytes = stride_bytes;
    n->size = count * blocklength * oldtype.size();
    if (count == 0 || blocklength == 0) {
        n->lb = 0;
        n->ub = 0;
    } else {
        const std::ptrdiff_t block_extent =
            static_cast<std::ptrdiff_t>(blocklength) * oldtype.extent();
        std::ptrdiff_t lo = 0, hi = 0;
        for (std::size_t i : {std::size_t{0}, count - 1}) {
            const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(i) * stride_bytes;
            lo = std::min(lo, s + oldtype.lb());
            hi = std::max(hi, s + oldtype.lb() + block_extent);
        }
        n->lb = lo;
        n->ub = hi;
    }
    detail::finish_layout(*n);
    return DatatypeAccess::wrap(std::move(n));
}

namespace {
// Fills an indexed-family node's byte displacements (displacements[i] *
// unit) and, in the same pass, its size and bounds; block i holds `len(i)`
// child instances. Empty blocks add no bounds (MPI ignores them for
// lb/ub). The child's properties are read once, outside the loop.
template <class Len>
void fill_indexed(TypeNode& n, std::span<const std::ptrdiff_t> displacements,
                  std::ptrdiff_t unit, Len len) {
    const std::size_t csize = n.child.size();
    const std::ptrdiff_t clb = n.child.lb();
    const std::ptrdiff_t cext = n.child.extent();
    n.count = displacements.size();
    n.displs_bytes.reserve(n.count);
    std::size_t total = 0;
    std::ptrdiff_t lo = PTRDIFF_MAX, hi = PTRDIFF_MIN;
    for (std::size_t i = 0; i < n.count; ++i) {
        const std::ptrdiff_t d = displacements[i] * unit;
        n.displs_bytes.push_back(d);
        const std::size_t bl = len(i);
        if (bl == 0) continue;
        total += bl;
        lo = std::min(lo, d + clb);
        hi = std::max(hi, d + clb + static_cast<std::ptrdiff_t>(bl) * cext);
    }
    n.size = total * csize;
    n.lb = total == 0 ? 0 : lo;
    n.ub = total == 0 ? 0 : hi;
    detail::finish_layout(n);
}

Datatype make_indexed(TypeClass cls, std::span<const std::size_t> blocklengths,
                      std::span<const std::ptrdiff_t> displacements, std::ptrdiff_t unit,
                      const Datatype& oldtype) {
    NNCOMM_CHECK(oldtype.valid());
    NNCOMM_CHECK_MSG(blocklengths.size() == displacements.size(),
                     "indexed: blocklengths/displacements length mismatch");
    auto n = detail::new_node(cls);
    n->child = oldtype;
    n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
    fill_indexed(*n, displacements, unit, [&](std::size_t i) { return blocklengths[i]; });
    return DatatypeAccess::wrap(std::move(n));
}
}  // namespace

Datatype Datatype::indexed(std::span<const std::size_t> blocklengths,
                           std::span<const std::ptrdiff_t> displacements,
                           const Datatype& oldtype) {
    return make_indexed(TypeClass::Indexed, blocklengths, displacements, oldtype.extent(),
                        oldtype);
}

Datatype Datatype::hindexed(std::span<const std::size_t> blocklengths,
                            std::span<const std::ptrdiff_t> displacements_bytes,
                            const Datatype& oldtype) {
    return make_indexed(TypeClass::Hindexed, blocklengths, displacements_bytes, 1, oldtype);
}

Datatype Datatype::indexed_block(std::size_t blocklength,
                                 std::span<const std::ptrdiff_t> displacements,
                                 const Datatype& oldtype) {
    // One blocklength for every block: the node stores it once, next to the
    // byte displacements, instead of an n-long blocklength vector.
    NNCOMM_CHECK(oldtype.valid());
    auto n = detail::new_node(TypeClass::IndexedBlock);
    n->child = oldtype;
    n->blocklength = blocklength;
    fill_indexed(*n, displacements, oldtype.extent(), [=](std::size_t) { return blocklength; });
    return DatatypeAccess::wrap(std::move(n));
}

Datatype Datatype::struct_type(std::span<const std::size_t> blocklengths,
                               std::span<const std::ptrdiff_t> displacements_bytes,
                               std::span<const Datatype> types) {
    NNCOMM_CHECK_MSG(blocklengths.size() == displacements_bytes.size() &&
                         blocklengths.size() == types.size(),
                     "struct_type: argument length mismatch");
    auto n = detail::new_node(TypeClass::Struct);
    n->children.assign(types.begin(), types.end());
    n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
    n->displs_bytes.assign(displacements_bytes.begin(), displacements_bytes.end());
    n->count = n->children.size();
    std::size_t total = 0;
    std::ptrdiff_t lo = 0, hi = 0;
    bool first = true;
    for (std::size_t i = 0; i < n->count; ++i) {
        NNCOMM_CHECK(n->children[i].valid());
        total += n->blocklengths[i] * n->children[i].size();
        if (n->blocklengths[i] == 0) continue;
        const std::ptrdiff_t b0 = n->displs_bytes[i] + n->children[i].lb();
        const std::ptrdiff_t b1 =
            b0 + static_cast<std::ptrdiff_t>(n->blocklengths[i]) * n->children[i].extent();
        if (first) {
            lo = b0;
            hi = b1;
            first = false;
        } else {
            lo = std::min(lo, b0);
            hi = std::max(hi, b1);
        }
    }
    n->size = total;
    n->lb = first ? 0 : lo;
    n->ub = first ? 0 : hi;
    detail::finish_layout(*n);
    return DatatypeAccess::wrap(std::move(n));
}

Datatype Datatype::subarray(std::span<const std::size_t> sizes,
                            std::span<const std::size_t> subsizes,
                            std::span<const std::size_t> starts, const Datatype& oldtype) {
    const std::size_t nd = sizes.size();
    NNCOMM_CHECK_MSG(nd > 0 && subsizes.size() == nd && starts.size() == nd,
                     "subarray: dimension mismatch");
    for (std::size_t d = 0; d < nd; ++d) {
        NNCOMM_CHECK_MSG(subsizes[d] >= 1 && starts[d] + subsizes[d] <= sizes[d],
                         "subarray: region out of bounds");
    }
    // Row-major (C order): dimension nd-1 is fastest varying. Build the
    // nest from the innermost dimension outward, then displace by the
    // start offsets and resize to the full array extent.
    const std::ptrdiff_t elem_ext = oldtype.extent();
    Datatype t = contiguous(subsizes[nd - 1], oldtype);
    std::ptrdiff_t row_bytes = elem_ext;  // bytes per step in dim d
    for (std::size_t d = nd - 1; d-- > 0;) {
        row_bytes *= static_cast<std::ptrdiff_t>(sizes[d + 1]);
        t = hvector(subsizes[d], 1, row_bytes, t);
    }
    // Offset of the region's first element.
    std::ptrdiff_t offset = 0;
    std::ptrdiff_t dim_stride = elem_ext;
    for (std::size_t d = nd; d-- > 0;) {
        offset += static_cast<std::ptrdiff_t>(starts[d]) * dim_stride;
        dim_stride *= static_cast<std::ptrdiff_t>(sizes[d]);
    }
    const std::size_t one = 1;
    Datatype displaced = hindexed(std::span<const std::size_t>(&one, 1),
                                  std::span<const std::ptrdiff_t>(&offset, 1), t);
    std::ptrdiff_t full_extent = elem_ext;
    for (std::size_t d = 0; d < nd; ++d) full_extent *= static_cast<std::ptrdiff_t>(sizes[d]);
    Datatype lowered = resized(displaced, 0, full_extent);

    auto n = detail::new_node(TypeClass::Subarray);
    n->child = lowered;
    n->size = lowered.size();
    n->lb = lowered.lb();
    n->ub = n->lb + lowered.extent();
    detail::finish_layout(*n);
    return DatatypeAccess::wrap(std::move(n));
}

Datatype Datatype::resized(const Datatype& oldtype, std::ptrdiff_t lb, std::ptrdiff_t extent) {
    NNCOMM_CHECK(oldtype.valid());
    auto n = detail::new_node(TypeClass::Resized);
    n->child = oldtype;
    n->size = oldtype.size();
    n->lb = lb;
    n->ub = lb + extent;
    detail::finish_layout(*n);
    return DatatypeAccess::wrap(std::move(n));
}

std::string Datatype::describe() const {
    const TypeNode& n = *raw(*this);
    std::ostringstream os;
    switch (n.cls) {
        case TypeClass::Builtin:
            os << n.name;
            break;
        case TypeClass::Contiguous:
            os << "contig(" << n.count << ", " << n.child.describe() << ")";
            break;
        case TypeClass::Vector:
        case TypeClass::Hvector:
            os << "hvector(" << n.count << ", bl=" << n.blocklength << ", stride="
               << n.stride_bytes << "B, " << n.child.describe() << ")";
            break;
        case TypeClass::Indexed:
        case TypeClass::Hindexed:
        case TypeClass::IndexedBlock:
            os << "indexed(" << n.count << " blocks, " << n.child.describe() << ")";
            break;
        case TypeClass::Struct: {
            os << "struct(" << n.count << " fields)";
            break;
        }
        case TypeClass::Subarray:
            os << "subarray[" << n.child.describe() << "]";
            break;
        case TypeClass::Resized:
            os << "resized(lb=" << n.lb << ", extent=" << n.extent() << ", "
               << n.child.describe() << ")";
            break;
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// FlatType

FlatType::FlatType(std::vector<FlatBlock> blocks, std::ptrdiff_t extent, std::ptrdiff_t lb)
    : blocks_(std::move(blocks)), extent_(extent), lb_(lb) {
    prefix_.reserve(blocks_.size() + 1);
    prefix_.push_back(0);
    max_block_ = 0;
    min_block_ = blocks_.empty() ? 0 : blocks_.front().length;
    bool first = true;
    for (const FlatBlock& b : blocks_) {
        size_ += b.length;
        prefix_.push_back(prefix_.back() + b.length);
        max_block_ = std::max(max_block_, b.length);
        min_block_ = std::min(min_block_, b.length);
        const std::ptrdiff_t end = b.offset + static_cast<std::ptrdiff_t>(b.length);
        if (first) {
            data_lb_ = b.offset;
            data_ub_ = end;
            first = false;
        } else {
            data_lb_ = std::min(data_lb_, b.offset);
            data_ub_ = std::max(data_ub_, end);
        }
    }
}

}  // namespace nncomm::dt

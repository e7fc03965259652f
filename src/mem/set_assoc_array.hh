/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Reused by the L2 caches (payload = LineState) and by the address-only
 * predictor structures (payload = empty). Addresses are line addresses;
 * the array derives the set index from the line index bits.
 *
 * Tags and metadata live in two parallel arrays indexed by one way
 * number. The tag array holds one Addr per way and is 64-byte aligned,
 * so an 8-way set's tags fill exactly one cache line; kInvalidAddr
 * marks an invalid way (lineAddr() never produces it), so a probe
 * compares tags only. The metadata array holds the recency rank and
 * the payload: 2 B per way for a LineState, 1 B for an empty payload.
 * A probe reads it only on a hit that touches; insert and erase read
 * and write it.
 *
 * Recency is an 8-bit rank per way, kept dense among the set's valid
 * ways: with k valid ways the ranks are exactly 0..k-1, 0 the least
 * recently used. That orders the valid ways just as a global use stamp
 * would, so the victim -- the first invalid way, else rank 0 -- is the
 * same. Invalid ways hold rank 0 and are never ranked above a valid
 * way. Every change of a way's validity therefore goes through insert()
 * or erase*(), which keep the ranks dense.
 */

#ifndef FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH
#define FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Result of an insertion: where the line landed and what was evicted.
 */
template <typename Payload>
struct InsertResult
{
    bool evicted = false;   ///< a valid victim was displaced
    Addr evictedAddr = kInvalidAddr;
    Payload evictedPayload{};
};

/** std::vector allocator whose blocks start on a 64-byte cache line. */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }

    friend bool
    operator==(const CacheLineAllocator &, const CacheLineAllocator &)
    {
        return true;
    }
};

template <typename Payload>
class SetAssocArray
{
  public:
    /** Per-way metadata, parallel to the tag array. */
    struct Meta
    {
        /** Recency among the set's valid ways: 0 = LRU, k-1 = MRU.
         *  Always 0 while invalid. */
        std::uint8_t rank = 0;
        [[no_unique_address]] Payload data{};
    };

    /** Largest associativity an 8-bit rank can order. */
    static constexpr std::size_t kMaxWays = 256;

    /** Way number find() returns on a miss. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /**
     * @param num_entries total entries (must be a multiple of @p ways)
     * @param ways        associativity, at most kMaxWays
     */
    SetAssocArray(std::size_t num_entries, std::size_t ways)
        : _ways(ways), _sets(num_entries / ways),
          _tags(num_entries, kInvalidAddr), _meta(num_entries)
    {
        assert(ways > 0 && ways <= kMaxWays);
        assert(num_entries % ways == 0);
        assert(_sets > 0);
    }

    std::size_t numEntries() const { return _tags.size(); }
    std::size_t numSets() const { return _sets; }
    std::size_t associativity() const { return _ways; }

    /** Number of currently valid entries (O(n); for stats/tests). */
    std::size_t
    occupancy() const
    {
        return _tags.size() -
               static_cast<std::size_t>(
                   std::count(_tags.begin(), _tags.end(), kInvalidAddr));
    }

    /** Set index for a line address. */
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>(lineIndex(line)) % _sets;
    }

    /**
     * Look up @p line; returns its way number or kNoWay. Updates LRU
     * when @p touch is true.
     */
    std::size_t
    find(Addr line, bool touch = true)
    {
        line = lineAddr(line);
        return findInSet(setIndex(line), line, touch);
    }

    std::size_t
    find(Addr line) const
    {
        return const_cast<SetAssocArray *>(this)->find(line, false);
    }

    /** True when @p line is resident; never touches LRU. */
    bool contains(Addr line) const { return find(line) != kNoWay; }

    /**
     * find() with the set index already known — the snoop hot path
     * carries it in the message's probe signature (geometry is uniform
     * across all L2s of the machine, so one index serves every node).
     * @p line must already be a line address.
     */
    std::size_t
    findInSet(std::size_t set, Addr line, bool touch = true)
    {
        assert(line == lineAddr(line) && set == setIndex(line));
        const std::size_t base = set * _ways;
        const Addr *const tags = &_tags[base];
        for (std::size_t i = 0; i < _ways; ++i) {
            if (tags[i] == line) {
                if (touch)
                    promote(base, i);
                return base + i;
            }
        }
        return kNoWay;
    }

    std::size_t
    findInSet(std::size_t set, Addr line) const
    {
        return const_cast<SetAssocArray *>(this)->findInSet(set, line,
                                                            false);
    }

    /** Line address held by @p way (kInvalidAddr while invalid). */
    const Addr &tag(std::size_t way) const { return _tags[way]; }

    /** Payload of the valid @p way, as returned by find(). */
    Payload &data(std::size_t way) { return _meta[way].data; }
    const Payload &data(std::size_t way) const { return _meta[way].data; }

    /**
     * Insert @p line with @p data, evicting the LRU way if the set is
     * full. If the line is already present its payload is overwritten.
     */
    InsertResult<Payload>
    insert(Addr line, Payload data = Payload{})
    {
        line = lineAddr(line);
        InsertResult<Payload> result;
        const std::size_t base = setIndex(line) * _ways;
        const Addr *const tags = &_tags[base];
        const Meta *const meta = &_meta[base];
        // One pass finds a hit, else the first invalid way, else the
        // LRU way (rank 0, unique in a full set). A set with an invalid
        // way holds k < _ways valid ways ranked 0..k-1, so a newcomer
        // there takes rank k and no other rank moves.
        std::size_t hit = _ways;
        std::size_t vacant = _ways;
        std::size_t lru = 0;
        unsigned valid = 0;
        for (std::size_t i = _ways; i-- > 0;) {
            const bool is_valid = tags[i] != kInvalidAddr;
            hit = tags[i] == line ? i : hit;
            vacant = is_valid ? vacant : i;
            lru = meta[i].rank == 0 ? i : lru;
            valid += is_valid;
        }
        if (hit != _ways) {
            promote(base, hit);
            _meta[base + hit].data = std::move(data);
            return result;
        }
        if (vacant != _ways) {
            _tags[base + vacant] = line;
            Meta &m = _meta[base + vacant];
            m.rank = static_cast<std::uint8_t>(valid);
            m.data = std::move(data);
            return result;
        }
        result.evicted = true;
        result.evictedAddr = _tags[base + lru];
        result.evictedPayload = std::move(_meta[base + lru].data);
        _tags[base + lru] = line;
        _meta[base + lru].data = std::move(data);
        promote(base, lru);
        return result;
    }

    /** Remove @p line if present; @return true if it was there. */
    bool
    erase(Addr line)
    {
        const std::size_t way = find(line, false);
        if (way == kNoWay)
            return false;
        eraseWay(way);
        return true;
    }

    /**
     * Invalidate the valid @p way (as returned by find()), closing the
     * gap it leaves in its set's ranks.
     */
    void
    eraseWay(std::size_t way)
    {
        assert(way < _tags.size() && _tags[way] != kInvalidAddr);
        const std::size_t base = way - way % _ways;
        const unsigned rank = _meta[way].rank;
        for (Meta *m = &_meta[base], *end = m + _ways; m != end; ++m)
            m->rank = static_cast<std::uint8_t>(m->rank - (m->rank > rank));
        _tags[way] = kInvalidAddr;
        _meta[way] = Meta{};
    }

    /** Invalidate every entry. */
    void
    clear()
    {
        std::fill(_tags.begin(), _tags.end(), kInvalidAddr);
        std::fill(_meta.begin(), _meta.end(), Meta{});
    }

    /** Visit every valid way (tag, payload ref). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i] != kInvalidAddr)
                fn(_tags[i], _meta[i].data);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i] != kInvalidAddr)
                fn(_tags[i], _meta[i].data);
        }
    }

  private:
    /** Make way @p hit of the set at @p base its MRU: every way ranked
     *  above it (valid, since invalid ways hold 0) moves down one, and
     *  it takes the top rank. Branch-free, and the bound is read once:
     *  the byte stores could otherwise alias _ways. */
    void
    promote(std::size_t base, std::size_t hit)
    {
        Meta *const meta = &_meta[base];
        const unsigned rank = meta[hit].rank;
        unsigned above = 0;
        for (Meta *m = meta, *end = meta + _ways; m != end; ++m) {
            const unsigned higher = m->rank > rank;
            m->rank = static_cast<std::uint8_t>(m->rank - higher);
            above += higher;
        }
        meta[hit].rank = static_cast<std::uint8_t>(rank + above);
    }

    std::size_t _ways;
    std::size_t _sets;
    std::vector<Addr, CacheLineAllocator<Addr>> _tags;
    std::vector<Meta> _meta;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH

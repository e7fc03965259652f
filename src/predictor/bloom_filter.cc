#include "predictor/bloom_filter.hh"

#include <algorithm>
#include <cassert>

namespace flexsnoop
{

CountingBloomFilter::CountingBloomFilter(std::vector<unsigned> field_bits)
{
    assert(!field_bits.empty());
    assert(field_bits.size() <= kMaxFields);
    // Each field's bitmap region starts on a 64-byte cache line so one
    // field's query touches exactly one line.
    constexpr std::uint32_t kLineBits = 512;
    unsigned shift = 0;
    std::uint32_t entry_base = 0;
    std::uint32_t counter_base = 0;
    for (unsigned bits : field_bits) {
        assert(bits >= 1 && bits <= 20);
        FieldGeom &g = _geom[_numFields++];
        g.shift = shift;
        g.bits = bits;
        g.mask = (std::uint32_t{1} << bits) - 1;
        g.entryBase = entry_base;
        g.counterBase = counter_base;
        const std::uint32_t entries = std::uint32_t{1} << bits;
        entry_base += (entries + kLineBits - 1) / kLineBits * kLineBits;
        counter_base += entries;
        shift += bits;
    }
    _bitmap.assign(entry_base / 64, 0);
    _counters.assign(counter_base, 0);
}

void
CountingBloomFilter::insert(Addr line)
{
    std::uint32_t entry[kMaxFields];
    fieldEntries(line, entry);
    for (unsigned f = 0; f < _numFields; ++f) {
        const FieldGeom &g = _geom[f];
        std::uint16_t &c =
            _counters[g.counterBase + (entry[f] - g.entryBase)];
        // A saturated counter is pinned: its true count is unknowable,
        // so it stays at the ceiling (and its zero bit stays set).
        if (c != kCounterMax && ++c == 1)
            setBit(entry[f]);
        assert(bitAt(entry[f]) == (c != 0));
    }
    ++_population;
}

void
CountingBloomFilter::remove(Addr line)
{
    std::uint32_t entry[kMaxFields];
    fieldEntries(line, entry);
    for (unsigned f = 0; f < _numFields; ++f) {
        const FieldGeom &g = _geom[f];
        std::uint16_t &c =
            _counters[g.counterBase + (entry[f] - g.entryBase)];
        assert(c > 0 && "bloom counter underflow: unbalanced remove");
        // Release builds clamp instead of wrapping to 0xFFFF (which
        // would silently poison the whole entry); saturated counters
        // stay pinned — decrementing one could create false negatives.
        if (c == 0 || c == kCounterMax)
            continue;
        if (--c == 0)
            clearBit(entry[f]);
        assert(bitAt(entry[f]) == (c != 0));
    }
    assert(_population > 0);
    if (_population)
        --_population;
}

std::uint64_t
CountingBloomFilter::storageBits() const
{
    // Real entries only — the cache-line padding between bitmap regions
    // is a host-side layout artifact, not modeled hardware.
    return std::uint64_t{_counters.size()} *
           17; // 16-bit counter + zero bit (paper Table 4)
}

void
CountingBloomFilter::clear()
{
    std::fill(_bitmap.begin(), _bitmap.end(), 0);
    std::fill(_counters.begin(), _counters.end(), 0);
    _population = 0;
}

bool
CountingBloomFilter::crossCheckConsistent() const
{
    for (unsigned f = 0; f < _numFields; ++f) {
        const FieldGeom &g = _geom[f];
        for (std::uint32_t i = 0; i <= g.mask; ++i) {
            if (bitAt(g.entryBase + i) != (_counters[g.counterBase + i] != 0))
                return false;
        }
    }
    return true;
}

} // namespace flexsnoop

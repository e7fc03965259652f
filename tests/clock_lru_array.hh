/**
 * @file
 * Reference set-associative array for differential tests.
 *
 * This is the original SetAssocArray replacement scheme: every way
 * carries a 64-bit stamp from one array-wide use clock, and the victim
 * is the first invalid way, else the way with the smallest stamp. The
 * simulator's SetAssocArray keeps an 8-bit dense rank instead; the two
 * must choose identical victims on every operation sequence.
 */

#ifndef FLEXSNOOP_TESTS_CLOCK_LRU_ARRAY_HH
#define FLEXSNOOP_TESTS_CLOCK_LRU_ARRAY_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/set_assoc_array.hh"
#include "sim/types.hh"

namespace flexsnoop
{

template <typename Payload>
class ClockLruArray
{
  public:
    struct Way
    {
        Addr tag = kInvalidAddr;
        bool valid = false;
        std::uint64_t lru = 0; ///< larger = more recently used
        Payload data{};
    };

    ClockLruArray(std::size_t num_entries, std::size_t ways)
        : _ways(ways), _sets(num_entries / ways), _array(num_entries)
    {
        assert(num_entries % ways == 0 && _sets > 0);
    }

    Way *
    lookup(Addr line, bool touch)
    {
        line = lineAddr(line);
        const std::size_t base = setIndex(line) * _ways;
        for (std::size_t i = 0; i < _ways; ++i) {
            Way &w = _array[base + i];
            if (w.valid && w.tag == line) {
                if (touch)
                    w.lru = ++_clock;
                return &w;
            }
        }
        return nullptr;
    }

    InsertResult<Payload>
    insert(Addr line, Payload data)
    {
        line = lineAddr(line);
        InsertResult<Payload> result;
        if (Way *hit = lookup(line, true)) {
            hit->data = std::move(data);
            return result;
        }
        const std::size_t base = setIndex(line) * _ways;
        Way *victim = &_array[base];
        for (std::size_t i = 0; i < _ways; ++i) {
            Way &w = _array[base + i];
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (w.lru < victim->lru)
                victim = &w;
        }
        if (victim->valid) {
            result.evicted = true;
            result.evictedAddr = victim->tag;
            result.evictedPayload = std::move(victim->data);
        }
        victim->tag = line;
        victim->valid = true;
        victim->lru = ++_clock;
        victim->data = std::move(data);
        return result;
    }

    bool
    erase(Addr line)
    {
        if (Way *w = lookup(line, false)) {
            w->valid = false;
            w->tag = kInvalidAddr;
            w->data = Payload{};
            return true;
        }
        return false;
    }

    void
    clear()
    {
        for (auto &w : _array) {
            w.valid = false;
            w.tag = kInvalidAddr;
            w.data = Payload{};
        }
    }

    /** Visit every valid way in array order (tag, payload). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &w : _array) {
            if (w.valid)
                fn(w.tag, w.data);
        }
    }

  private:
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>(lineIndex(line)) % _sets;
    }

    std::size_t _ways;
    std::size_t _sets;
    std::vector<Way> _array;
    std::uint64_t _clock = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_TESTS_CLOCK_LRU_ARRAY_HH

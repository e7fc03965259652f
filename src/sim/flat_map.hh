/**
 * @file
 * Open-addressing hash map over 64-bit keys.
 *
 * Replaces std::unordered_map on the coherence controller's hot paths
 * (transactions by id, per-node pendings by txn, outstanding lines).
 * Linear probing over a power-of-two table with one control byte per
 * slot; the only allocations are table growth, so a map that has
 * reached its high-water mark allocates nothing in steady state —
 * unlike unordered_map, which allocates a node per insert.
 *
 * Values are expected to be small and trivially movable (pointers,
 * ids). Erase uses backward-shift deletion: the entries after the
 * erased slot that probed past it slide back, so no tombstones exist,
 * every probe chain ends at a truly empty slot, and the table grows
 * only with the live high-water mark, never with the number of
 * inserts a run has churned through.
 */

#ifndef FLEXSNOOP_SIM_FLAT_MAP_HH
#define FLEXSNOOP_SIM_FLAT_MAP_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexsnoop
{

template <typename V>
class FlatMap
{
  public:
    explicit FlatMap(std::size_t initial_capacity = 16)
    {
        std::size_t cap = 8;
        while (cap < initial_capacity)
            cap *= 2;
        _ctrl.assign(cap, kEmpty);
        _keys.resize(cap);
        _values.resize(cap);
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    /** Slots in the table (power of two; tracks the live high-water
     *  mark). */
    std::size_t capacity() const { return _ctrl.size(); }

    /** Pointer to the value for @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = findSlot(key);
        return i == kNotFound ? nullptr : &_values[i];
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t i = findSlot(key);
        return i == kNotFound ? nullptr : &_values[i];
    }

    bool contains(std::uint64_t key) const
    {
        return findSlot(key) != kNotFound;
    }

    /** Insert or overwrite. */
    void
    put(std::uint64_t key, V value)
    {
        getOrCreate(key) = std::move(value);
    }

    /**
     * Reference to the value for @p key, default-constructing it (and
     * the mapping) if absent.
     */
    V &
    getOrCreate(std::uint64_t key)
    {
        if (V *v = find(key))
            return *v;
        maybeGrow();
        std::size_t i = hash(key) & (_ctrl.size() - 1);
        while (_ctrl[i] == kFull)
            i = (i + 1) & (_ctrl.size() - 1);
        _ctrl[i] = kFull;
        _keys[i] = key;
        _values[i] = V{};
        ++_size;
        return _values[i];
    }

    /** @return true when a mapping was removed. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = findSlot(key);
        if (hole == kNotFound)
            return false;
        // Backward shift: walk the rest of the probe run and pull back
        // every entry whose home slot does not lie cyclically in
        // (hole, j] -- i.e. whose probe passed over the hole.
        const std::size_t mask = _ctrl.size() - 1;
        for (std::size_t j = (hole + 1) & mask; _ctrl[j] == kFull;
             j = (j + 1) & mask) {
            const std::size_t home = hash(_keys[j]) & mask;
            if (((j - home) & mask) < ((j - hole) & mask))
                continue;
            _keys[hole] = _keys[j];
            _values[hole] = std::move(_values[j]);
            hole = j;
        }
        _ctrl[hole] = kEmpty;
        _values[hole] = V{};
        --_size;
        return true;
    }

    /** Drop every mapping; capacity is retained. */
    void
    clear()
    {
        _ctrl.assign(_ctrl.size(), kEmpty);
        _size = 0;
    }

    /** Visit every (key, value) pair; iteration order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _ctrl.size(); ++i) {
            if (_ctrl[i] == kFull)
                fn(_keys[i], _values[i]);
        }
    }

  private:
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    /** splitmix64 finalizer: cheap and well-distributed for ids and
     *  line addresses (which share low-entropy low bits). */
    static std::size_t
    hash(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    std::size_t
    findSlot(std::uint64_t key) const
    {
        const std::size_t mask = _ctrl.size() - 1;
        std::size_t i = hash(key) & mask;
        while (_ctrl[i] == kFull) {
            if (_keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNotFound;
    }

    void
    maybeGrow()
    {
        if ((_size + 1) * 10 < _ctrl.size() * 7)
            return;
        std::vector<std::uint8_t> old_ctrl = std::move(_ctrl);
        std::vector<std::uint64_t> old_keys = std::move(_keys);
        std::vector<V> old_values = std::move(_values);
        const std::size_t cap = old_ctrl.size() * 2;
        _ctrl.assign(cap, kEmpty);
        _keys.resize(cap);
        _values.resize(cap);
        _size = 0;
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t j = hash(old_keys[i]) & (cap - 1);
            while (_ctrl[j] == kFull)
                j = (j + 1) & (cap - 1);
            _ctrl[j] = kFull;
            _keys[j] = old_keys[i];
            _values[j] = std::move(old_values[i]);
            ++_size;
        }
    }

    std::vector<std::uint8_t> _ctrl;
    std::vector<std::uint64_t> _keys;
    std::vector<V> _values;
    std::size_t _size = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_FLAT_MAP_HH

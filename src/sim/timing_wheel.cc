#include "sim/timing_wheel.hh"

#include <bit>
#include <cassert>
#include <utility>

namespace flexsnoop
{
namespace
{

constexpr std::size_t kNotFound = ~std::size_t{0};

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

TimingWheel::TimingWheel(std::size_t near_buckets)
{
    configure(near_buckets);
    for (auto &map : _overMap)
        map.assign(kOverflowSlots / 64, 0);
}

void
TimingWheel::configure(std::size_t near_buckets)
{
    assert(_size == 0 && "wheel must be empty to resize");
    std::size_t n = roundUpPow2(near_buckets);
    if (n < kMinNearBuckets)
        n = kMinNearBuckets;
    if (n > kMaxNearBuckets)
        n = kMaxNearBuckets;
    _nearSize = n;
    _nearMask = n - 1;
    _nearBits = static_cast<unsigned>(std::countr_zero(n));
    _near.assign(n, Bucket{});
    _nearMap.assign(n / 64, 0);
    _w0 = 0;
    _curSlot = 0;
    _scan.fill(kOverflowSlots);
    _minValid = false;
}

void
TimingWheel::setBit(std::vector<std::uint64_t> &bm, std::size_t i)
{
    bm[i >> 6] |= std::uint64_t{1} << (i & 63);
}

void
TimingWheel::clrBit(std::vector<std::uint64_t> &bm, std::size_t i)
{
    bm[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

std::size_t
TimingWheel::scanFrom(const std::vector<std::uint64_t> &bm,
                      std::size_t from, std::size_t bits)
{
    if (from >= bits)
        return kNotFound;
    std::size_t w = from >> 6;
    std::uint64_t word = bm[w] & (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (word)
            return (w << 6) +
                   static_cast<std::size_t>(std::countr_zero(word));
        if (++w >= bm.size())
            return kNotFound;
        word = bm[w];
    }
}

void
TimingWheel::resetTo(Cycle now)
{
    _w0 = now & ~static_cast<Cycle>(_nearMask);
    _curSlot = static_cast<std::size_t>(now & _nearMask);
    // The overflow bucket containing `now` at each level can never be
    // occupied (any cycle inside it is also inside a lower level's
    // window), so scanning may safely start one past it.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l)
        _scan[l - 1] =
            static_cast<std::size_t>((now >> granShift(l)) &
                                     (kOverflowSlots - 1)) +
            1;
}

TimingWheel::Bucket &
TimingWheel::bucketAt(std::uint8_t level, std::uint16_t slot)
{
    if (level == 0)
        return _near[slot];
    if (level == kFarLevel)
        return _far;
    return _over[level - 1][slot];
}

std::uint32_t
TimingWheel::allocate(WheelEntry &&entry)
{
    if (_free != kNil) {
        const std::uint32_t idx = _free;
        Node &node = _arena[idx];
        _free = node.next;
        node.entry = std::move(entry);
        return idx;
    }
    assert(_arena.size() < kNil);
    _arena.push_back(Node{std::move(entry)});
    return static_cast<std::uint32_t>(_arena.size() - 1);
}

void
TimingWheel::insertSorted(std::uint8_t level, std::uint16_t slot,
                          std::uint32_t idx)
{
    Bucket &bucket = bucketAt(level, slot);
    if (level == 0)
        setBit(_nearMap, slot);
    else if (level != kFarLevel)
        setBit(_overMap[level - 1], slot);

    Node &node = _arena[idx];
    node.level = level;
    node.slot = slot;
    const std::uint64_t key = node.entry.seqTag;
    if (bucket.tail == kNil) {
        node.next = kNil;
        bucket.head = bucket.tail = idx;
    } else if (_arena[bucket.tail].entry.seqTag < key) {
        node.next = kNil;
        _arena[bucket.tail].next = idx;
        bucket.tail = idx;
    } else {
        // Rare: only a rescheduled (old-seq) entry lands mid-bucket.
        // The tail's seq exceeds it, so the walk stops before the end.
        std::uint32_t prev = kNil;
        std::uint32_t cur = bucket.head;
        while (_arena[cur].entry.seqTag < key) {
            prev = cur;
            cur = _arena[cur].next;
        }
        node.next = cur;
        if (prev == kNil)
            bucket.head = idx;
        else
            _arena[prev].next = idx;
    }
    if (++bucket.depth > _maxBucketDepth)
        _maxBucketDepth = bucket.depth;
}

void
TimingWheel::unlink(std::uint32_t idx)
{
    const Node &node = _arena[idx];
    Bucket &bucket = bucketAt(node.level, node.slot);
    std::uint32_t prev = kNil;
    for (std::uint32_t cur = bucket.head; cur != idx;
         cur = _arena[cur].next) {
        assert(cur != kNil && "entry not in its bucket");
        prev = cur;
    }
    if (prev == kNil)
        bucket.head = node.next;
    else
        _arena[prev].next = node.next;
    if (bucket.tail == idx)
        bucket.tail = prev;
    --bucket.depth;
    if (bucket.head != kNil)
        return;
    if (node.level == 0)
        clrBit(_nearMap, node.slot);
    else if (node.level != kFarLevel)
        clrBit(_overMap[node.level - 1], node.slot);
}

std::uint8_t
TimingWheel::place(std::uint32_t idx)
{
    const Cycle when = _arena[idx].entry.when;
    assert(when >= _w0 + _curSlot);

    if ((when >> _nearBits) == (_w0 >> _nearBits)) {
        insertSorted(0, static_cast<std::uint16_t>(when & _nearMask), idx);
        return 0;
    }
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        const unsigned g = granShift(l);
        if ((when >> (g + kOverflowBits)) ==
            (_w0 >> (g + kOverflowBits))) {
            const auto slot = static_cast<std::uint16_t>(
                (when >> g) & (kOverflowSlots - 1));
            insertSorted(static_cast<std::uint8_t>(l), slot, idx);
            return static_cast<std::uint8_t>(l);
        }
    }
    insertSorted(kFarLevel, 0, idx);
    return kFarLevel;
}

void
TimingWheel::insert(Cycle now, WheelEntry entry)
{
    assert(entry.when >= now);
    if (_size == 0) {
        resetTo(now);
        _minCached = entry.when;
        _minValid = true;
    } else if (_minValid && entry.when < _minCached) {
        _minCached = entry.when;
    }
    if (_sampleHorizon) {
        const auto w = static_cast<std::size_t>(
            std::bit_width(entry.when - now));
        ++_horizon[w < kHorizonBuckets ? w : kHorizonBuckets - 1];
    }
    const bool tagged = entry.tagged();
    const std::uint64_t seq = entry.seq();
    const std::uint32_t idx = allocate(std::move(entry));
    if (tagged)
        _tagged.put(seq, idx);
    const std::uint8_t level = place(idx);
    if (level != 0) {
        ++_overflowScheduled;
        if (level == kFarLevel)
            ++_farScheduled;
    }
    ++_size;
}

bool
TimingWheel::refillFromOverflow()
{
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        auto &map = _overMap[l - 1];
        const std::size_t s = scanFrom(map, _scan[l - 1],
                                       kOverflowSlots);
        if (s == kNotFound)
            continue;
        _scan[l - 1] = s + 1;

        const unsigned g = granShift(l);
        const Cycle cover = Cycle{1} << (g + kOverflowBits);
        const Cycle level_window = _w0 & ~(cover - 1);
        const Cycle bucket_start =
            level_window + (static_cast<Cycle>(s) << g);

        // Re-anchor every lower level at the bucket's start. The start
        // is aligned to each lower level's window size, so their fresh
        // windows begin at slot 0.
        _w0 = bucket_start;
        _curSlot = 0;
        for (std::size_t j = 1; j < l; ++j)
            _scan[j - 1] = 0;

        clrBit(map, s);
        // Entries are seq-sorted, so each target bucket receives an
        // in-order (appending) run.
        refile(std::exchange(_over[l - 1][s], Bucket{}));
        return true;
    }
    return false;
}

void
TimingWheel::redistributeFar()
{
    assert(_far.head != kNil);
    const Cycle min_when = bucketMin(_far);
    const Bucket old = std::exchange(_far, Bucket{});
    // Everything pending lives in `old`, so the wheel proper is empty
    // and may be re-anchored at the earliest far cycle. At least that
    // entry re-files into the near wheel; stragglers beyond the last
    // level return to the (fresh) far list in their original order.
    resetTo(min_when);
    refile(old);
}

void
TimingWheel::refile(const Bucket &list)
{
    ++_cascades;
    _cascadedEntries += list.depth;
    for (std::uint32_t i = list.head; i != kNil;) {
        const std::uint32_t next = _arena[i].next;
        place(i);
        i = next;
    }
}

bool
TimingWheel::advanceToPending()
{
    while (_near[_curSlot].head == kNil) {
        const std::size_t s =
            scanFrom(_nearMap, _curSlot + 1, _nearSize);
        if (s != kNotFound) {
            _curSlot = s;
            continue;
        }
        if (refillFromOverflow())
            continue;
        if (_far.head == kNil)
            return false;
        redistributeFar();
    }
    return true;
}

WheelEntry
TimingWheel::pop()
{
    assert(_size > 0);
    const bool ok = advanceToPending();
    assert(ok);
    (void)ok;

    Bucket &bucket = _near[_curSlot];
    const std::uint32_t idx = bucket.head;
    Node &node = _arena[idx];
    WheelEntry entry = std::move(node.entry);
    assert(entry.when == _w0 + _curSlot);
    bucket.head = node.next;
    --bucket.depth;
    node.next = _free;
    _free = idx;
    --_size;
    if (entry.tagged())
        _tagged.erase(entry.seq());
    if (bucket.head != kNil) {
        _minCached = entry.when;
        _minValid = true;
    } else {
        // An empty bucket never keeps its occupancy bit, so an empty
        // wheel is also structurally empty (resetTo() and re-anchoring
        // rely on it).
        bucket.tail = kNil;
        clrBit(_nearMap, _curSlot);
        _minValid = false;
    }
    return entry;
}

Cycle
TimingWheel::minPending() const
{
    assert(_size > 0);
    if (!_minValid) {
        _minCached = recomputeMin();
        _minValid = true;
    }
    return _minCached;
}

Cycle
TimingWheel::bucketMin(const Bucket &bucket) const
{
    assert(bucket.head != kNil);
    Cycle min_when = _arena[bucket.head].entry.when;
    for (std::uint32_t i = bucket.head; i != kNil; i = _arena[i].next) {
        const Cycle when = _arena[i].entry.when;
        min_when = when < min_when ? when : min_when;
    }
    return min_when;
}

Cycle
TimingWheel::recomputeMin() const
{
    // The current near bucket, if it still holds entries, is by
    // construction the earliest cycle.
    if (_near[_curSlot].head != kNil)
        return _w0 + _curSlot;
    std::size_t s = scanFrom(_nearMap, _curSlot + 1, _nearSize);
    if (s != kNotFound)
        return _w0 + s;
    // A non-empty bucket at level L starts at or after the end of every
    // occupied window below it, so the first occupied level wins; its
    // bucket spans a cycle range and must be scanned for the minimum.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        s = scanFrom(_overMap[l - 1], _scan[l - 1], kOverflowSlots);
        if (s != kNotFound)
            return bucketMin(_over[l - 1][s]);
    }
    return bucketMin(_far);
}

bool
TimingWheel::reschedule(std::uint64_t seq, Cycle now, Cycle when,
                        EventFn fn)
{
    const std::uint32_t *slot = _tagged.find(seq);
    if (!slot)
        return false;
    const std::uint32_t idx = *slot;
    assert(_arena[idx].entry.seq() == seq && _arena[idx].entry.tagged());
    unlink(idx);

    WheelEntry &entry = _arena[idx].entry;
    entry.when = when;
    entry.fn = std::move(fn);
    if (_size == 1) {
        // The wheel is structurally empty now; re-anchor tight.
        resetTo(now);
    }
    place(idx);
    _minValid = false;
    return true;
}

void
TimingWheel::clear()
{
    _arena.clear();
    _free = kNil;
    _near.assign(_near.size(), Bucket{});
    for (auto &level : _over)
        level.fill(Bucket{});
    _far = Bucket{};
    _nearMap.assign(_nearMap.size(), 0);
    for (auto &map : _overMap)
        map.assign(map.size(), 0);
    _size = 0;
    _curSlot = 0;
    _w0 = 0;
    _scan.fill(kOverflowSlots);
    _tagged.clear();
    _minValid = false;
}

} // namespace flexsnoop

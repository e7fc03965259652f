/**
 * @file
 * Presence predictor for write-snoop filtering (the extension paper
 * §2.2/§5.3 sketches: "writes ... would need a predictor of line
 * presence, rather than one of line in supplier state").
 *
 * A counting Bloom filter tracks a superset of *all* lines cached
 * anywhere in the CMP. A write invalidation arriving at the gateway
 * consults it: a negative answer proves no copy exists, so the
 * invalidation snoop can be skipped (Forward). Like the Superset
 * supplier predictor, it must never produce false negatives, or a
 * stale copy would survive a write.
 */

#ifndef FLEXSNOOP_PREDICTOR_PRESENCE_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_PRESENCE_PREDICTOR_HH

#include <vector>

#include "predictor/bloom_filter.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

class PresencePredictor
{
  public:
    /**
     * @param field_bits Bloom filter field widths; presence sets are an
     *        order of magnitude larger than supplier sets, so the
     *        default uses wider fields than the supplier "y" filter
     */
    explicit PresencePredictor(const std::string &name,
                               std::vector<unsigned> field_bits = {12, 8,
                                                                   10},
                               Cycle latency = 2);

    /** True when the CMP *may* hold a copy of @p line. */
    bool mayBePresent(Addr line);

    /** The CMP gained its first copy of @p line. */
    void
    linePresent(Addr line)
    {
        _trains.inc();
        _filter.insert(lineAddr(line));
    }

    /** The CMP lost its last copy of @p line. */
    void
    lineAbsent(Addr line)
    {
        _removals.inc();
        _filter.remove(lineAddr(line));
    }

    Cycle accessLatency() const { return _latency; }
    std::uint64_t storageBits() const { return _filter.storageBits(); }
    std::uint64_t population() const { return _filter.population(); }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    CountingBloomFilter _filter;
    Cycle _latency;
    StatGroup _stats;
    // Cached handles: consulted on every write snoop at every gateway.
    Counter &_lookupsStat = _stats.counter("lookups");
    Counter &_filteredStat = _stats.counter("filtered");
    Counter &_trains = _stats.counter("trains");
    Counter &_removals = _stats.counter("removals");
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_PRESENCE_PREDICTOR_HH

/**
 * @file
 * Superset Supplier Predictor (paper §4.3.2): counting Bloom filter plus
 * an optional Exclude cache.
 *
 * The tracked set is a superset of the true supplier set, so negative
 * answers are guaranteed correct (no false negatives) and a node may
 * safely skip the snoop (the Forward primitive). Aliasing produces false
 * positives; the Exclude cache learns them.
 */

#ifndef FLEXSNOOP_PREDICTOR_SUPERSET_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_SUPERSET_PREDICTOR_HH

#include <memory>
#include <vector>

#include "predictor/bloom_filter.hh"
#include "predictor/exclude_cache.hh"
#include "predictor/supplier_predictor.hh"

namespace flexsnoop
{

class SupersetPredictor : public SupplierPredictor
{
  public:
    /**
     * @param field_bits     Bloom filter field widths (e.g. {10,4,7})
     * @param exclude_entries Exclude cache capacity; 0 disables it
     * @param exclude_ways   Exclude cache associativity
     * @param exclude_entry_bits bits per Exclude entry for reporting
     * @param latency        lookup latency (paper: 2 cycles)
     */
    SupersetPredictor(const std::string &name,
                      std::vector<unsigned> field_bits,
                      std::size_t exclude_entries, std::size_t exclude_ways,
                      unsigned exclude_entry_bits, Cycle latency);

    bool predict(Addr line) override;
    void supplierGained(Addr line) override;
    void supplierLost(Addr line) override;
    void falsePositive(Addr line) override;

    Cycle accessLatency() const override { return _latency; }
    bool mayFalsePositive() const override { return true; }
    bool mayFalseNegative() const override { return false; }
    std::uint64_t storageBits() const override;

    const CountingBloomFilter &filter() const { return _filter; }
    bool hasExcludeCache() const { return _exclude != nullptr; }

  private:
    CountingBloomFilter _filter;
    std::unique_ptr<ExcludeCache> _exclude;
    Cycle _latency;
    Counter &_excludeHits = _stats.counter("exclude_hits");
    Counter &_excludeInserts = _stats.counter("exclude_inserts");
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_SUPERSET_PREDICTOR_HH

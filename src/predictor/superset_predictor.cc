#include "predictor/superset_predictor.hh"

namespace flexsnoop
{

SupersetPredictor::SupersetPredictor(const std::string &name,
                                     std::vector<unsigned> field_bits,
                                     std::size_t exclude_entries,
                                     std::size_t exclude_ways,
                                     unsigned exclude_entry_bits,
                                     Cycle latency)
    : SupplierPredictor(name), _filter(std::move(field_bits)),
      _latency(latency)
{
    if (exclude_entries > 0) {
        _exclude = std::make_unique<ExcludeCache>(
            exclude_entries, exclude_ways, exclude_entry_bits);
    }
}

bool
SupersetPredictor::predict(Addr line)
{
    _lookups.inc();
    line = lineAddr(line);
    if (!_filter.mayContain(line))
        return false;
    if (_exclude && _exclude->contains(line)) {
        _excludeHits.inc();
        return false;
    }
    return true;
}

void
SupersetPredictor::supplierGained(Addr line)
{
    _trains.inc();
    line = lineAddr(line);
    _filter.insert(line);
    // The line is a supplier now; it must not be excluded, or we would
    // create a false negative (a correctness violation for Superset).
    if (_exclude)
        _exclude->remove(line);
}

void
SupersetPredictor::supplierLost(Addr line)
{
    _removals.inc();
    _filter.remove(lineAddr(line));
}

void
SupersetPredictor::falsePositive(Addr line)
{
    if (_exclude) {
        _exclude->insert(lineAddr(line));
        _excludeInserts.inc();
    }
}

std::uint64_t
SupersetPredictor::storageBits() const
{
    std::uint64_t bits = _filter.storageBits();
    if (_exclude)
        bits += _exclude->storageBits();
    return bits;
}

} // namespace flexsnoop

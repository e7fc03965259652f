#include "predictor/subset_predictor.hh"

namespace flexsnoop
{

SubsetPredictor::SubsetPredictor(const std::string &name,
                                 std::size_t entries, std::size_t ways,
                                 unsigned entry_bits, Cycle latency)
    : SupplierPredictor(name), _array(entries, ways),
      _entryBits(entry_bits), _latency(latency)
{
}

bool
SubsetPredictor::predict(Addr line)
{
    _lookups.inc();
    return _array.contains(lineAddr(line));
}

void
SubsetPredictor::supplierGained(Addr line)
{
    _trains.inc();
    const auto result = _array.insert(lineAddr(line));
    if (result.evicted)
        _stats.counter("conflict_drops").inc(); // future false negatives
}

void
SubsetPredictor::supplierLost(Addr line)
{
    // Removing on loss is what guarantees "no false positives".
    if (_array.erase(lineAddr(line)))
        _removals.inc();
}

} // namespace flexsnoop

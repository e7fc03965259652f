#include "predictor/exact_predictor.hh"

#include <cassert>

namespace flexsnoop
{

ExactPredictor::ExactPredictor(const std::string &name, std::size_t entries,
                               std::size_t ways, unsigned entry_bits,
                               Cycle latency)
    : SupplierPredictor(name), _array(entries, ways),
      _entryBits(entry_bits), _latency(latency)
{
}

bool
ExactPredictor::predict(Addr line)
{
    _lookups.inc();
    return _array.contains(lineAddr(line));
}

void
ExactPredictor::supplierGained(Addr line)
{
    _trains.inc();
    const auto result = _array.insert(lineAddr(line));
    if (result.evicted) {
        // The displaced line is still a supplier in the CMP; downgrade it
        // so the predictor's "exact" property holds.
        _stats.counter("forced_downgrades").inc();
        assert(_downgrade && "Exact predictor requires a downgrade hook");
        _downgrade(result.evictedAddr);
    }
}

void
ExactPredictor::supplierLost(Addr line)
{
    if (_array.erase(lineAddr(line)))
        _removals.inc();
}

} // namespace flexsnoop

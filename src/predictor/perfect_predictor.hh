/**
 * @file
 * Perfect Supplier Predictor: consults the CMP's actual cache state.
 *
 * Not implementable in hardware; used to model the Oracle algorithm and
 * the "perfect" bars of paper Figure 11.
 */

#ifndef FLEXSNOOP_PREDICTOR_PERFECT_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_PERFECT_PREDICTOR_HH

#include <functional>

#include "predictor/supplier_predictor.hh"

namespace flexsnoop
{

class PerfectPredictor : public SupplierPredictor
{
  public:
    /** Ground-truth query: does the CMP hold @p line in a supplier state? */
    using TruthFn = std::function<bool(Addr line)>;

    PerfectPredictor(const std::string &name, TruthFn truth)
        : SupplierPredictor(name), _truth(std::move(truth))
    {
    }

    bool
    predict(Addr line) override
    {
        _lookups.inc();
        return _truth(lineAddr(line));
    }

    void supplierGained(Addr line) override { (void)line; }
    void supplierLost(Addr line) override { (void)line; }

    Cycle accessLatency() const override { return 0; }
    bool mayFalsePositive() const override { return false; }
    bool mayFalseNegative() const override { return false; }
    std::uint64_t storageBits() const override { return 0; }

  private:
    TruthFn _truth;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_PERFECT_PREDICTOR_HH

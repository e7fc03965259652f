/**
 * @file
 * Layer drivers: each one calls a single layer's public functions in
 * isolation, on inputs taken from the workload's own run (its
 * reference stream, its event horizons, its transaction counts), and
 * returns host nanoseconds per call. They measure what the traced run
 * cannot separate from the event loop without spans inside the
 * simulator.
 */

#ifndef PERFBENCH_LAYER_DRIVERS_HH
#define PERFBENCH_LAYER_DRIVERS_HH

#include <cstddef>
#include <cstdint>

#include "core/machine_config.hh"
#include "sim/timing_wheel.hh"
#include "workload/trace.hh"

namespace perfbench
{

using namespace flexsnoop;

/**
 * EventQueue::scheduleAt + step pairs, with delays drawn from
 * @p horizon (the histogram enableHorizonHistogram records) and
 * @p standing events kept pending. @return ns per pair.
 */
double queueOpNs(const TimingWheel::HorizonHistogram &horizon,
                 std::size_t near_buckets, std::size_t standing,
                 std::uint64_t seed);

struct ChurnResult
{
    double nsPerOp = 0.0; ///< per put() or erase()
    double heapKb = 0.0;  ///< heap held by the map after the churn
};

/**
 * FlatMap churn of transaction-id keys: @p inserts increasing ids are
 * put() while at most @p live stay mapped (the oldest is erased).
 */
ChurnResult flatMapChurn(std::size_t live, std::size_t inserts);

/** L2Cache::state() on an L2 of @p cfg's geometry, filled from and
 *  then probed with the reference stream of @p traces. */
double l2ProbeNs(const CoreTraces &traces, const MachineConfig &cfg);

/**
 * predict / supplierGained / supplierLost on every distinct paper
 * predictor configuration, replaying @p traces: each reference is
 * predicted, a write makes its line a supplier, and the supplier set
 * is bounded by one L2's capacity. @return mean ns per call.
 */
double predictorCallNs(const CoreTraces &traces, const MachineConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_LAYER_DRIVERS_HH

/**
 * @file
 * Deterministic pseudo-random number generation and the distributions the
 * workload generators need (uniform, geometric-ish gaps, Zipf).
 *
 * We implement our own engine (xoshiro256**) instead of <random> engines so
 * results are bit-identical across standard libraries and platforms.
 */

#ifndef FLEXSNOOP_SIM_RANDOM_HH
#define FLEXSNOOP_SIM_RANDOM_HH

#include <cstdint>
#include <vector>

namespace flexsnoop
{

/**
 * xoshiro256** engine seeded via splitmix64.
 *
 * Fast, high-quality, and deterministic across platforms.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize the state from a single 64-bit seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial that succeeds with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

    /**
     * Geometric number of cycles with mean @p mean (>= 1).
     *
     * Used for inter-reference gaps in trace generators.
     */
    std::uint64_t nextGeometric(double mean);

  private:
    std::uint64_t _s[4];
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Precomputes the CDF once, plus a guide table that splits [0, 1) into
 * K equal buckets (K a power of two, so u·K and j/K are exact):
 * guide[j] is the first index whose CDF reaches j/K. A draw u lies in
 * bucket j = floor(u·K), so its index lies in [guide[j], guide[j+1]],
 * and sampling is a binary search of that short range. It returns the
 * index a search of the whole CDF would, for every u. Used to give
 * workload footprints realistic hot/cold skew.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     number of distinct values
     * @param theta skew (0 = uniform, ~0.99 = classic Zipf)
     */
    ZipfSampler(std::size_t n, double theta);

    /** Draw one sample in [0, n). */
    std::size_t sample(Rng &rng) const { return indexOf(rng.nextDouble()); }

    /** The first index whose CDF value is >= @p u, for u in [0, 1). */
    std::size_t indexOf(double u) const;

    std::size_t size() const { return _cdf.size(); }

    /** Cumulative probability of each index; the last one is 1. */
    const std::vector<double> &cdf() const { return _cdf; }

    /** Number of guide buckets, K. */
    std::size_t buckets() const { return _guide.size() - 1; }

  private:
    std::vector<double> _cdf;
    /** K + 1 entries; 4 B each with K < 2n, so no larger than _cdf. */
    std::vector<std::uint32_t> _guide;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_RANDOM_HH

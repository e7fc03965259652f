#include "sim/random.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace flexsnoop
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t v, int k)
{
    return (v << k) | (v >> (64 - k));
}

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : _s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
    const std::uint64_t t = _s[1] << 17;
    _s[2] ^= _s[0];
    _s[3] ^= _s[1];
    _s[1] ^= _s[2];
    _s[0] ^= _s[3];
    _s[2] ^= t;
    _s[3] = rotl(_s[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    assert(bound > 0);
    // Lemire's multiply-shift with rejection for exact uniformity.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    assert(mean >= 1.0);
    if (mean == 1.0)
        return 1;
    // Inverse-CDF of a geometric with success prob 1/mean, shifted to >= 1.
    const double p = 1.0 / mean;
    double u = nextDouble();
    if (u >= 1.0)
        u = 0.9999999999999999;
    const double val = std::log1p(-u) / std::log1p(-p);
    return 1 + static_cast<std::uint64_t>(val);
}

ZipfSampler::ZipfSampler(std::size_t n, double theta)
{
    assert(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
    _cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        _cdf[i] = sum;
    }
    for (auto &v : _cdf)
        v /= sum;
    _cdf.back() = 1.0;

    // K = bit_ceil(n) keeps the table's K + 1 four-byte entries within
    // the CDF's 8n bytes. The CDF ends at 1, so every entry is < n.
    const std::size_t buckets = std::bit_ceil(n);
    _guide.resize(buckets + 1);
    const double width = 1.0 / static_cast<double>(buckets);
    std::size_t idx = 0;
    for (std::size_t j = 0; j <= buckets; ++j) {
        const double bound = static_cast<double>(j) * width;
        while (_cdf[idx] < bound)
            ++idx;
        _guide[j] = static_cast<std::uint32_t>(idx);
    }
}

std::size_t
ZipfSampler::indexOf(double u) const
{
    assert(u >= 0.0 && u < 1.0);
    const auto j = static_cast<std::size_t>(
        u * static_cast<double>(buckets()));
    const auto first = _cdf.begin() + _guide[j];
    const auto last = _cdf.begin() + _guide[j + 1];
    return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                    _cdf.begin());
}

} // namespace flexsnoop

#include "common/random.hpp"

#include <numeric>

#include "common/log.hpp"

namespace asd
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    panicIfNot(bound > 0, "Rng::nextBelow bound must be positive");
    if ((bound & (bound - 1)) == 0) {
        // The general path without its two divisions: for a power of
        // two the limit below is 2^64 - bound and v % bound is a mask.
        const std::uint64_t limit = 0 - bound;
        std::uint64_t v = next();
        while (v >= limit)
            v = next();
        return v & (bound - 1);
    }
    // Rejection sampling over the largest multiple of bound.
    const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
    std::uint64_t v = next();
    while (v >= limit)
        v = next();
    return v % bound;
}

std::uint64_t
Rng::nextInRange(std::uint64_t lo, std::uint64_t hi)
{
    panicIfNot(lo <= hi, "Rng::nextInRange requires lo <= hi");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::array<std::uint64_t, 4>
Rng::state() const
{
    return {state_[0], state_[1], state_[2], state_[3]};
}

void
Rng::setState(const std::array<std::uint64_t, 4> &state)
{
    for (std::size_t i = 0; i < state.size(); ++i)
        state_[i] = state[i];
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    if (weights.empty())
        fatal("DiscreteSampler: empty weight vector");
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0.0)
        fatal("DiscreteSampler: weights must sum to a positive value");

    const std::size_t n = weights.size();
    norm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (weights[i] < 0.0)
            fatal("DiscreteSampler: negative weight");
        norm_[i] = weights[i] / total;
    }

    // Walker's alias method.
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    std::vector<double> scaled(n);
    std::vector<std::size_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = norm_[i] * static_cast<double>(n);
        (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
        const std::size_t s = small.back();
        const std::size_t l = large.back();
        small.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = scaled[l] + scaled[s] - 1.0;
        if (scaled[l] < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    for (std::size_t i : large)
        prob_[i] = 1.0;
    for (std::size_t i : small)
        prob_[i] = 1.0; // numerical leftovers
}

std::size_t
DiscreteSampler::sample(Rng &rng) const
{
    const std::size_t col = static_cast<std::size_t>(
        rng.nextBelow(prob_.size()));
    return rng.nextDouble() < prob_[col] ? col : alias_[col];
}

} // namespace asd

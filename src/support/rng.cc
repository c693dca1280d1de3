#include "support/rng.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/logging.hh"

namespace etc {

namespace {

/** SplitMix64 step used to expand a single seed into full state. */
uint64_t
splitMix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
    // All-zero state is the one illegal state for xoshiro; the SplitMix64
    // expansion cannot produce it from any seed, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

uint64_t
Rng::next64()
{
    uint64_t result = rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

uint64_t
Rng::below(uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below: bound must be positive");
    // Rejection sampling to avoid modulo bias: reject r below
    // 2^64 mod bound. That threshold is itself below bound, so a draw
    // r >= bound is accepted without computing it (and a power-of-two
    // bound has threshold 0).
    for (;;) {
        uint64_t r = next64();
        if (r >= bound || r >= (~bound + 1) % bound)
            return r % bound;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("Rng::range: empty range [", lo, ", ", hi, "]");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>(next64());
    return lo + static_cast<int64_t>(below(span));
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

std::vector<uint64_t>
Rng::sampleDistinct(uint64_t n, uint64_t k)
{
    std::vector<uint64_t> out;
    if (n == 0)
        return out;
    if (k >= n) {
        out.resize(n);
        for (uint64_t i = 0; i < n; ++i)
            out[i] = i;
        return out;
    }
    // Floyd's algorithm: k iterations, O(k) memory, unbiased. The
    // chosen set is an open-addressing table (linear probing, load at
    // most 1/2) in a buffer each thread reuses, so a draw allocates
    // only its result.
    constexpr uint64_t EMPTY = std::numeric_limits<uint64_t>::max();
    size_t capacity = 2;
    while (capacity < 2 * k)
        capacity *= 2;
    thread_local std::vector<uint64_t> table;
    table.assign(capacity, EMPTY);
    int shift = std::countl_zero(static_cast<uint64_t>(capacity - 1));
    auto insert = [&](uint64_t value) {
        size_t slot = (value * 0x9e3779b97f4a7c15ull) >> shift;
        for (; table[slot] != EMPTY; slot = (slot + 1) & (capacity - 1))
            if (table[slot] == value)
                return false;
        table[slot] = value;
        out.push_back(value);
        return true;
    };
    out.reserve(k);
    for (uint64_t j = n - k; j < n; ++j) {
        // Values drawn so far are below j, so j itself is always new.
        if (!insert(below(j + 1)))
            insert(j);
    }
    std::sort(out.begin(), out.end());
    return out;
}

Rng
Rng::split()
{
    return Rng(next64() ^ 0xa3ec647659359acdull);
}

Rng
Rng::forStream(uint64_t seed, uint64_t stream)
{
    // Two SplitMix64 rounds: whiten the seed, then fold in the stream
    // counter, so consecutive stream indices yield uncorrelated states.
    uint64_t x = seed;
    uint64_t mixed = splitMix64(x);
    x = mixed ^ stream;
    return Rng(splitMix64(x));
}

} // namespace etc

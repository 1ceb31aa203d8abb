#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace flexi
{

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // Two rounds of the splitmix64 finalizer, folding the stream
    // index in with a golden-ratio stride between rounds. Any
    // (seed, stream) pair maps to a well-mixed nonzero-ish state;
    // the Rng constructor guards the residual zero case.
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed)
    : state_(seed ? seed : 0x9E3779B97F4A7C15ull)
{
}

uint64_t
Rng::next()
{
    // xorshift64* (Marsaglia / Vigna).
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1Dull;
}

double
Rng::uniform()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    if (n == 0)
        panic("Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    if (hi < lo)
        panic("Rng::range: hi < lo");
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    haveSpare_ = true;
    return u * f;
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

namespace
{

/** Largest mean one multiplication loop takes: exp(-64) is far
 *  from underflow. */
constexpr double kPoissonSplit = 64.0;

} // namespace

PoissonMean::PoissonMean(double m)
    : mean(m)
{
    // Poisson is closed under addition, so a larger mean is drawn as
    // whole kPoissonSplit parts plus this rest, and exp(-mean) never
    // has to be representable.
    double rest = m;
    while (rest > kPoissonSplit)
        rest -= kPoissonSplit;
    limit = std::exp(-rest);
}

uint64_t
Rng::poisson(double mean)
{
    return poisson(PoissonMean(mean));
}

uint64_t
Rng::poisson(const PoissonMean &m)
{
    if (!(m.mean > 0.0))
        return 0;
    static const double splitLimit = std::exp(-kPoissonSplit);
    uint64_t count = 0;
    for (double rest = m.mean; rest > kPoissonSplit; rest -= kPoissonSplit)
        count += knuth(splitLimit);
    return count + knuth(m.limit);
}

uint64_t
Rng::knuth(double limit)
{
    uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
        ++count;
        product *= uniform();
    }
    return count;
}

} // namespace flexi

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A xorshift64* generator is used everywhere randomness is needed
 * (Monte-Carlo yield studies, random test vectors, random kernel
 * inputs) so that every experiment in the repository is exactly
 * reproducible from a seed. This mirrors the paper's own use of
 * xorshift as a benchmark kernel (XorShift8, [Marsaglia 2003]).
 */

#ifndef FLEXI_COMMON_RNG_HH
#define FLEXI_COMMON_RNG_HH

#include <cstdint>

namespace flexi
{

/**
 * Derive the seed of an independent RNG stream from a base seed and
 * a stream index (splitmix64 finalization over both words). Used to
 * give every Monte-Carlo unit of work — a die site, a design point —
 * its own statistically independent stream, so results do not depend
 * on the order (or thread) in which units are processed, and
 * adding/removing one unit never perturbs another's draws.
 */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * A Poisson mean with the exp() term of its draw computed once, for a
 * mean drawn from many times: the fleet engine draws each of its
 * event rates once per die and epoch. Rng::poisson(PoissonMean(m))
 * draws exactly what Rng::poisson(m) draws, the same count from the
 * same stream.
 */
struct PoissonMean
{
    explicit PoissonMean(double mean);

    double mean;
    /** exp(-r), r the part of mean the additive split leaves. */
    double limit;
};

/** Deterministic xorshift64* PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @p n must be > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (cached pair). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /**
     * Poisson-distributed event count with the given mean (Knuth's
     * multiplication method, exact for the small means the fault
     * arrival processes draw; large means are split additively so
     * exp(-mean) never underflows). Fault arrival processes draw
     * their in-field event counts with it.
     */
    uint64_t poisson(double mean);

    /** poisson(m.mean), without computing its exp(). */
    uint64_t poisson(const PoissonMean &m);

  private:
    /** Knuth's multiplication loop down to @p limit = exp(-mean). */
    uint64_t knuth(double limit);


    uint64_t state_;
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace flexi

#endif // FLEXI_COMMON_RNG_HH

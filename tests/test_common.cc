/**
 * @file
 * Unit tests for the common utilities (logging, bitops, RNG, stats).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace flexi
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error %s", "x"), FatalError);
}

TEST(Logging, MessagesAreFormatted)
{
    try {
        fatal("value=%d name=%s", 7, "core");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value=7 name=core");
    }
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%04x", 0xAB), "00ab");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(Bitops, Bits)
{
    EXPECT_EQ(bits(0b11011010u, 7, 4), 0b1101u);
    EXPECT_EQ(bits(0b11011010u, 3, 0), 0b1010u);
    EXPECT_EQ(bits(0xFFFFFFFFu, 31, 0), 0xFFFFFFFFu);
}

TEST(Bitops, Bit)
{
    EXPECT_TRUE(bit(0b1000u, 3));
    EXPECT_FALSE(bit(0b1000u, 2));
}

TEST(Bitops, MaskBits)
{
    EXPECT_EQ(maskBits(0xFFu, 4), 0xFu);
    EXPECT_EQ(maskBits(0x12345678u, 32), 0x12345678u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xF, 4), -1);
    EXPECT_EQ(signExtend(0x7, 4), 7);
    EXPECT_EQ(signExtend(0x8, 4), -8);
    EXPECT_EQ(signExtend(0b101, 3), -3);
    EXPECT_EQ(signExtend(0b011, 3), 3);
}

TEST(Bitops, PopcountAndParity)
{
    EXPECT_EQ(popcount(0xFF, 8), 8u);
    EXPECT_EQ(popcount(0b1011, 4), 3u);
    EXPECT_EQ(parity(0b1011, 4), 1u);
    EXPECT_EQ(parity(0b1001, 4), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 300; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(42);
    RunningStat st;
    for (int i = 0; i < 20000; ++i)
        st.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(st.mean(), 10.0, 0.1);
    EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(42);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, PoissonMomentsAndDeterminism)
{
    // Same seed, same draws — the fleet engine's counter-keyed fault
    // streams depend on this.
    Rng a(7), b(7);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(a.poisson(0.4), b.poisson(0.4));

    // Degenerate means draw nothing and consume no entropy beyond
    // the guard.
    Rng z(3);
    EXPECT_EQ(z.poisson(0.0), 0u);
    EXPECT_EQ(z.poisson(-1.5), 0u);

    // Sample mean and variance both approach lambda (self-relative
    // tolerance — never pin absolute draw values, libm exp() may
    // differ across platforms).
    for (double mean : {0.25, 2.0, 100.0}) {
        Rng rng(42);
        RunningStat st;
        for (int i = 0; i < 20000; ++i)
            st.add(static_cast<double>(rng.poisson(mean)));
        EXPECT_NEAR(st.mean(), mean, 0.05 * mean + 0.05);
        double var = st.stddev() * st.stddev();
        EXPECT_NEAR(var, mean, 0.15 * mean + 0.1);
    }
}

/** Knuth's multiplication method with the additive split above a mean
 *  of 64, one exp() per part: the oracle both Rng entries match. */
uint64_t
referencePoisson(Rng &rng, double mean)
{
    if (!(mean > 0.0))
        return 0;
    uint64_t count = 0;
    while (mean > 64.0) {
        count += referencePoisson(rng, 64.0);
        mean -= 64.0;
    }
    double limit = std::exp(-mean);
    double product = rng.uniform();
    while (product > limit) {
        ++count;
        product *= rng.uniform();
    }
    return count;
}

TEST(Rng, PoissonWithPrecomputedLimitMatches)
{
    // Every draw through a PoissonMean takes the count and the stream
    // position poisson(mean) takes: tiny means whose limit rounds to
    // 1, the split boundary, and means split into 64-wide parts.
    for (double mean : {0.0, 4.9e-324, 1e-9, 0.05, 0.15, 1.0, 63.99,
                        64.0, 64.5, 300.0, 1024.0}) {
        const PoissonMean precomputed(mean);
        size_t mismatches = 0;
        for (uint64_t seed = 0; seed < 1000; ++seed) {
            Rng ref(deriveSeed(0x9015u, seed));
            Rng plain = ref, viaMean = ref;
            uint64_t want = referencePoisson(ref, mean);
            uint64_t wantNext = ref.next();
            mismatches += plain.poisson(mean) != want ||
                          plain.next() != wantNext ||
                          viaMean.poisson(precomputed) != want ||
                          viaMean.next() != wantNext;
        }
        EXPECT_EQ(mismatches, 0u) << "mean " << mean;
    }
}

TEST(RunningStat, Empty)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.mean(), 0.0);
    EXPECT_EQ(st.stddev(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(v);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    // Sample stddev of this classic set is sqrt(32/7).
    EXPECT_NEAR(st.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(st.min(), 2.0);
    EXPECT_EQ(st.max(), 9.0);
}

TEST(RunningStat, Rsd)
{
    RunningStat st;
    st.add(90.0);
    st.add(110.0);
    EXPECT_NEAR(st.rsd(), st.stddev() / 100.0, 1e-12);
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TextTable, RejectsBadWidth)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(FmtDouble, Digits)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(1.0, 0), "1");
}

// ---------------------------------------------------------------
// RNG stream derivation
// ---------------------------------------------------------------

TEST(DeriveSeed, StreamsAreDistinctAndStable)
{
    // The derived seed must be a pure function of (seed, stream) —
    // this is what makes Monte-Carlo results independent of work
    // order and thread count.
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    std::set<uint64_t> seen;
    for (uint64_t seed : {0ull, 1ull, 42ull, ~0ull})
        for (uint64_t stream = 0; stream < 64; ++stream)
            seen.insert(deriveSeed(seed, stream));
    EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(DeriveSeed, AdjacentStreamsDecorrelated)
{
    // Consecutive stream indices (die 17, die 18, ...) must yield
    // unrelated draws, not shifted copies of one sequence.
    Rng a(deriveSeed(5, 17));
    Rng b(deriveSeed(5, 18));
    unsigned agree = 0;
    for (int i = 0; i < 1000; ++i)
        agree += a.chance(0.5) == b.chance(0.5);
    EXPECT_GT(agree, 400u);
    EXPECT_LT(agree, 600u);
}

// ---------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionsPropagateToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 57)
                                          fatal("bad unit");
                                  }),
                 FatalError);
    // The pool survives a failed job and runs the next one.
    std::atomic<int> n{0};
    pool.parallelFor(8, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, FreeFunctionNestsInline)
{
    // A parallelFor issued from inside a parallelFor worker must not
    // deadlock on the shared global pool; nested calls degrade to
    // inline execution.
    std::atomic<int> n{0};
    parallelFor(4, 2, [&](size_t) {
        parallelFor(4, 2, [&](size_t) { n.fetch_add(1); });
    });
    EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, ZeroItemsIsANoop)
{
    std::atomic<int> n{0};
    parallelFor(0, 3, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 0);
}

} // namespace
} // namespace flexi

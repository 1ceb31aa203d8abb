/**
 * @file
 * Unit tests for the field-fleet lifecycle engine and its
 * checkpoint format: thread/batch-lane determinism, kill/resume
 * bit-identity, the CRC-32 and its combine against a bitwise
 * reference, pinned image bytes, the sliced encoder at every thread
 * count, the queued writer (shared paths, write errors), fail-closed
 * decoding and resume, and the fleet invariants (histogram row sums,
 * escalation-ladder accounting, salvaged-part deployment).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"

namespace flexi
{
namespace
{

/** Image offsets of fields the fail-closed tests patch: the header
 *  (magic + version, 8 bytes), the 99-byte configuration, then
 *  epochsDone (4), deaths (8) and the die count (4). */
constexpr size_t kNumDiesCfgOffset = 17;
constexpr size_t kEpochsCfgOffset = 21;
constexpr size_t kWorkUnitsCfgOffset = 30;
constexpr size_t kTransientsCfgOffset = 38;
constexpr size_t kFlipsCfgOffset = 46;
constexpr size_t kLockstepOffset = 54;
constexpr size_t kWatchdogCyclesCfgOffset = 57;
constexpr size_t kMaxInstructionsCfgOffset = 79;
constexpr size_t kVddCfgOffset = 95;
constexpr size_t kNumDiesOffset = 119;
/** Die 0's record: poolIndex (4), bin (1), alive (1), ... */
constexpr size_t kDie0Offset = 123;

uint32_t
get32(const std::vector<uint8_t> &b, size_t at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(b[at + i]) << (8 * i);
    return v;
}

void
put32(std::vector<uint8_t> &b, size_t at, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

double
getF64(const std::vector<uint8_t> &b, size_t at)
{
    uint64_t bits = get32(b, at) | uint64_t(get32(b, at + 4)) << 32;
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
put64(std::vector<uint8_t> &b, size_t at, uint64_t v)
{
    put32(b, at, static_cast<uint32_t>(v));
    put32(b, at + 4, static_cast<uint32_t>(v >> 32));
}

void
putF64(std::vector<uint8_t> &b, size_t at, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put64(b, at, bits);
}

/** Rewrite the trailing CRC so only structural checks can object. */
void
reseal(std::vector<uint8_t> &b)
{
    put32(b, b.size() - 4, crc32(0, b.data(), b.size() - 4));
}

/** Bit-at-a-time CRC-32, the textbook definition. */
uint32_t
crc32Bitwise(uint32_t crc, const uint8_t *p, size_t n)
{
    crc = ~crc;
    for (size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    return ~crc;
}

/** FatalError from @p f, naming @p field. */
template <class F>
::testing::AssertionResult
fatalNaming(F &&f, const char *field)
{
    try {
        f();
    } catch (const FatalError &e) {
        if (std::strstr(e.what(), field))
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "error does not name " << field << ": " << e.what();
    }
    return ::testing::AssertionFailure() << "accepted";
}

/** Small, fast campaign shared by most tests. */
FleetConfig
smallConfig()
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 7;
    cfg.numDies = 48;
    cfg.epochs = 3;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.6;
    cfg.flipsPerEpoch = 0.2;
    return cfg;
}

void
expectDieEq(const FleetDie &a, const FleetDie &b, size_t d)
{
    EXPECT_EQ(a.poolIndex, b.poolIndex) << "die " << d;
    EXPECT_EQ(a.bin, b.bin) << "die " << d;
    EXPECT_EQ(a.alive, b.alive) << "die " << d;
    EXPECT_EQ(a.repages, b.repages) << "die " << d;
    EXPECT_EQ(a.epochsRun, b.epochsRun) << "die " << d;
    EXPECT_EQ(a.outcomes, b.outcomes) << "die " << d;
    EXPECT_EQ(a.lifeCycles, b.lifeCycles) << "die " << d;
    EXPECT_EQ(a.digest, b.digest) << "die " << d;
    EXPECT_EQ(a.dffCount, b.dffCount) << "die " << d;
    EXPECT_EQ(a.dffBits, b.dffBits) << "die " << d;
}

void
expectStateEq(const FleetState &a, const FleetState &b)
{
    EXPECT_EQ(a.epochsDone, b.epochsDone);
    EXPECT_EQ(a.deaths, b.deaths);
    ASSERT_EQ(a.dies.size(), b.dies.size());
    for (size_t d = 0; d < a.dies.size(); ++d)
        expectDieEq(a.dies[d], b.dies[d], d);
    EXPECT_EQ(a.epochOutcomes, b.epochOutcomes);
    EXPECT_EQ(a.binOutcomes, b.binOutcomes);
    EXPECT_EQ(fleetDigest(a), fleetDigest(b));
}

/** The structural invariants every finished campaign must satisfy. */
void
checkInvariants(const FleetState &st)
{
    const FleetConfig &cfg = st.config;
    ASSERT_EQ(st.epochOutcomes.size(), st.epochsDone);

    uint64_t dead = 0;
    std::array<uint64_t, kNumFaultOutcomes> total{};
    for (const FleetDie &die : st.dies) {
        if (!die.alive) {
            ++dead;
            // A die is only pulled once its re-page budget is blown
            // (a pull during the final epoch still ran every epoch).
            EXPECT_GT(die.repages, cfg.maxRepages);
            EXPECT_LE(die.epochsRun, cfg.epochs);
        } else {
            EXPECT_LE(die.repages, cfg.maxRepages);
            EXPECT_EQ(die.epochsRun, st.epochsDone);
        }
        uint64_t missions = 0;
        for (size_t o = 0; o < kNumFaultOutcomes; ++o) {
            missions += die.outcomes[o];
            total[o] += die.outcomes[o];
        }
        EXPECT_EQ(missions, die.epochsRun);
        if (die.epochsRun) {
            EXPECT_GT(die.dffCount, 0u);
            EXPECT_EQ(die.dffBits.size(), (die.dffCount + 7) / 8);
            EXPECT_GT(die.lifeCycles, 0u);
        }
    }
    EXPECT_EQ(st.deaths, dead);
    EXPECT_EQ(st.aliveDies(), st.dies.size() - dead);

    // Epoch rows sum to the dies that ran that epoch (monotonically
    // non-increasing: pulled dies stop contributing), and the rows
    // together account for every mission.
    uint64_t prevRan = st.dies.size();
    std::array<uint64_t, kNumFaultOutcomes> rowTotal{};
    for (const auto &row : st.epochOutcomes) {
        uint64_t ran = 0;
        for (size_t o = 0; o < kNumFaultOutcomes; ++o) {
            ran += row[o];
            rowTotal[o] += row[o];
        }
        EXPECT_LE(ran, prevRan);
        prevRan = ran;
    }
    EXPECT_EQ(rowTotal, total);

    // Bin histograms partition the same missions.
    std::array<uint64_t, kNumFaultOutcomes> binTotal{};
    for (const auto &row : st.binOutcomes)
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            binTotal[o] += row[o];
    EXPECT_EQ(binTotal, total);

    for (uint32_t e = 0; e < st.epochsDone; ++e) {
        EXPECT_GE(st.availability(e), 0.0);
        EXPECT_LE(st.availability(e), 1.0);
        EXPECT_GE(st.sdcRate(e), 0.0);
    }
}

TEST(Crc32, MatchesReference)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(0, reinterpret_cast<const uint8_t *>(check), 9),
              0xCBF43926u);
    EXPECT_EQ(crc32(0, nullptr, 0), 0u);

    Rng rng(0xC3C32u);
    std::vector<uint8_t> data(616);
    for (uint8_t &b : data)
        b = static_cast<uint8_t>(rng.below(256));

    // Every length across the 8-byte steps and the byte tail, at
    // every alignment.
    for (size_t off = 0; off <= 8; ++off)
        for (size_t len = 0; len <= 600; ++len)
            ASSERT_EQ(crc32(0, data.data() + off, len),
                      crc32Bitwise(0, data.data() + off, len))
                << "offset " << off << ", length " << len;

    // Chaining continues the CRC at any split point.
    const uint8_t *a = data.data();
    for (size_t len : {size_t(17), size_t(64), size_t(600)})
        for (size_t split = 0; split <= len; ++split)
            ASSERT_EQ(crc32(crc32(0, a, split), a + split, len - split),
                      crc32(0, a, len))
                << "length " << len << ", split " << split;
}

TEST(Fleet, PackedDigestMatchesByteSerialFnv)
{
    // fnv1aBits() folds a packed byte per table step; the digest is
    // defined byte-serially over one 0/1 byte per DFF.
    constexpr uint64_t kPrime = 1099511628211ull;
    Rng rng(0xF17Eull);
    for (size_t n = 0; n <= 130; ++n) {
        for (int trial = 0; trial < 24; ++trial) {
            std::vector<uint64_t> words((n + 63) / 64 + 1, 0);
            std::vector<uint8_t> bytes(n);
            // Sparse, dense and uniform states.
            double p = trial % 3 == 0 ? 0.1 : trial % 3 == 1 ? 0.9 : 0.5;
            for (size_t i = 0; i < n; ++i) {
                bytes[i] = rng.chance(p);
                words[i / 64] |= uint64_t(bytes[i]) << (i % 64);
            }
            // Bits past n must not leak in.
            words.back() |= rng.next() << 1;
            if (n % 64)
                words[n / 64] |= ~0ull << (n % 64);
            uint64_t start = rng.next() ^ (trial & 1);
            uint64_t want = start;
            for (uint8_t b : bytes) {
                want ^= b;
                want *= kPrime;
            }
            ASSERT_EQ(fnv1aBits(start, words.data(), n), want)
                << n << " DFFs, trial " << trial;
        }
    }
}

TEST(Fleet, ThreadCountAndBatchLanesDoNotChangeAnything)
{
    // More dies than one 64-lane word, so prescreen blocks and
    // checked-runtime groups both come ragged and multi-word.
    FleetConfig cfg = smallConfig();
    cfg.numDies = 160;
    FleetEngine engine(cfg);
    FleetState ref = engine.init();
    engine.run(ref);
    checkInvariants(ref);

    // batchLanes 1 sends every die through the lane-parallel
    // checked runtime; 65 and 130 put prescreen blocks (and so the
    // dirty dies they hand on) across the 64-lane word boundary.
    struct Knobs { unsigned threads, batchLanes; };
    for (Knobs k : {Knobs{1, 512}, Knobs{3, 512}, Knobs{0, 1},
                    Knobs{2, 17}, Knobs{1, 63}, Knobs{4, 65},
                    Knobs{4, 130}, Knobs{4, 1}}) {
        FleetConfig c = cfg;
        c.threads = k.threads;
        c.batchLanes = k.batchLanes;
        FleetEngine eng(c);
        FleetState st = eng.init();
        eng.run(st);
        expectStateEq(ref, st);
    }
}

TEST(Fleet, PopulationDeploysSalvagedParts)
{
    // The economics argument needs salvaged parts in the field: the
    // seed-7 wafer bins salvaged dies that qualify for the deployed
    // kernel, and the with-replacement draw picks them up.
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    const SalvageReport &rep = engine.salvage();
    EXPECT_GT(rep.binCount(DieBin::Salvaged, true), 0u);

    FleetState st = engine.init();
    size_t salvaged = 0;
    for (const FleetDie &die : st.dies)
        salvaged += die.bin == DieBin::Salvaged;
    EXPECT_GT(salvaged, 0u);
    EXPECT_LT(salvaged, st.dies.size());

    engine.run(st);
    uint64_t salvagedMissions = 0;
    for (uint64_t n : st.binOutcomes[1])
        salvagedMissions += n;
    EXPECT_GT(salvagedMissions, 0u);
}

TEST(Fleet, EscalationLadderPullsDies)
{
    // Saturating fault pressure against a zero re-page budget: the
    // ladder must actually retire dies, and the accounting must hold.
    FleetConfig cfg = smallConfig();
    cfg.numDies = 32;
    cfg.transientsPerEpoch = 8.0;
    cfg.flipsPerEpoch = 2.0;
    cfg.recovery.maxRetries = 1;
    cfg.recovery.allowRestart = false;
    cfg.maxRepages = 0;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st);
    checkInvariants(st);
    EXPECT_GT(st.deaths, 0u);
    EXPECT_LT(st.availability(cfg.epochs - 1),
              st.availability(0) + 1e-12);
}

TEST(Fleet, CheckpointRoundTripIsExact)
{
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 2);

    std::vector<uint8_t> bytes = encodeFleetState(st);
    FleetState back = decodeFleetState(bytes);
    expectStateEq(st, back);

    // Re-encoding the decoded state is byte-identical (canonical
    // serialization).
    EXPECT_EQ(bytes, encodeFleetState(back));
}

TEST(Fleet, CheckpointBytesArePinned)
{
    // Round trips cannot catch an encoder and a decoder that drift
    // together, so the image itself is pinned: any change to these
    // values is a format change and needs a new
    // kFleetCheckpointVersion.
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 2);

    std::vector<uint8_t> bytes = encodeFleetState(st);
    ASSERT_EQ(bytes.size(), 3355u);
    EXPECT_EQ(get32(bytes, bytes.size() - 4), 0x90b4ac68u);
    EXPECT_EQ(fleetDigest(st), 0xc4ffb2500d6aed5bull);

    // The offsets the fail-closed tests patch.
    EXPECT_EQ(get32(bytes, kNumDiesCfgOffset), cfg.numDies);
    EXPECT_EQ(get32(bytes, kEpochsCfgOffset), cfg.epochs);
    EXPECT_EQ(bytes[kLockstepOffset], cfg.detectors.lockstep);
    EXPECT_EQ(get32(bytes, kNumDiesOffset), cfg.numDies);
    EXPECT_EQ(get32(bytes, kDie0Offset), st.dies[0].poolIndex);
    EXPECT_EQ(bytes[kDie0Offset + 5], st.dies[0].alive);
}

TEST(Fleet, KillAndResumeIsBitIdentical)
{
    FleetConfig cfg = smallConfig();
    FleetEngine engine(cfg);
    FleetState full = engine.init();
    engine.run(full);

    // Stop after epoch 1, serialize, forget everything, rebuild the
    // engine from the stored config, run the rest.
    FleetState part = engine.init();
    engine.run(part, 1);
    EXPECT_EQ(part.epochsDone, 1u);
    std::vector<uint8_t> bytes = encodeFleetState(part);

    FleetState resumed = decodeFleetState(bytes);
    FleetEngine fresh(resumed.config);
    // Execution knobs may change across the resume boundary.
    resumed.config.threads = 1;
    resumed.config.batchLanes = 17;
    fresh.run(resumed);
    expectStateEq(full, resumed);
}

TEST(Fleet, CheckpointFailsClosed)
{
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);
    std::vector<uint8_t> bytes = encodeFleetState(st);

    // Any single corrupted byte trips the CRC (or an earlier
    // structural check) — sample positions across the image.
    for (size_t pos : {size_t(0), size_t(5), bytes.size() / 2,
                       bytes.size() - 3}) {
        std::vector<uint8_t> bad = bytes;
        bad[pos] ^= 0x40;
        EXPECT_THROW(decodeFleetState(bad), FatalError)
            << "corrupt byte at " << pos;
    }

    // Truncation at every interesting boundary.
    for (size_t n : {size_t(0), size_t(3), size_t(7),
                     bytes.size() / 3, bytes.size() - 1}) {
        std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + n);
        EXPECT_THROW(decodeFleetState(bad), FatalError)
            << "truncated to " << n;
    }

    // Trailing garbage is not ignored.
    std::vector<uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_THROW(decodeFleetState(bad), FatalError);

    // Structural checks behind a valid CRC: each image below carries
    // a correct CRC, so the CRC cannot be what rejects it.
    {
        // A DFF count whose byte length wraps in 32 bits, with the
        // empty blob the wrapped length would ask for.
        FleetState t = st;
        t.dies[0].dffCount = 0xFFFFFFF9u;
        t.dies[0].dffBits.clear();
        EXPECT_THROW(decodeFleetState(encodeFleetState(t)),
                     FatalError);
    }
    // Bool bytes other than 0/1 would decode as true and re-encode
    // as 1, breaking the canonical round trip.
    for (size_t at : {kDie0Offset + 5, kLockstepOffset}) {
        std::vector<uint8_t> t = bytes;
        t[at] = 0x02;
        reseal(t);
        EXPECT_THROW(decodeFleetState(t), FatalError)
            << "flag byte at " << at;
    }
    {
        // Record counts the file cannot hold fail before anything is
        // sized by them.
        std::vector<uint8_t> t = bytes;
        put32(t, kNumDiesCfgOffset, 0x7FFFFFFFu);
        put32(t, kNumDiesOffset, 0x7FFFFFFFu);
        reseal(t);
        EXPECT_THROW(decodeFleetState(t), FatalError);

        // The histogram row count sits after the dies, before the
        // epoch and bin rows (8 bytes per outcome each).
        size_t rows = (cfg.epochs + 2) * kNumFaultOutcomes * 8;
        t = bytes;
        put32(t, kEpochsCfgOffset, 0x7FFFFFFFu);
        put32(t, t.size() - 4 - rows - 4, 0x7FFFFFFFu);
        reseal(t);
        EXPECT_THROW(decodeFleetState(t), FatalError);
    }

    // Budgets behind a valid CRC: one whose cycle budget
    // (maxInstructions * 8 + 1024) or watchdog trip point
    // (watchdogCycles + 1) would wrap, or a zero budget, fails to
    // decode; one too small for the mission decodes, and resuming it
    // fails naming the budget, never a panic.
    EXPECT_EQ(get32(bytes, kMaxInstructionsCfgOffset), cfg.maxInstructions);
    EXPECT_EQ(get32(bytes, kWatchdogCyclesCfgOffset),
              cfg.detectors.watchdogCycles);
    for (auto [at, value, field] :
         {std::tuple{kMaxInstructionsCfgOffset, uint64_t(0),
                     "maxInstructions"},
          std::tuple{kMaxInstructionsCfgOffset, uint64_t(1) << 61,
                     "maxInstructions"},
          std::tuple{kWatchdogCyclesCfgOffset, ~uint64_t(0),
                     "watchdogCycles"}}) {
        std::vector<uint8_t> t = bytes;
        put64(t, at, value);
        reseal(t);
        EXPECT_TRUE(fatalNaming([&] { decodeFleetState(t); }, field))
            << field << " = " << value;
    }
    {
        std::vector<uint8_t> t = bytes;
        put64(t, kMaxInstructionsCfgOffset, 4);
        reseal(t);
        FleetState resumed = decodeFleetState(t);
        EXPECT_EQ(resumed.config.maxInstructions, 4u);
        EXPECT_TRUE(fatalNaming(
            [&] { FleetEngine(resumed.config).run(resumed); },
            "maxInstructions"));
    }

    // An unreadable path fails loudly, never a fresh state.
    EXPECT_THROW(loadFleetCheckpoint("/nonexistent/fleet.ckpt"),
                 FatalError);
}

TEST(Fleet, ResumeRejectsOutOfRangePoolIndex)
{
    // A CRC-valid checkpoint may still name a part this campaign
    // never deployed: run() must fail closed before it indexes the
    // salvage study or the glitch rates with it.
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);

    std::vector<uint8_t> bytes = encodeFleetState(st);
    put32(bytes, kDie0Offset, 0x7FFFFFF0u);
    reseal(bytes);
    FleetState resumed = decodeFleetState(bytes);
    EXPECT_EQ(resumed.dies[0].poolIndex, 0x7FFFFFF0u);
    FleetEngine fresh(resumed.config);
    EXPECT_THROW(fresh.run(resumed), FatalError);

    const SalvageReport &rep = engine.salvage();
    auto rejects = [&](uint32_t poolIndex, DieBin bin) {
        FleetState t = st;
        t.dies[3].poolIndex = poolIndex;
        t.dies[3].bin = bin;
        EXPECT_THROW(engine.run(t), FatalError)
            << "poolIndex " << poolIndex << ", bin "
            << dieBinName(bin);
    };
    // One past the study, and a study die that was never deployable
    // (a Dead part), even with its own bin.
    rejects(static_cast<uint32_t>(rep.study.dies.size()),
            DieBin::Functional);
    bool sawDead = false;
    for (size_t i = 0; i < rep.dies.size() && !sawDead; ++i)
        if (rep.dies[i].bin == DieBin::Dead) {
            rejects(static_cast<uint32_t>(i), DieBin::Dead);
            sawDead = true;
        }
    EXPECT_TRUE(sawDead);
    // A deployed part whose recorded bin disagrees with the study.
    uint32_t pi = st.dies[0].poolIndex;
    rejects(pi, st.dies[0].bin == DieBin::Functional
                    ? DieBin::Salvaged
                    : DieBin::Functional);

    // The untouched state still resumes.
    FleetState ok = st;
    engine.run(ok);
    EXPECT_EQ(ok.epochsDone, cfg.epochs);
}

TEST(Fleet, RejectsUnboundedFaultRates)
{
    // The Poisson draw of an infinite mean never returns, so the
    // engine refuses such rates up front — from a caller, or from a
    // CRC-valid checkpoint that carries one — with FatalError.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double bad : {kInf, 1e300, std::nan(""), -0.5,
                       2 * FleetConfig::kMaxEventRate}) {
        FleetConfig t = smallConfig();
        t.transientsPerEpoch = bad;
        EXPECT_THROW(FleetEngine engine(t), FatalError) << bad;
        FleetConfig f = smallConfig();
        f.flipsPerEpoch = bad;
        EXPECT_THROW(FleetEngine engine(f), FatalError) << bad;
    }

    FleetConfig cfg = smallConfig();
    cfg.numDies = 4;
    cfg.epochs = 2;
    cfg.transientsPerEpoch = FleetConfig::kMaxEventRate;
    FleetEngine engine(cfg);   // the bound itself is accepted
    FleetState st = engine.init();
    engine.run(st, 1);

    std::vector<uint8_t> bytes = encodeFleetState(st);
    EXPECT_EQ(getF64(bytes, kTransientsCfgOffset),
              cfg.transientsPerEpoch);
    EXPECT_EQ(getF64(bytes, kFlipsCfgOffset), cfg.flipsPerEpoch);
    for (size_t at : {kTransientsCfgOffset, kFlipsCfgOffset}) {
        std::vector<uint8_t> patched = bytes;
        putF64(patched, at, kInf);
        reseal(patched);
        FleetState resumed = decodeFleetState(patched);
        EXPECT_TRUE(std::isinf(at == kTransientsCfgOffset
                                   ? resumed.config.transientsPerEpoch
                                   : resumed.config.flipsPerEpoch));
        EXPECT_THROW(FleetEngine fresh(resumed.config), FatalError)
            << "offset " << at;
    }
}

/** A short campaign checkpointed after one epoch, as bytes. */
std::vector<uint8_t>
oneEpochImage()
{
    FleetConfig cfg = smallConfig();
    cfg.numDies = 4;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);
    return encodeFleetState(st);
}

/** FatalError from building an engine for @p cfg, naming @p field. */
::testing::AssertionResult
engineRejects(const FleetConfig &cfg, const char *field)
{
    return fatalNaming([&] { FleetEngine engine(cfg); }, field);
}

TEST(Fleet, RejectsOutOfRangeWorkUnits)
{
    // Inputs are generated per work unit: an unbounded count would
    // exhaust memory or hang before the first mission, so the engine
    // refuses it up front — from a caller, or from a CRC-valid
    // checkpoint that carries one.
    for (size_t bad : {size_t(0), kMaxWorkUnits + 1,
                       size_t(100000000000ull)}) {
        FleetConfig cfg = smallConfig();
        cfg.workUnits = bad;
        EXPECT_TRUE(engineRejects(cfg, "workUnits")) << bad;
    }

    std::vector<uint8_t> bytes = oneEpochImage();
    EXPECT_EQ(get32(bytes, kWorkUnitsCfgOffset), smallConfig().workUnits);
    put64(bytes, kWorkUnitsCfgOffset, 100000000000ull);
    reseal(bytes);
    FleetState resumed = decodeFleetState(bytes);
    EXPECT_EQ(resumed.config.workUnits, 100000000000ull);
    EXPECT_TRUE(engineRejects(resumed.config, "workUnits"));
}

TEST(Fleet, RejectsOutOfRangeBudgets)
{
    // A zero budget, one whose cycle budget would wrap, and a
    // watchdog whose trip point would wrap are refused up front; the
    // bounds themselves are accepted and run.
    for (uint64_t bad : {uint64_t(0), kMaxInstructionBudget + 1,
                         uint64_t(1) << 61, ~uint64_t(0)}) {
        FleetConfig cfg = smallConfig();
        cfg.maxInstructions = bad;
        EXPECT_TRUE(engineRejects(cfg, "maxInstructions")) << bad;
    }
    for (uint64_t bad : {kMaxWatchdogCycles + 1, ~uint64_t(0)}) {
        FleetConfig cfg = smallConfig();
        cfg.detectors.watchdogCycles = bad;
        EXPECT_TRUE(engineRejects(cfg, "watchdogCycles")) << bad;
    }

    FleetConfig cfg = smallConfig();
    cfg.numDies = 4;
    cfg.epochs = 1;
    cfg.maxInstructions = kMaxInstructionBudget;
    cfg.detectors.watchdogCycles = kMaxWatchdogCycles;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st);
    EXPECT_EQ(st.epochsDone, 1u);
}

TEST(Fleet, RejectsNonFiniteVdd)
{
    // NaN never compares equal, so a NaN supply would otherwise
    // surface as a misleading configuration mismatch on run().
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double bad : {std::nan(""), kInf, -kInf, 0.0, -4.5}) {
        FleetConfig cfg = smallConfig();
        cfg.vdd = bad;
        EXPECT_TRUE(engineRejects(cfg, "vdd")) << bad;
    }

    std::vector<uint8_t> bytes = oneEpochImage();
    EXPECT_EQ(getF64(bytes, kVddCfgOffset), smallConfig().vdd);
    putF64(bytes, kVddCfgOffset, std::nan(""));
    reseal(bytes);
    FleetState resumed = decodeFleetState(bytes);
    EXPECT_TRUE(std::isnan(resumed.config.vdd));
    EXPECT_TRUE(engineRejects(resumed.config, "vdd"));
}

TEST(Fleet, CheckpointFileRoundTrip)
{
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);

    std::string path = testing::TempDir() + "fleet_rt.ckpt";
    saveFleetCheckpoint(st, path);
    FleetState back = loadFleetCheckpoint(path);
    expectStateEq(st, back);
    std::remove(path.c_str());
}

TEST(Fleet, Fc8FleetRunsAndIsDeterministic)
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore8;
    cfg.seed = 9;
    cfg.numDies = 16;
    cfg.epochs = 2;
    cfg.fc8Program = 0;
    cfg.workUnits = 1;
    FleetEngine engine(cfg);
    FleetState a = engine.init();
    engine.run(a);
    checkInvariants(a);

    FleetConfig c2 = cfg;
    c2.threads = 1;
    c2.batchLanes = 1;
    FleetEngine e2(c2);
    FleetState b = e2.init();
    e2.run(b);
    expectStateEq(a, b);
}

TEST(Crc32, CombineMatchesConcatenation)
{
    Rng rng(0xC0B1u);
    std::vector<uint8_t> data(4096);
    for (uint8_t &b : data)
        b = static_cast<uint8_t>(rng.below(256));
    const uint8_t *p = data.data();

    // Random ranges split at a random point, and at both ends so
    // either part may be empty.
    for (int trial = 0; trial < 2000; ++trial) {
        size_t off = rng.below(data.size() + 1);
        size_t len = rng.below(data.size() - off + 1);
        size_t split = trial % 3 == 0   ? 0
                       : trial % 3 == 1 ? len
                                        : rng.below(len + 1);
        uint32_t a = crc32(0, p + off, split);
        uint32_t b = crc32(0, p + off + split, len - split);
        ASSERT_EQ(crc32Combine(a, b, len - split),
                  crc32Bitwise(0, p + off, len))
            << "offset " << off << ", length " << len << ", split "
            << split;
    }

    // Three parts fold left to right.
    uint32_t abc = crc32Combine(
        crc32Combine(crc32(0, p, 1000), crc32(0, p + 1000, 7), 7),
        crc32(0, p + 1007, 3089), 3089);
    EXPECT_EQ(abc, crc32(0, p, 4096));

    // A long second part reaches the high powers of x.
    std::vector<uint8_t> zeros((1u << 20) + 3);
    uint32_t head = crc32(0, p, 64);
    EXPECT_EQ(crc32Combine(head, crc32(0, zeros.data(), zeros.size()),
                           zeros.size()),
              crc32(head, zeros.data(), zeros.size()));
}

/** A CRC-valid state of @p numDies dies with random records and
 *  DFF states of random length, empty ones included. */
FleetState
syntheticState(uint32_t numDies)
{
    Rng rng(0x5EEDu + numDies);
    FleetState st;
    st.config = smallConfig();
    st.config.numDies = numDies;
    st.epochsDone = 2;
    st.deaths = rng.below(numDies + 1);
    st.dies.resize(numDies);
    for (FleetDie &d : st.dies) {
        d.poolIndex = static_cast<uint32_t>(rng.below(1u << 20));
        d.bin = rng.chance(0.5) ? DieBin::Functional : DieBin::Salvaged;
        d.alive = rng.chance(0.9);
        d.repages = static_cast<uint32_t>(rng.below(3));
        d.epochsRun = static_cast<uint32_t>(rng.below(3));
        for (uint32_t &n : d.outcomes)
            n = static_cast<uint32_t>(rng.below(3));
        d.lifeCycles = rng.next();
        d.digest = rng.next();
        d.dffCount = static_cast<uint32_t>(rng.below(200));
        d.dffBits.resize((d.dffCount + 7) / 8);
        for (uint8_t &b : d.dffBits)
            b = static_cast<uint8_t>(rng.below(256));
    }
    st.epochOutcomes.resize(st.config.epochs);
    for (auto &row : st.epochOutcomes)
        for (uint64_t &n : row)
            n = rng.below(numDies + 1);
    for (auto &row : st.binOutcomes)
        for (uint64_t &n : row)
            n = rng.below(numDies + 1);
    return st;
}

TEST(Fleet, SlicedEncodeIsThreadCountInvariant)
{
    // Slice edges fall inside a die count below, at and above the
    // slice count, and on the perfbench-sized fleet.
    for (uint32_t numDies : {0u, 1u, 63u, 64u, 65u, 8192u}) {
        FleetState st = syntheticState(numDies);
        std::vector<uint8_t> one = encodeFleetState(st, 1);
        // The slice CRCs combine to the CRC of the whole body.
        ASSERT_GE(one.size(), 4u);
        EXPECT_EQ(get32(one, one.size() - 4),
                  crc32Bitwise(0, one.data(), one.size() - 4))
            << numDies << " dies";
        for (unsigned threads : {2u, 3u, 4u, 8u})
            EXPECT_EQ(encodeFleetState(st, threads), one)
                << numDies << " dies, " << threads << " threads";
        st.config.threads = 3;
        FleetState back = decodeFleetState(encodeFleetState(st));
        expectStateEq(st, back);
    }

    // And on an engine's state, against the thread count it stores.
    FleetConfig cfg = smallConfig();
    cfg.threads = 4;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);
    EXPECT_EQ(encodeFleetState(st, 1), encodeFleetState(st));
}

TEST(Fleet, SharedPathLoadSeesTheLastSave)
{
    // Two campaigns checkpoint to one path in turn, as perfbench's
    // primary and resume engines do: every load must see the save
    // queued last, never an older image or a torn one.
    FleetConfig ca = smallConfig();
    ca.numDies = 8;
    FleetConfig cb = ca;
    cb.seed = 8;
    FleetEngine a(ca), b(cb);
    FleetState sa = a.init(), sb = b.init();
    std::string path = testing::TempDir() + "fleet_shared.ckpt";
    for (uint32_t e = 1; e <= ca.epochs; ++e) {
        a.run(sa, e, path);
        expectStateEq(loadFleetCheckpoint(path), sa);
        b.run(sb, e, path);
        expectStateEq(loadFleetCheckpoint(path), sb);
    }
    // Back to back, with no load between: the second image wins.
    saveFleetCheckpoint(sb, path);
    saveFleetCheckpoint(sa, path);
    flushFleetCheckpoints();
    expectStateEq(loadFleetCheckpoint(path), sa);
    std::remove(path.c_str());
}

TEST(Fleet, UnwritableCheckpointFailsClosed)
{
    // The write happens after run() returns, so its error surfaces
    // at the next flush, load or save, naming the tmp file; each
    // error is reported once.
    const std::string path = "/nonexistent-dir/fleet.ckpt";
    const std::string tmp = path + ".tmp";
    FleetConfig cfg = smallConfig();
    cfg.numDies = 8;
    cfg.epochs = 2;
    FleetEngine engine(cfg);

    FleetState st = engine.init();
    engine.run(st, 1, path);
    EXPECT_TRUE(fatalNaming([] { flushFleetCheckpoints(); },
                            tmp.c_str()));
    EXPECT_NO_THROW(flushFleetCheckpoints());

    st = engine.init();
    engine.run(st, 1, path);
    EXPECT_TRUE(fatalNaming([&] { loadFleetCheckpoint(path); },
                            tmp.c_str()));

    st = engine.init();
    EXPECT_TRUE(fatalNaming([&] { engine.run(st, 2, path); },
                            tmp.c_str()));
    EXPECT_EQ(st.epochsDone, 2u) << "the second save throws";
    EXPECT_NO_THROW(flushFleetCheckpoints());
}

} // namespace
} // namespace flexi

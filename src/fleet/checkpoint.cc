#include "checkpoint.hh"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace flexi
{

namespace
{

constexpr uint8_t kMagic[4] = {'F', 'L', 'F', 'T'};

uint32_t
load32le(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/**
 * Byte counter with the Writer interface: one pass of the encoder
 * over a Counter sizes the image exactly, so the writing pass fills
 * one allocation through a cursor.
 */
struct Counter
{
    size_t size = 0;

    void u8(uint8_t) { size += 1; }
    void u32(uint32_t) { size += 4; }
    void u64(uint64_t) { size += 8; }
    void f64(double) { size += 8; }
    void bytes(const uint8_t *, size_t n) { size += n; }
    void blob(const std::vector<uint8_t> &v) { size += 4 + v.size(); }
};

/** Little-endian writer into a buffer a Counter pass sized. */
struct Writer
{
    uint8_t *p;

    void u8(uint8_t v) { *p++ = v; }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            *p++ = static_cast<uint8_t>(v >> (8 * i));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            *p++ = static_cast<uint8_t>(v >> (8 * i));
    }
    void
    f64(double v)
    {
        uint64_t b;
        static_assert(sizeof(b) == sizeof(v), "double is 64-bit");
        std::memcpy(&b, &v, sizeof(b));
        u64(b);
    }
    void
    bytes(const uint8_t *v, size_t n)
    {
        if (n)
            std::memcpy(p, v, n);
        p += n;
    }
    void
    blob(const std::vector<uint8_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        bytes(v.data(), v.size());
    }
};

/** Fail-closed little-endian reader. */
struct Reader
{
    const uint8_t *p;
    size_t left;

    void
    need(size_t n) const
    {
        if (left < n)
            fatal("fleet checkpoint: truncated (needed %zu more "
                  "bytes, %zu left)", n, left);
    }
    /** Fail unless @p n records of at least @p minBytes each fit in
     *  what is left, so a corrupt count never sizes an allocation. */
    void
    needRecords(uint64_t n, size_t minBytes) const
    {
        if (n > left / minBytes)
            fatal("fleet checkpoint: truncated (%llu records of at "
                  "least %zu bytes each, %zu bytes left)",
                  static_cast<unsigned long long>(n), minBytes, left);
    }
    uint8_t
    u8()
    {
        need(1);
        --left;
        return *p++;
    }
    /** A bool byte: 0 or 1 only, so decode then re-encode is exact. */
    bool
    flag(const char *what)
    {
        uint8_t v = u8();
        if (v > 1)
            fatal("fleet checkpoint: bad %s flag %u", what, v);
        return v;
    }
    uint32_t
    u32()
    {
        need(4);
        uint32_t v = load32le(p);
        p += 4;
        left -= 4;
        return v;
    }
    uint64_t
    u64()
    {
        need(8);
        uint64_t v = load32le(p) |
                     static_cast<uint64_t>(load32le(p + 4)) << 32;
        p += 8;
        left -= 8;
        return v;
    }
    double
    f64()
    {
        uint64_t b = u64();
        double v;
        std::memcpy(&v, &b, sizeof(v));
        return v;
    }
    std::vector<uint8_t>
    blob(size_t maxSize)
    {
        uint32_t n = u32();
        if (n > maxSize)
            fatal("fleet checkpoint: blob of %u bytes exceeds the "
                  "%zu-byte bound", n, maxSize);
        need(n);
        std::vector<uint8_t> v(p, p + n);
        p += n;
        left -= n;
        return v;
    }
};

template <class Sink>
void
encodeConfig(Sink &w, const FleetConfig &c)
{
    w.u8(static_cast<uint8_t>(c.isa));
    w.u64(c.seed);
    w.u32(c.numDies);
    w.u32(c.epochs);
    w.u8(static_cast<uint8_t>(c.kernel));
    w.u32(c.fc8Program);
    w.u64(c.workUnits);
    w.f64(c.transientsPerEpoch);
    w.f64(c.flipsPerEpoch);
    w.u8(c.detectors.lockstep);
    w.u8(c.detectors.outputCrc);
    w.u8(c.detectors.watchdog);
    w.u64(c.detectors.watchdogCycles);
    w.u8(c.recovery.enabled);
    w.u32(c.recovery.checkpointInstructions);
    w.u32(c.recovery.maxRetries);
    w.u8(c.recovery.allowRestart);
    w.u32(c.maxRepages);
    w.u64(c.maxInstructions);
    w.u32(c.threads);
    w.u32(c.batchLanes);
    w.f64(c.vdd);
    w.u32(c.minKernels);
}

FleetConfig
decodeConfig(Reader &r)
{
    FleetConfig c;
    uint8_t isa = r.u8();
    if (isa != static_cast<uint8_t>(IsaKind::FlexiCore4) &&
        isa != static_cast<uint8_t>(IsaKind::FlexiCore8))
        fatal("fleet checkpoint: bad ISA tag %u", isa);
    c.isa = static_cast<IsaKind>(isa);
    c.seed = r.u64();
    c.numDies = r.u32();
    c.epochs = r.u32();
    uint8_t kernel = r.u8();
    if (kernel >= static_cast<uint8_t>(KernelId::NumKernels))
        fatal("fleet checkpoint: bad kernel tag %u", kernel);
    c.kernel = static_cast<KernelId>(kernel);
    c.fc8Program = r.u32();
    c.workUnits = r.u64();
    c.transientsPerEpoch = r.f64();
    c.flipsPerEpoch = r.f64();
    c.detectors.lockstep = r.flag("lockstep");
    c.detectors.outputCrc = r.flag("outputCrc");
    c.detectors.watchdog = r.flag("watchdog");
    c.detectors.watchdogCycles = r.u64();
    if (c.detectors.watchdogCycles > kMaxWatchdogCycles)
        fatal("fleet checkpoint: watchdogCycles must be at most %llu, "
              "got %llu",
              static_cast<unsigned long long>(kMaxWatchdogCycles),
              static_cast<unsigned long long>(c.detectors.watchdogCycles));
    c.recovery.enabled = r.flag("recovery");
    c.recovery.checkpointInstructions = r.u32();
    c.recovery.maxRetries = r.u32();
    c.recovery.allowRestart = r.flag("allowRestart");
    c.maxRepages = r.u32();
    c.maxInstructions = r.u64();
    if (!c.maxInstructions || c.maxInstructions > kMaxInstructionBudget)
        fatal("fleet checkpoint: maxInstructions must be in [1, %llu], "
              "got %llu",
              static_cast<unsigned long long>(kMaxInstructionBudget),
              static_cast<unsigned long long>(c.maxInstructions));
    c.threads = r.u32();
    c.batchLanes = r.u32();
    c.vdd = r.f64();
    c.minKernels = r.u32();
    return c;
}

template <class Sink>
void
encodeDie(Sink &w, const FleetDie &d)
{
    w.u32(d.poolIndex);
    w.u8(static_cast<uint8_t>(d.bin));
    w.u8(d.alive);
    w.u32(d.repages);
    w.u32(d.epochsRun);
    for (uint32_t n : d.outcomes)
        w.u32(n);
    w.u64(d.lifeCycles);
    w.u64(d.digest);
    w.u32(d.dffCount);
    w.blob(d.dffBits);
}

/** Every byte of the image but the trailing CRC, in format order. */
template <class Sink>
void
encodeBody(Sink &w, const FleetState &state)
{
    w.bytes(kMagic, 4);
    w.u32(kFleetCheckpointVersion);
    encodeConfig(w, state.config);

    w.u32(state.epochsDone);
    w.u64(state.deaths);

    w.u32(static_cast<uint32_t>(state.dies.size()));
    for (const FleetDie &d : state.dies)
        encodeDie(w, d);

    w.u32(static_cast<uint32_t>(state.epochOutcomes.size()));
    for (const auto &row : state.epochOutcomes)
        for (uint64_t n : row)
            w.u64(n);
    for (const auto &row : state.binOutcomes)
        for (uint64_t n : row)
            w.u64(n);
}

/** Bytes of one die record with an empty DFF blob. */
size_t
dieRecordMinBytes()
{
    Counter c;
    encodeDie(c, FleetDie{});
    return c.size;
}

constexpr size_t kHistogramRowBytes = kNumFaultOutcomes * 8;

/**
 * Slice-by-8 tables of the reflected CRC-32: kCrcTable[0][b] is the
 * CRC register after shifting in byte b, and kCrcTable[k][b] the
 * same followed by k zero bytes.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t c = b;
        for (int i = 0; i < 8; ++i)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][b] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    return t;
}

constexpr auto kCrcTable = makeCrcTables();

} // namespace

uint32_t
crc32(uint32_t crc, const uint8_t *bytes, size_t n)
{
    const auto &t = kCrcTable;
    crc = ~crc;
    // Eight bytes per step through eight tables: the lookups do not
    // depend on each other, so they overlap.
    for (; n >= 8; bytes += 8, n -= 8) {
        uint32_t lo = crc ^ load32le(bytes);
        uint32_t hi = load32le(bytes + 4);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n; ++bytes, --n)
        crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFF];
    return ~crc;
}

std::vector<uint8_t>
encodeFleetState(const FleetState &state)
{
    Counter size;
    encodeBody(size, state);
    std::vector<uint8_t> image(size.size + 4);
    Writer w{image.data()};
    encodeBody(w, state);
    w.u32(crc32(0, image.data(), size.size));
    if (w.p != image.data() + image.size())
        panic("fleet checkpoint: encoder wrote %td of %zu bytes",
              w.p - image.data(), image.size());
    return image;
}

FleetState
decodeFleetState(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < 12)
        fatal("fleet checkpoint: file too short (%zu bytes)",
              bytes.size());
    uint32_t stored = load32le(bytes.data() + bytes.size() - 4);
    uint32_t actual = crc32(0, bytes.data(), bytes.size() - 4);
    if (stored != actual)
        fatal("fleet checkpoint: CRC mismatch (stored %08x, "
              "computed %08x) — the file is corrupt", stored,
              actual);

    Reader r{bytes.data(), bytes.size() - 4};
    uint8_t magic[4];
    for (auto &m : magic)
        m = r.u8();
    if (std::memcmp(magic, kMagic, 4) != 0)
        fatal("fleet checkpoint: bad magic (not a FLFT file)");
    uint32_t version = r.u32();
    if (version != kFleetCheckpointVersion)
        fatal("fleet checkpoint: unsupported format version %u "
              "(this build reads version %u)", version,
              kFleetCheckpointVersion);

    FleetState state;
    state.config = decodeConfig(r);
    state.epochsDone = r.u32();
    state.deaths = r.u64();

    uint32_t numDies = r.u32();
    if (numDies != state.config.numDies)
        fatal("fleet checkpoint: %u die records for a %u-die "
              "campaign", numDies, state.config.numDies);
    if (state.epochsDone > state.config.epochs)
        fatal("fleet checkpoint: epochsDone %u exceeds the %u-epoch "
              "campaign", state.epochsDone, state.config.epochs);
    r.needRecords(numDies, dieRecordMinBytes());
    state.dies.resize(numDies);
    for (FleetDie &d : state.dies) {
        d.poolIndex = r.u32();
        uint8_t bin = r.u8();
        if (bin > static_cast<uint8_t>(DieBin::Dead))
            fatal("fleet checkpoint: bad die bin %u", bin);
        d.bin = static_cast<DieBin>(bin);
        d.alive = r.flag("alive");
        d.repages = r.u32();
        d.epochsRun = r.u32();
        for (uint32_t &n : d.outcomes)
            n = r.u32();
        d.lifeCycles = r.u64();
        d.digest = r.u64();
        d.dffCount = r.u32();
        size_t dffBytes = (static_cast<size_t>(d.dffCount) + 7) / 8;
        d.dffBits = r.blob(dffBytes);
        if (d.dffBits.size() != dffBytes)
            fatal("fleet checkpoint: die state holds %zu bytes for "
                  "%u DFFs", d.dffBits.size(), d.dffCount);
    }

    uint32_t epochs = r.u32();
    if (epochs != state.config.epochs)
        fatal("fleet checkpoint: %u histogram rows for a %u-epoch "
              "campaign", epochs, state.config.epochs);
    r.needRecords(epochs, kHistogramRowBytes);
    state.epochOutcomes.resize(epochs);
    for (auto &row : state.epochOutcomes)
        for (uint64_t &n : row)
            n = r.u64();
    for (auto &row : state.binOutcomes)
        for (uint64_t &n : row)
            n = r.u64();

    if (r.left != 0)
        fatal("fleet checkpoint: %zu bytes of trailing garbage",
              r.left);
    return state;
}

void
saveFleetCheckpoint(const FleetState &state, const std::string &path)
{
    std::vector<uint8_t> bytes = encodeFleetState(state);
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("fleet checkpoint: cannot write '%s'", tmp.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: short write to '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: cannot rename '%s' into place",
              tmp.c_str());
    }
}

FleetState
loadFleetCheckpoint(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("fleet checkpoint: cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool readError = std::ferror(f);
    std::fclose(f);
    if (readError)
        fatal("fleet checkpoint: read error on '%s'", path.c_str());
    return decodeFleetState(bytes);
}

} // namespace flexi

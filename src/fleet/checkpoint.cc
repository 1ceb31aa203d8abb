#include "checkpoint.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"

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

/** The image's bytes before the first die record, in format order. */
template <class Sink>
void
encodeHead(Sink &w, const FleetState &state)
{
    w.bytes(kMagic, 4);
    w.u32(kFleetCheckpointVersion);
    encodeConfig(w, state.config);

    w.u32(state.epochsDone);
    w.u64(state.deaths);

    w.u32(static_cast<uint32_t>(state.dies.size()));
}

/** The image's bytes after the last die record, up to the CRC. */
template <class Sink>
void
encodeTail(Sink &w, const FleetState &state)
{
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

/**
 * a * b mod the CRC-32 polynomial over GF(2), both operands in the
 * register's reflected order (bit 31 is the x^0 coefficient).
 */
constexpr uint32_t
gf2MulMod(uint32_t a, uint32_t b)
{
    uint32_t p = 0;
    for (uint32_t m = 1u << 31; m; m >>= 1) {
        if (a & m)
            p ^= b;
        b = (b >> 1) ^ (0xEDB88320u & (0u - (b & 1u)));
    }
    return p;
}

/** kX2n[k] = x^(2^k) mod the polynomial; x^(2^32) = x, so k wraps. */
constexpr std::array<uint32_t, 32>
makeX2nTable()
{
    std::array<uint32_t, 32> t{};
    t[0] = 1u << 30;
    for (size_t k = 1; k < 32; ++k)
        t[k] = gf2MulMod(t[k - 1], t[k - 1]);
    return t;
}

constexpr auto kX2n = makeX2nTable();

/**
 * Die-record slices of an image, each encoded and CRC'd on its own
 * (fewer when there are fewer dies). Fixed, so the slicing, like the
 * bytes, does not depend on the thread count.
 */
constexpr size_t kEncodeSlices = 64;

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

uint32_t
crc32Combine(uint32_t crcA, uint32_t crcB, size_t lenB)
{
    // Appending lenB bytes multiplies A's register by x^(8 lenB);
    // build that power from the squares x^(2^k), k = 3 for x^8.
    uint32_t shift = 1u << 31;
    for (unsigned k = 3; lenB; lenB >>= 1, ++k)
        if (lenB & 1)
            shift = gf2MulMod(kX2n[k & 31], shift);
    return gf2MulMod(shift, crcA) ^ crcB;
}

namespace
{

/**
 * Encode @p state into @p image, resized to fit (a buffer reused
 * across saves keeps its allocation). Record offsets are a prefix
 * sum, since a die record is a fixed size plus its DFF blob, so the
 * record slices are encoded and CRC'd on the pool, and the slice
 * CRCs combine into the image's.
 */
void
encodeImage(const FleetState &state, unsigned threads,
            std::vector<uint8_t> &image)
{
    // Slice s holds dies [first[s], first[s + 1]) at bytes
    // [at[s], at[s + 1]).
    const std::vector<FleetDie> &dies = state.dies;
    const size_t slices = std::min(dies.size(), kEncodeSlices);
    const size_t recordBytes = dieRecordMinBytes();
    std::vector<size_t> first(slices + 1), at(slices + 1);
    Counter head;
    encodeHead(head, state);
    at[0] = head.size;
    for (size_t s = 0; s < slices; ++s) {
        first[s + 1] = dies.size() * (s + 1) / slices;
        at[s + 1] = at[s];
        for (size_t d = first[s]; d < first[s + 1]; ++d)
            at[s + 1] += recordBytes + dies[d].dffBits.size();
    }
    Counter tail;
    encodeTail(tail, state);
    image.resize(at[slices] + tail.size + 4);

    // CRC(head, slice 0, ..., slice n) = CRC(head) x^(8 |slices|)
    // + the sum of CRC(slice s) x^(8 |slices after s|), since
    // crc32Combine(a, b, len) = a x^(8 len) + b. So each slice
    // shifts its own CRC into place, and the terms add up by XOR.
    std::vector<uint32_t> term(slices);
    parallelFor(slices, threads, [&](size_t s) {
        Writer w{image.data() + at[s]};
        for (size_t d = first[s]; d < first[s + 1]; ++d)
            encodeDie(w, dies[d]);
        if (w.p != image.data() + at[s + 1])
            panic("fleet checkpoint: slice %zu ends at byte %td, not "
                  "%zu", s, w.p - image.data(), at[s + 1]);
        term[s] = crc32Combine(
            crc32(0, image.data() + at[s], at[s + 1] - at[s]), 0,
            at[slices] - at[s + 1]);
    });

    Writer w{image.data()};
    encodeHead(w, state);
    uint32_t crc = crc32Combine(crc32(0, image.data(), head.size), 0,
                                at[slices] - at[0]);
    for (uint32_t t : term)
        crc ^= t;
    w.p = image.data() + at[slices];
    encodeTail(w, state);
    crc = crc32(crc, image.data() + at[slices], tail.size);
    w.u32(crc);
    if (w.p != image.data() + image.size())
        panic("fleet checkpoint: encoder wrote %td of %zu bytes",
              w.p - image.data(), image.size());
}

/**
 * Write @p bytes to @p path through a tmp file and a rename, so the
 * file at @p path is always a complete image.
 */
void
writeImage(const std::vector<uint8_t> &bytes, const std::string &path)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("fleet checkpoint: cannot write '%s'", tmp.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fflush(f) == 0;
    // Some file systems report a failed write only at close.
    bool closed = std::fclose(f) == 0;
    if (written != bytes.size() || !flushed || !closed) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: short write to '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("fleet checkpoint: cannot rename '%s' into place",
              tmp.c_str());
    }
}

/**
 * The process's one checkpoint writer thread, holding at most one
 * image in flight in one buffer that every save reuses.
 * Process-wide because engines that share a path must not write it
 * from two threads at once, and because loadFleetCheckpoint() must
 * see the last image queued for it.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter() = default;
    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    ~CheckpointWriter()
    {
        // The thread writes what is queued before it sees stop_.
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        changed_.notify_all();
        if (thread_.joinable())
            thread_.join();
        if (error_) {
            try {
                std::rethrow_exception(error_);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s (never reported)\n", e.what());
            }
        }
    }

    /** Wait for the image in flight and rethrow its error, then
     *  encode @p state into the idle buffer and queue it for
     *  @p path. */
    void
    submit(const FleetState &state, const std::string &path)
    {
        std::unique_lock<std::mutex> lock(mu_);
        drain(lock);
        encodeImage(state, state.config.threads, image_);
        path_ = path;
        if (!thread_.joinable())
            thread_ = std::thread([this] { loop(); });
        queued_ = true;
        changed_.notify_all();
    }

    /** Wait for the image in flight and rethrow its error. */
    void
    flush()
    {
        std::unique_lock<std::mutex> lock(mu_);
        drain(lock);
    }

  private:
    /** Wait until nothing is in flight; rethrow (and so clear) the
     *  last write's error. */
    void
    drain(std::unique_lock<std::mutex> &lock)
    {
        changed_.wait(lock, [&] { return !queued_; });
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            changed_.wait(lock, [&] { return queued_ || stop_; });
            if (!queued_)
                return;
            // image_ and path_ stay put while queued_ is set.
            lock.unlock();
            std::exception_ptr error;
            try {
                writeImage(image_, path_);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            error_ = error;
            queued_ = false;
            changed_.notify_all();
        }
    }

    std::mutex mu_;
    std::condition_variable changed_;
    /** The image in flight, or the idle buffer. */
    std::vector<uint8_t> image_;
    std::string path_;
    /** An image waits for or is in its write. */
    bool queued_ = false;
    bool stop_ = false;
    /** The last write's failure, until a submit or flush reports it. */
    std::exception_ptr error_;
    std::thread thread_;
};

CheckpointWriter &
checkpointWriter()
{
    static CheckpointWriter writer;
    return writer;
}

} // namespace

std::vector<uint8_t>
encodeFleetState(const FleetState &state)
{
    return encodeFleetState(state, state.config.threads);
}

std::vector<uint8_t>
encodeFleetState(const FleetState &state, unsigned threads)
{
    std::vector<uint8_t> image;
    encodeImage(state, threads, image);
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
    checkpointWriter().submit(state, path);
}

void
flushFleetCheckpoints()
{
    checkpointWriter().flush();
}

FleetState
loadFleetCheckpoint(const std::string &path)
{
    flushFleetCheckpoints();
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

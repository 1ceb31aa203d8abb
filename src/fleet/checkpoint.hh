/**
 * @file
 * Versioned, checksummed fleet-campaign checkpoint files.
 *
 * The fleet engine writes its whole FleetState — campaign
 * configuration, per-die lifecycle records with their bit-packed
 * end-of-mission DFF states, histograms and digests — after every
 * epoch, so a killed campaign resumes bit-identically from disk.
 *
 * On-disk layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic "FLFT"
 *   4       4     format version (kFleetCheckpointVersion)
 *   8       ...   campaign configuration (fixed field order)
 *   ...     ...   epochsDone, deaths, per-die records, epoch and
 *                 bin outcome histograms
 *   end-4   4     CRC-32 (poly 0xEDB88320, reflected) over every
 *                 preceding byte
 *
 * Resume invariants:
 *  - loadFleetCheckpoint() fails closed (FatalError) on a short
 *    file, bad magic, unknown version, trailing garbage, any
 *    truncated record or record count the remaining bytes cannot
 *    hold, out-of-range enum value, bool byte other than 0/1, or
 *    CRC mismatch — a corrupt checkpoint can never silently yield
 *    a fresh state, and decode-then-encode reproduces the image.
 *  - Die records are checked against the salvage study only when
 *    an engine runs them: FleetEngine::run() rejects a poolIndex
 *    outside the deployable pool or a bin that disagrees with it.
 *  - The configuration is authoritative: resume rebuilds the
 *    engine (wafer + salvage studies, population pool) from the
 *    stored config, so only the path needs to be remembered.
 *  - Writes are atomic (tmp file + rename): a crash mid-write
 *    leaves the previous checkpoint intact.
 *  - Writes are queued: saveFleetCheckpoint() encodes the image on
 *    the calling thread (the die records in slices on the thread
 *    pool) and hands it to one process-wide writer thread, which
 *    does the tmp+rename while the caller goes on. At most one
 *    image is in flight. The next save, every load and
 *    flushFleetCheckpoints() wait for it and rethrow its write
 *    error, so an error surfaces there, not at the save that queued
 *    it. A process killed before the write lands loses that one
 *    update; resume recomputes it bit-identically.
 *  - Everything that feeds the campaign's remaining epochs lives in
 *    the file (the per-(die, epoch) RNG streams are counter-keyed,
 *    so epochsDone *is* the RNG cursor); a resumed run is therefore
 *    bit-identical to an uninterrupted one at any thread count.
 */

#ifndef FLEXI_FLEET_CHECKPOINT_HH
#define FLEXI_FLEET_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"

namespace flexi
{

constexpr uint32_t kFleetCheckpointVersion = 1;

/**
 * CRC-32 (IEEE, reflected poly 0xEDB88320) — the same value as
 * zlib's crc32(). Seed @p crc with 0; chaining continues a CRC, so
 * crc32(crc32(0, a), b) is the CRC of a followed by b.
 */
uint32_t crc32(uint32_t crc, const uint8_t *bytes, size_t n);

/**
 * The CRC-32 of a followed by b from @p crcA = crc32(0, a),
 * @p crcB = crc32(0, b) and @p lenB, b's length — zlib's
 * crc32_combine(): A's register is multiplied by x^(8 lenB) over
 * GF(2) (Mark Adler's method), in O(log lenB) steps.
 */
uint32_t crc32Combine(uint32_t crcA, uint32_t crcB, size_t lenB);

/**
 * Serialize @p state to the checkpoint byte format, encoding and
 * CRC-ing the die records in a fixed number of slices on @p threads
 * threads (0 = auto, 1 = inline). The bytes do not depend on
 * @p threads.
 */
std::vector<uint8_t> encodeFleetState(const FleetState &state,
                                      unsigned threads);

/** encodeFleetState() on state.config.threads threads. */
std::vector<uint8_t> encodeFleetState(const FleetState &state);

/** Parse a checkpoint image; FatalError on any validation failure. */
FleetState decodeFleetState(const std::vector<uint8_t> &bytes);

/**
 * Encode @p state and queue it to be written atomically to @p path
 * (tmp file + rename) by the process-wide writer thread. Waits for
 * the image still in flight first; FatalError if that write failed.
 */
void saveFleetCheckpoint(const FleetState &state,
                         const std::string &path);

/**
 * Wait for the checkpoint write in flight, if any; FatalError if it
 * failed. Call before reporting success: a write error is reported
 * once, by the first save, load or flush after it.
 */
void flushFleetCheckpoints();

/** Flush, then load a checkpoint; FatalError on I/O or validation
 *  failure. */
FleetState loadFleetCheckpoint(const std::string &path);

} // namespace flexi

#endif // FLEXI_FLEET_CHECKPOINT_HH

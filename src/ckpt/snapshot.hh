/**
 * @file
 * Versioned snapshot container for full-machine checkpoints.
 *
 * A Snapshot is an opaque payload (produced by the components'
 * Checkpointable::saveState chain) plus the configuration hash of the
 * machine that produced it. The on-disk format is:
 *
 *   bytes  0..7   magic "MCACKPT1"
 *   bytes  8..11  format version (little-endian u32, currently 2)
 *   bytes 12..19  configuration hash (u64)
 *   bytes 20..27  payload length (u64)
 *   ...           payload
 *   trailer       FNV-1a 64 content hash of everything above (u64)
 *
 * readFrom() validates magic, version, length, and the content hash;
 * SnapshotParser validates the configuration hash against the machine
 * doing the restore. Every failure throws std::runtime_error with a
 * message naming what disagreed.
 */

#ifndef MCA_CKPT_SNAPSHOT_HH
#define MCA_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ckpt/io.hh"

namespace mca::ckpt
{

/**
 * Current on-disk format version. Version 2 dropped the issue
 * scheduler's wake state from the CORE section (a restored scheduler
 * starts from a full scan instead).
 */
inline constexpr std::uint32_t kFormatVersion = 2;

struct Snapshot
{
    /** Hash of the producing machine's configuration. */
    std::uint64_t configHash = 0;
    /** Serialized component state (Writer-encoded). */
    std::string payload;

    /** Deterministic hash of header + payload (the file trailer). */
    std::uint64_t contentHash() const;

    /** Serialize in the on-disk format (header + payload + trailer). */
    void writeTo(std::ostream &os) const;
    /** Write to a file path; throws std::runtime_error on I/O failure. */
    void saveFile(const std::string &path) const;

    /** Parse and validate; throws std::runtime_error on any mismatch. */
    static Snapshot readFrom(std::istream &is);
    /** Read from a file path; throws std::runtime_error on failure. */
    static Snapshot loadFile(const std::string &path);
};

/** Accumulates component sections into a Snapshot. */
class SnapshotBuilder
{
  public:
    explicit SnapshotBuilder(std::uint64_t config_hash)
        : configHash_(config_hash)
    {}

    Writer &w() { return w_; }

    /** Open a named section (writes its sync marker). */
    void section(const char (&fourcc)[5]) { w_.tag(fourcc); }

    Snapshot
    finish()
    {
        return Snapshot{configHash_, w_.take()};
    }

  private:
    std::uint64_t configHash_;
    Writer w_;
};

/** Walks a Snapshot's sections for restore. */
class SnapshotParser
{
  public:
    /**
     * @param snap  The snapshot; must outlive the parser.
     * @param expect_config_hash  The restoring machine's configuration
     *        hash; throws std::runtime_error if it differs from the
     *        producer's (restoring onto a different machine shape).
     */
    SnapshotParser(const Snapshot &snap, std::uint64_t expect_config_hash);

    Reader &r() { return r_; }

    /** Expect a named section marker; throws when out of sync. */
    void section(const char (&fourcc)[5]) { r_.tag(fourcc); }

    /** Assert the payload was fully consumed. */
    void finish();

  private:
    Reader r_;
};

} // namespace mca::ckpt

#endif // MCA_CKPT_SNAPSHOT_HH

#ifndef ASD_SNAPSHOT_SNAPSHOT_HPP
#define ASD_SNAPSHOT_SNAPSHOT_HPP

/**
 * @file
 * Versioned, deterministic binary checkpoint format ("asdsnap/v1")
 * plus the Snapshottable interface every stateful simulator component
 * implements. A snapshot file is:
 *
 *   magic "asdsnap\0" | u32 format version | u64 config hash |
 *   u32 section count | sections...
 *
 * and each section is:
 *
 *   u32 name length | name bytes | u64 payload length |
 *   u32 CRC32(payload) | payload bytes
 *
 * All integers are little-endian. Sections are written in a fixed
 * order by the producer, so saving, restoring, and saving again
 * yields byte-identical files — the round-trip identity the snapshot
 * tests pin. The config hash binds a snapshot to the machine
 * configuration that produced it; readers reject mismatches instead
 * of silently restoring into a differently-shaped machine.
 *
 * Format evolution policy: any change to the header, the section
 * framing, or any section's payload layout bumps
 * kSnapshotFormatVersion; readers accept exactly one version. There
 * is no cross-version migration — snapshots are cheap to regenerate.
 */

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace asd
{

/**
 * Current (and only accepted) snapshot format version.
 * v2: RunOptions metadata grew the GHB correlation mode and the
 * phase-adaptive tuner block; GHB state grew delta-correlation
 * fields; tuned runs add a "tun" section.
 * v3: OS memory model + multi-tenant engine. The CPU's pending
 * access grew the address-space id, RunOptions metadata grew the
 * VM walker kind plus the "os"/"tenants" blocks, telemetry epochs
 * grew OS/tenant columns, and OS-enabled machines add an "os"
 * section.
 * v4: the asdsim_cli "cli" section stores the options JSON (the
 * text runConfigHash hashes) instead of a binary copy of RunOptions.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/**
 * Any way a snapshot can be unusable: truncated or corrupt bytes,
 * wrong magic, unsupported format version, CRC mismatch, missing
 * section, or a config hash that does not match the restoring
 * machine. Thrown by SnapshotReader; callers either surface it
 * (asdsim_cli fatals) or fall back to a cold start (warm-start
 * sweeps).
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of @p size bytes. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** FNV-1a 64-bit hash of @p text (used for config hashes). */
std::uint64_t fnv1a64(std::string_view text);

/**
 * Serializes primitive values into named sections and assembles the
 * final snapshot image. Usage: beginSection/primitives/endSection per
 * component, then finish(config_hash) exactly once.
 */
class SnapshotWriter
{
  public:
    /** Open a new section; panics on nesting or duplicate names. */
    void beginSection(std::string_view name);

    /** Close the currently open section. */
    void endSection();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void b(bool v);
    void str(std::string_view v);
    void vecU64(const std::vector<std::uint64_t> &v);

    /** Assemble the snapshot image. No further writes afterwards. */
    std::vector<std::uint8_t> finish(std::uint64_t config_hash);

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> payload;
    };

    std::vector<Section> sections_;
    bool open_ = false;
    bool finished_ = false;
};

/**
 * Parses and validates a snapshot image up front (magic, version,
 * framing, every section CRC), then serves bounds-checked primitive
 * reads from one open section at a time. Every malformed input throws
 * SnapshotError with a message naming what was wrong.
 */
class SnapshotReader
{
  public:
    /** Parse @p bytes; throws SnapshotError on any defect. */
    explicit SnapshotReader(std::vector<std::uint8_t> bytes);

    /** Config hash recorded in the header. */
    std::uint64_t configHash() const { return config_hash_; }

    /** Throw unless the header hash equals @p expected. */
    void requireConfigHash(std::uint64_t expected) const;

    bool hasSection(std::string_view name) const;

    /** Position the read cursor at the start of section @p name. */
    void openSection(std::string_view name);

    /** Close the section; throws if payload bytes remain unread. */
    void endSection();

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool b();
    std::string str();
    std::vector<std::uint64_t> vecU64();

    /** Throw SnapshotError(@p what) unless @p ok (shape checks). */
    static void check(bool ok, const std::string &what);

  private:
    struct Section
    {
        std::string name;
        std::size_t offset = 0; //!< payload start within bytes_
        std::size_t size = 0;
    };

    const Section *find(std::string_view name) const;
    void need(std::size_t n);

    std::vector<std::uint8_t> bytes_;
    std::vector<Section> sections_;
    std::uint64_t config_hash_ = 0;
    std::string open_name_;
    std::size_t cursor_ = 0;
    std::size_t end_ = 0;
    bool open_ = false;
};

/** Write @p bytes to @p path; throws SnapshotError on I/O failure. */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

/** Read @p path fully; throws SnapshotError on I/O failure. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

/**
 * Save/restore contract implemented by every stateful component.
 * saveState() writes the component's complete dynamic state (never
 * configuration — that is re-derived from the config the restoring
 * machine was built with) as a flat primitive stream; loadState()
 * reads back exactly the same stream into a freshly constructed
 * component of the same configuration. Unordered containers are
 * serialized in sorted key order so save -> load -> save is
 * byte-identical.
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    virtual void saveState(SnapshotWriter &w) const = 0;
    virtual void loadState(SnapshotReader &r) = 0;
};

} // namespace asd

#endif // ASD_SNAPSHOT_SNAPSHOT_HPP

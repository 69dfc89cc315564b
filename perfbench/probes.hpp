#ifndef ASDBENCH_PROBES_HPP
#define ASDBENCH_PROBES_HPP

/**
 * @file
 * Measurement taken from outside the simulator: forwarding wrappers
 * that time and record the calls crossing two layer boundaries (the
 * trace source and the memory-side prefetcher interface), and timed
 * replays of what they recorded through standalone instances of the
 * cache hierarchy, the OS model and the memory controller with its
 * DRAM. Nothing here changes what is simulated: the wrappers forward
 * every call unchanged, and the replays run on machines of their own.
 */

#include <chrono>
#include <cstdint>
#include <vector>

#include "mc/prefetcher_iface.hpp"
#include "sim/system_config.hpp"
#include "trace/trace_source.hpp"

namespace asdbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p start to now. */
inline double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/**
 * Host cost of one Clock::now() call, measured once per process. A
 * timed call is charged this much too much, so spans subtract it.
 */
double clockOverheadNs();

/** Calls into one layer and the host time they took. */
struct Span
{
    std::uint64_t calls = 0;
    double ns = 0.0;

    void
    add(Clock::time_point start)
    {
        ++calls;
        ns += nsSince(start) - clockOverheadNs();
    }

    double perCall() const { return calls ? ns / double(calls) : 0.0; }
};

/** Forwards a TraceSource, timing next() and recording its output. */
class TracingSource : public asd::TraceSource
{
  public:
    explicit TracingSource(asd::TraceSource &inner) : inner_(inner) {}

    bool next(asd::MemAccess &out) override;
    void reset() override { inner_.reset(); }
    void
    saveState(asd::SnapshotWriter &w) const override
    {
        inner_.saveState(w);
    }
    void
    loadState(asd::SnapshotReader &r) override
    {
        inner_.loadState(r);
    }

    const Span &span() const { return span_; }
    const std::vector<asd::MemAccess> &captured() const
    {
        return captured_;
    }

  private:
    asd::TraceSource &inner_;
    Span span_;
    std::vector<asd::MemAccess> captured_;
};

/** One read or write as the memory controller accepted it. */
struct McEvent
{
    asd::Cycle cycle = 0;
    asd::LineAddr line = 0;
    bool write = false;
};

/**
 * Forwards a MemSidePrefetcher (installed with
 * MemoryController::attachPrefetcher in front of System::asd()),
 * timing observeRead() and tick() and recording every read and write
 * the controller accepted.
 */
class TracingPrefetcher : public asd::MemSidePrefetcher
{
  public:
    explicit TracingPrefetcher(asd::MemSidePrefetcher &inner)
        : inner_(inner)
    {}

    std::vector<asd::LineAddr> observeRead(asd::LineAddr line,
                                           std::uint32_t thread,
                                           asd::Cycle now) override;
    void observeWrite(asd::LineAddr line, asd::Cycle now) override;
    bool
    lookupBuffer(asd::LineAddr line) override
    {
        return inner_.lookupBuffer(line);
    }
    bool
    bufferContains(asd::LineAddr line) const override
    {
        return inner_.bufferContains(line);
    }
    void
    fillBuffer(asd::LineAddr line, asd::Cycle now) override
    {
        inner_.fillBuffer(line, now);
    }
    int schedulingPolicy() const override
    {
        return inner_.schedulingPolicy();
    }
    void
    notifyPrefetchConflict(asd::Cycle now) override
    {
        inner_.notifyPrefetchConflict(now);
    }
    void tick(asd::Cycle now) override;
    void
    saveState(asd::SnapshotWriter &w) const override
    {
        inner_.saveState(w);
    }
    void
    loadState(asd::SnapshotReader &r) override
    {
        inner_.loadState(r);
    }

    const Span &observeSpan() const { return observe_; }
    const Span &tickSpan() const { return tick_; }
    const std::vector<McEvent> &captured() const { return captured_; }

  private:
    asd::MemSidePrefetcher &inner_;
    Span observe_;
    Span tick_;
    std::vector<McEvent> captured_;
};

/** What a replay consumed and how long it took. */
struct ReplayResult
{
    std::uint64_t consumed = 0;
    double ns = 0.0;
};

/** An OS replay, with the kernel's counters at its end. */
struct OsReplayResult : ReplayResult
{
    std::uint64_t minor_faults = 0;
    std::uint64_t major_faults = 0;
    std::uint64_t reclaims = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t shootdowns = 0;
};

/**
 * Translate @p accesses in order through a fresh OsKernel and one
 * OsMmu, as TraceCpu does (one translate() per access), and store
 * the physical line of each access in @p lines. A single-threaded
 * run makes the same calls, so its counters match the traced run's.
 */
OsReplayResult replayOs(const asd::SystemConfig &config,
                        const std::vector<asd::MemAccess> &accesses,
                        std::vector<asd::LineAddr> &lines);

/**
 * Look each access up in a fresh CacheHierarchy, filling misses at
 * once and draining castouts as they appear.
 */
ReplayResult replayCache(const asd::SystemConfig &config,
                         const std::vector<asd::MemAccess> &accesses,
                         const std::vector<asd::LineAddr> &lines);

/** Timed replay of the controller-visible stream. */
struct McReplayResult
{
    std::uint64_t consumed = 0;  //!< events accepted by the controller
    std::uint64_t completed = 0; //!< read completions delivered
    Span enqueue;
    Span tick;
};

/**
 * Feed @p events to a fresh MemoryController + Dram (no prefetcher)
 * at their recorded cycles, retrying a rejected event on the next
 * cycle, ticking every cycle while the controller has work and
 * skipping idle gaps, until every event is accepted and every read
 * completed.
 */
McReplayResult replayMc(const asd::SystemConfig &config,
                        const std::vector<McEvent> &events);

} // namespace asdbench

#endif // ASDBENCH_PROBES_HPP

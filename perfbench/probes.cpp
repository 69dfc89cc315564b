#include "probes.hpp"

#include <algorithm>
#include <deque>

#include "cache/hierarchy.hpp"
#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "os/kernel.hpp"
#include "os/os_mmu.hpp"

namespace asdbench
{

double
clockOverheadNs()
{
    static const double overhead = [] {
        // Median of several batches, so one preemption cannot skew it.
        constexpr int kBatch = 20000;
        std::vector<double> per_call;
        for (int b = 0; b < 9; ++b) {
            const Clock::time_point start = Clock::now();
            for (int i = 0; i < kBatch; ++i)
                (void)Clock::now();
            per_call.push_back(nsSince(start) / kBatch);
        }
        std::sort(per_call.begin(), per_call.end());
        return per_call[per_call.size() / 2];
    }();
    return overhead;
}

bool
TracingSource::next(asd::MemAccess &out)
{
    const Clock::time_point start = Clock::now();
    const bool ok = inner_.next(out);
    span_.add(start);
    if (ok)
        captured_.push_back(out);
    return ok;
}

std::vector<asd::LineAddr>
TracingPrefetcher::observeRead(asd::LineAddr line, std::uint32_t thread,
                               asd::Cycle now)
{
    captured_.push_back({now, line, false});
    const Clock::time_point start = Clock::now();
    std::vector<asd::LineAddr> out = inner_.observeRead(line, thread, now);
    observe_.add(start);
    return out;
}

void
TracingPrefetcher::observeWrite(asd::LineAddr line, asd::Cycle now)
{
    captured_.push_back({now, line, true});
    inner_.observeWrite(line, now);
}

void
TracingPrefetcher::tick(asd::Cycle now)
{
    const Clock::time_point start = Clock::now();
    inner_.tick(now);
    tick_.add(start);
}

OsReplayResult
replayOs(const asd::SystemConfig &config,
         const std::vector<asd::MemAccess> &accesses,
         std::vector<asd::LineAddr> &lines)
{
    asd::OsKernel kernel(config.os, config.vm);
    asd::OsMmu mmu(config.vm, kernel, 0);
    lines.assign(accesses.size(), 0);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        asd::Cycles stall = 0;
        lines[i] = mmu.translate(accesses[i], stall) /
                   config.cpu.line_bytes;
    }
    OsReplayResult result;
    result.ns = nsSince(start);
    result.consumed = accesses.size();
    result.minor_faults = kernel.minorFaults();
    result.major_faults = kernel.majorFaults();
    result.reclaims = kernel.reclaims();
    result.writebacks = kernel.writebacks();
    result.shootdowns = kernel.shootdowns();
    return result;
}

ReplayResult
replayCache(const asd::SystemConfig &config,
            const std::vector<asd::MemAccess> &accesses,
            const std::vector<asd::LineAddr> &lines)
{
    asd::CacheHierarchy hierarchy(config.hierarchy);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const bool is_store = accesses[i].op == asd::MemOp::Write;
        if (hierarchy.access(lines[i], is_store).needs_memory) {
            hierarchy.fill(lines[i], is_store);
            (void)hierarchy.drainWritebacks(); // castouts go nowhere
        }
    }
    ReplayResult result;
    result.ns = nsSince(start);
    result.consumed = accesses.size();
    return result;
}

McReplayResult
replayMc(const asd::SystemConfig &config,
         const std::vector<McEvent> &events)
{
    McReplayResult result;
    asd::Dram dram(config.dram);
    asd::MemoryController mc(
        config.mc, dram,
        [&result](std::uint64_t, asd::Cycle) { ++result.completed; });
    std::deque<McEvent> reads;
    std::deque<McEvent> writes;
    std::uint64_t next_id = 1;
    std::size_t idx = 0;
    asd::Cycle now = events.empty() ? 0 : events.front().cycle;
    while (idx < events.size() || !reads.empty() || !writes.empty() ||
           !mc.idle()) {
        for (; idx < events.size() && events[idx].cycle <= now; ++idx)
            (events[idx].write ? writes : reads).push_back(events[idx]);
        // Reads and writes queue separately in the controller, so a
        // full read queue must not hold back a write, or vice versa.
        while (!reads.empty()) {
            const Clock::time_point start = Clock::now();
            const bool ok =
                mc.enqueueRead(reads.front().line, next_id, 0, now);
            result.enqueue.add(start);
            if (!ok)
                break;
            ++next_id;
            reads.pop_front();
            ++result.consumed;
        }
        while (!writes.empty()) {
            const Clock::time_point start = Clock::now();
            const bool ok = mc.enqueueWrite(writes.front().line, now);
            result.enqueue.add(start);
            if (!ok)
                break;
            writes.pop_front();
            ++result.consumed;
        }
        const Clock::time_point start = Clock::now();
        mc.tick(now);
        result.tick.add(start);
        // Skip idle gaps as the System's fast-forward does.
        if (!mc.hasWork() && reads.empty() && writes.empty() &&
            idx < events.size())
            now = std::max(now + 1, events[idx].cycle);
        else
            ++now;
    }
    return result;
}

} // namespace asdbench

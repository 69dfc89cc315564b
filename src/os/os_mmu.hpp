#ifndef ASD_OS_OS_MMU_HPP
#define ASD_OS_OS_MMU_HPP

/**
 * @file
 * The OS model's former MMU name. There is one Mmu for every
 * translation; this alias keeps the host-throughput benchmark's
 * probes (perfbench/probes.cpp) building unchanged.
 */

#include "os/mmu.hpp"

namespace asd
{

using OsMmu = Mmu;

} // namespace asd

#endif // ASD_OS_OS_MMU_HPP

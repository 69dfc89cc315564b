#include "sim/snapshot_io.hpp"

#include "sim/serialize.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

std::uint64_t
runConfigHash(const std::string &bench_name, std::uint64_t accesses,
              const RunOptions &options)
{
    return fnv1a64(bench_name + "\n" + std::to_string(accesses) +
                   "\n" + toJson(options));
}

} // namespace asd

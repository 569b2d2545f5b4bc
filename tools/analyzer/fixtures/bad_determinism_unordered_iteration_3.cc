// analyzer-virtual-path: src/cluster/fixture_unordered.cc
// Self-test fixture: hash-map containers in an output-assembly layer
// must trip unordered-iteration — iteration order is
// implementation-defined and would leak into serialized reports.
#include <cstdint>
#include <string>
#include <unordered_map>

std::uint64_t
totalBytes(const std::unordered_map<std::string, std::uint64_t> &sizes)
{
    std::uint64_t total = 0;
    for (const auto &[key, bytes] : sizes)
        total += bytes;
    return total;
}

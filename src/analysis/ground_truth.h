/**
 * @file
 * Ground-truth capture: a branch observer that records, outside the
 * simulated machine (zero cost), exactly what an exhaustive tracer
 * would see for the target process — per-core branch counts, the
 * per-function instruction histogram, and optionally full block paths.
 * Decoded traces are scored against this (paper §5.3 uses exhaustive
 * NHT as the reference; the simulator lets us use the true execution).
 */
#ifndef EXIST_ANALYSIS_GROUND_TRUTH_H
#define EXIST_ANALYSIS_GROUND_TRUTH_H

#include <cstdint>
#include <map>
#include <vector>

#include "os/kernel.h"

namespace exist {

class GroundTruthRecorder final : public BranchObserver
{
  public:
    GroundTruthRecorder() = default;
    // Holds a pointer into its own map; registered with the kernel by
    // address.
    GroundTruthRecorder(const GroundTruthRecorder &) = delete;
    GroundTruthRecorder &operator=(const GroundTruthRecorder &) = delete;

    /** Start recording branches of `pid` on `kernel`. */
    void arm(Kernel &kernel, ProcessId pid, bool record_paths = false);

    /** Stop recording (keeps the data). */
    void disarm(Kernel &kernel);

    void onBranch(CoreId core, const Thread &t, const BranchRecord &rec,
                  Cycles now) override;

    std::uint64_t totalBranches() const { return total_branches_; }
    std::uint64_t totalInsns() const { return total_insns_; }
    const std::vector<std::uint64_t> &branchesPerCore() const
    {
        return per_core_;
    }
    const std::vector<std::uint64_t> &functionInsns() const
    {
        return function_insns_;
    }
    const std::vector<std::uint64_t> &functionEntries() const
    {
        return function_entries_;
    }
    /** Full block path per core (only when record_paths). */
    const std::vector<std::vector<std::uint32_t>> &paths() const
    {
        return paths_;
    }

    /** Branch counts per thread of the target (attribution reference). */
    const std::map<ThreadId, std::uint64_t> &branchesPerThread() const
    {
        return per_thread_;
    }

  private:
    ProcessId pid_ = kInvalidId;
    bool record_paths_ = false;
    std::uint64_t total_branches_ = 0;
    std::uint64_t total_insns_ = 0;
    std::vector<std::uint64_t> per_core_;
    std::vector<std::uint64_t> function_insns_;
    std::vector<std::uint64_t> function_entries_;
    std::vector<std::vector<std::uint32_t>> paths_;
    std::map<ThreadId, std::uint64_t> per_thread_;
    /** per_thread_ entry of the last thread seen (map nodes are
     *  stable): consecutive branches mostly come from one thread. */
    ThreadId cached_tid_ = kInvalidId;
    std::uint64_t *cached_count_ = nullptr;
};

}  // namespace exist

#endif  // EXIST_ANALYSIS_GROUND_TRUTH_H

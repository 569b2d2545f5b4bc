#include "analysis/ground_truth.h"

#include "util/logging.h"

namespace exist {

void
GroundTruthRecorder::arm(Kernel &kernel, ProcessId pid, bool record_paths)
{
    pid_ = pid;
    record_paths_ = record_paths;
    total_branches_ = 0;
    total_insns_ = 0;
    per_core_.assign(static_cast<std::size_t>(kernel.numCores()), 0);
    paths_.assign(static_cast<std::size_t>(kernel.numCores()), {});
    function_insns_.clear();
    function_entries_.clear();
    per_thread_.clear();
    cached_tid_ = kInvalidId;
    cached_count_ = nullptr;
    kernel.setBranchObserver(this);
}

void
GroundTruthRecorder::disarm(Kernel &kernel)
{
    kernel.setBranchObserver(nullptr);
}

void
GroundTruthRecorder::onBranch(CoreId core, const Thread &t,
                              const BranchRecord &rec, Cycles)
{
    if (t.process().pid() != pid_)
        return;
    const ProgramBinary &prog = t.process().binary();
    if (function_insns_.empty()) {
        function_insns_.assign(prog.numFunctions(), 0);
        function_entries_.assign(prog.numFunctions(), 0);
    }
    const BasicBlock &b = prog.block(rec.source_block);
    ++total_branches_;
    total_insns_ += b.insns;
    ++per_core_[static_cast<std::size_t>(core)];
    if (t.tid() != cached_tid_) {
        cached_tid_ = t.tid();
        cached_count_ = &per_thread_[cached_tid_];
    }
    ++*cached_count_;
    function_insns_[b.function_id] += b.insns;
    if (prog.function(b.function_id).entry_block == rec.source_block)
        ++function_entries_[b.function_id];
    if (record_paths_)
        paths_[static_cast<std::size_t>(core)].push_back(
            rec.source_block);
}

}  // namespace exist

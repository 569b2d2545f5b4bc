/**
 * @file
 * The execution engine: walks a ProgramBinary block by block, making
 * stochastic branch decisions, and reports each retired control transfer.
 * This is the event source both for virtual-time accounting (a block of
 * N instructions costs N * CPI cycles) and for the hardware tracer.
 */
#ifndef EXIST_WORKLOAD_EXECUTION_H
#define EXIST_WORKLOAD_EXECUTION_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "workload/branch.h"
#include "workload/program.h"

namespace exist {

/** Outcome of executing one basic block. */
struct StepResult {
    std::uint32_t insns;  ///< instructions retired by the block
    BranchRecord branch;  ///< the terminating control transfer
    /**
     * The thread enters the kernel after this block (syscall). This is
     * a runtime overlay driven by the profile's syscall rate rather
     * than a CFG property, so the rate is exact regardless of which
     * paths happen to be hot; structural kSyscall blocks (if any) also
     * set it.
     */
    bool syscall = false;
};

/**
 * Per-thread architectural execution state. Deterministic in
 * (program, seed); forked seeds give each thread an independent but
 * reproducible path through the CFG.
 */
class ExecutionContext
{
  public:
    ExecutionContext(const ProgramBinary *program, std::uint64_t seed)
        : prog_(program), rng_(seed), cur_(program->entryBlock())
    {
        stack_.reserve(kMaxStackDepth);
        double rate = program->profile().syscalls_per_kinsn;
        if (rate > 0.0) {
            syscall_mean_insns_ = 1000.0 / rate;
            insns_until_syscall_ =
                rng_.exponential(syscall_mean_insns_);
        }
        if (program->profile().phase_insns > 0.0 &&
            program->profile().phase_strength > 0.0) {
            phase_period_ = program->profile().phase_insns;
            phase_shift_ = 0.5 * program->profile().phase_strength;
            phase_origin_ = rng_.uniform();  // runs start mid-phase
        }
    }

    /** Execute the current block; advances to the branch target. */
    StepResult
    step()
    {
        const BasicBlock &b = prog_->block(cur_);
        BranchRecord rec;
        rec.source_block = cur_;
        rec.kind = b.kind;
        rec.taken = false;

        std::uint32_t target;
        switch (b.kind) {
          case BranchKind::kConditional:
            rec.taken = takeConditional(b);
            target = rec.taken ? b.target0 : b.target1;
            break;
          case BranchKind::kDirectJump:
            target = b.target0;
            break;
          case BranchKind::kDirectCall:
            pushReturn(b.target1);
            target = b.target0;
            break;
          case BranchKind::kIndirectJump:
            target = indirectTarget(b);
            break;
          case BranchKind::kIndirectCall:
            pushReturn(b.target1);
            target = indirectTarget(b);
            break;
          case BranchKind::kReturn:
            if (stack_.empty()) {
                // Unbalanced return (the generator allows early returns
                // in the main loop): restart the main loop. The TIP
                // packet carries the real target, so decoding is exact.
                target = prog_->entryBlock();
            } else {
                target = stack_.back();
                stack_.pop_back();
            }
            break;
          case BranchKind::kSyscall:
            target = b.target1;
            break;
          default:
            target = b.target0;
            break;
        }

        rec.target_block = target;
        cur_ = target;

        insns_total_ += b.insns;
        StepResult res{b.insns, rec, b.kind == BranchKind::kSyscall};
        if (syscall_mean_insns_ > 0.0) {
            insns_until_syscall_ -= static_cast<double>(b.insns);
            if (insns_until_syscall_ <= 0.0) {
                res.syscall = true;
                insns_until_syscall_ +=
                    rng_.exponential(syscall_mean_insns_);
            }
        }
        return res;
    }

    std::uint32_t currentBlock() const { return cur_; }
    const ProgramBinary &program() const { return *prog_; }
    std::size_t callDepth() const { return stack_.size(); }

  private:
    static constexpr std::size_t kMaxStackDepth = 96;

    /** Current phase position in [-1, 1]. */
    double
    phase() const
    {
        if (phase_period_ <= 0.0)
            return 0.0;
        double t = static_cast<double>(insns_total_) / phase_period_ +
                   phase_origin_;
        return std::sin(6.28318530717958647692 * t);
    }

    /*
     * The phase moves a branch by phase_shift_ * phase(), and phase()
     * lies in [-1, 1]. IEEE +, * and std::clamp are monotone, so the
     * phased value lies between its values at phase -1 and +1. A draw
     * outside that band decides the branch without the sine; the RNG
     * sequence and every outcome match the eager computation.
     */

    /** Taken with probability clamp(p + shift * phase(), .02, .98). */
    bool
    takeConditional(const BasicBlock &b)
    {
        const double p = static_cast<double>(b.prob_taken_x1e4) * 1e-4;
        const double u = rng_.uniform();
        if (u < std::clamp(p - phase_shift_, 0.02, 0.98))
            return true;
        if (u >= std::clamp(p + phase_shift_, 0.02, 0.98))
            return false;
        return u < std::clamp(p + phase_shift_ * phase(), 0.02, 0.98);
    }

    /** Target table entry chosen by a uniform draw skewed by the phase
     *  (wrapped into [0, 1)): shifts which entries are favoured as
     *  phases change. When the band stays inside [0, 1) and both ends
     *  select one table position, every phase selects it. */
    std::uint32_t
    indirectTarget(const BasicBlock &b)
    {
        const double r = rng_.uniform();
        const double lo = r - phase_shift_;
        const double hi = r + phase_shift_;
        if (lo >= 0.0 && hi < 1.0) {
            const std::uint32_t slot = prog_->indirectSlot(b, lo);
            if (slot == prog_->indirectSlot(b, hi))
                return prog_->indirectTarget(b, slot);
        }
        double u = r + phase_shift_ * phase();
        u -= std::floor(u);
        return prog_->resolveIndirect(b, u);
    }

    void
    pushReturn(std::uint32_t block)
    {
        if (stack_.size() >= kMaxStackDepth)
            stack_.erase(stack_.begin());
        stack_.push_back(block);
    }

    const ProgramBinary *prog_;
    Rng rng_;
    std::uint32_t cur_;
    std::vector<std::uint32_t> stack_;
    double syscall_mean_insns_ = 0.0;
    double insns_until_syscall_ = 0.0;
    std::uint64_t insns_total_ = 0;
    double phase_period_ = 0.0;
    /** Largest shift the phase applies: half the profile strength. */
    double phase_shift_ = 0.0;
    double phase_origin_ = 0.0;
};

}  // namespace exist

#endif  // EXIST_WORKLOAD_EXECUTION_H

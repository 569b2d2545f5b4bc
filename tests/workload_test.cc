/**
 * @file
 * Tests for the program model: structural invariants of generated
 * binaries (parameterized over the whole application catalog) and
 * behavioural properties of the execution engine.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "workload/app_profile.h"
#include "workload/execution.h"
#include "workload/program.h"

namespace exist {

/** Builds binaries by hand for edge cases generation rarely hits. */
class ProgramBinaryTestPeer
{
  public:
    static ProgramBinary
    make(const AppProfile &profile, std::vector<BasicBlock> blocks,
         std::vector<IndirectTarget> targets)
    {
        ProgramBinary prog;
        prog.name_ = profile.name;
        prog.profile_ = profile;
        ProgramFunction fn;
        fn.name = "main";
        fn.num_blocks = static_cast<std::uint32_t>(blocks.size());
        prog.functions_.push_back(fn);
        for (std::size_t i = 0; i < blocks.size(); ++i)
            blocks[i].address = 0x1000 + 0x10 * i;
        prog.blocks_ = std::move(blocks);
        prog.indirect_targets_ = std::move(targets);
        return prog;
    }
};

namespace {

class GenerationInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    ProgramBinary
    make(std::uint64_t seed = 0x5eed) const
    {
        return ProgramBinary::generate(AppCatalog::find(GetParam()),
                                       seed);
    }
};

TEST_P(GenerationInvariants, TargetsAreValidBlocks)
{
    ProgramBinary prog = make();
    for (const BasicBlock &b : prog.blocks()) {
        switch (b.kind) {
          case BranchKind::kConditional:
            ASSERT_LT(b.target0, prog.numBlocks());
            ASSERT_LT(b.target1, prog.numBlocks());
            break;
          case BranchKind::kDirectJump:
          case BranchKind::kDirectCall:
            ASSERT_LT(b.target0, prog.numBlocks());
            break;
          case BranchKind::kSyscall:
            ASSERT_LT(b.target1, prog.numBlocks());
            break;
          case BranchKind::kIndirectJump:
          case BranchKind::kIndirectCall:
            ASSERT_GT(b.itable_count, 0u);
            for (std::uint32_t i = 0; i < b.itable_count; ++i)
                ASSERT_LT(prog.indirectTargets()[b.itable_begin + i]
                              .block,
                          prog.numBlocks());
            break;
          case BranchKind::kReturn:
            break;
        }
    }
}

TEST_P(GenerationInvariants, DirectCallsFormDag)
{
    // Callee function id strictly greater than caller id: statically
    // followed call chains must terminate (decoder liveness).
    ProgramBinary prog = make();
    for (const BasicBlock &b : prog.blocks()) {
        if (b.kind != BranchKind::kDirectCall)
            continue;
        const BasicBlock &callee = prog.block(b.target0);
        EXPECT_GT(callee.function_id, b.function_id);
    }
}

TEST_P(GenerationInvariants, DirectJumpsAreForward)
{
    ProgramBinary prog = make();
    for (std::uint32_t i = 0; i < prog.numBlocks(); ++i) {
        const BasicBlock &b = prog.block(i);
        if (b.kind != BranchKind::kDirectJump)
            continue;
        // Exception: the main loop's final block jumps back to entry.
        const ProgramFunction &fn = prog.function(b.function_id);
        if (b.function_id == 0 && i == fn.first_block + fn.num_blocks - 1)
            continue;
        EXPECT_GT(b.target0, i);
    }
}

TEST_P(GenerationInvariants, MainLoopHasNoReturns)
{
    ProgramBinary prog = make();
    const ProgramFunction &main_fn = prog.function(0);
    for (std::uint32_t i = 0; i < main_fn.num_blocks; ++i)
        EXPECT_NE(prog.block(main_fn.first_block + i).kind,
                  BranchKind::kReturn);
    // And its entry consumes a TNT bit (cycle-safety).
    EXPECT_EQ(prog.block(main_fn.entry_block).kind,
              BranchKind::kConditional);
}

TEST_P(GenerationInvariants, AddressesMonotonicAndResolvable)
{
    ProgramBinary prog = make();
    std::uint64_t prev_end = 0;
    for (std::uint32_t i = 0; i < prog.numBlocks(); ++i) {
        const BasicBlock &b = prog.block(i);
        ASSERT_GE(b.address, prev_end);
        prev_end = b.address + b.size_bytes;
        // Start, middle and last byte all resolve to this block.
        EXPECT_EQ(prog.blockAtAddress(b.address), i);
        EXPECT_EQ(prog.blockAtAddress(b.address + b.size_bytes / 2), i);
        EXPECT_EQ(prog.blockAtAddress(b.address + b.size_bytes - 1), i);
    }
    EXPECT_EQ(prog.blockAtAddress(0), kNoBlock);
    EXPECT_EQ(prog.blockAtAddress(prev_end + 1024), kNoBlock);
}

TEST_P(GenerationInvariants, DeterministicInSeed)
{
    ProgramBinary a = make(77), b = make(77), c = make(78);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (std::uint32_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.block(i).address, b.block(i).address);
        EXPECT_EQ(a.block(i).kind, b.block(i).kind);
        EXPECT_EQ(a.block(i).target0, b.block(i).target0);
    }
    // A different seed must actually change the program.
    bool differs = a.numBlocks() != c.numBlocks();
    for (std::uint32_t i = 0; !differs && i < a.numBlocks(); ++i)
        differs = a.block(i).kind != c.block(i).kind ||
                  a.block(i).insns != c.block(i).insns;
    EXPECT_TRUE(differs);
}

TEST_P(GenerationInvariants, FunctionsPartitionBlocks)
{
    ProgramBinary prog = make();
    std::uint32_t covered = 0;
    for (const ProgramFunction &fn : prog.functions()) {
        EXPECT_EQ(fn.first_block, covered);
        EXPECT_EQ(fn.entry_block, fn.first_block);
        covered += fn.num_blocks;
        for (std::uint32_t i = 0; i < fn.num_blocks; ++i)
            EXPECT_EQ(prog.block(fn.first_block + i).function_id,
                      &fn - prog.functions().data());
    }
    EXPECT_EQ(covered, prog.numBlocks());
}

INSTANTIATE_TEST_SUITE_P(AllCatalogApps, GenerationInvariants,
                         ::testing::ValuesIn(AppCatalog::allNames()));

TEST(Execution, DeterministicForSameSeed)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("om"), 1);
    ExecutionContext a(&prog, 9), b(&prog, 9);
    for (int i = 0; i < 20000; ++i) {
        StepResult sa = a.step(), sb = b.step();
        ASSERT_EQ(sa.branch.source_block, sb.branch.source_block);
        ASSERT_EQ(sa.branch.target_block, sb.branch.target_block);
        ASSERT_EQ(sa.syscall, sb.syscall);
    }
}

TEST(Execution, TransitionsFollowStaticStructure)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("de"), 3);
    ExecutionContext exec(&prog, 5);
    for (int i = 0; i < 50000; ++i) {
        std::uint32_t before = exec.currentBlock();
        StepResult s = exec.step();
        ASSERT_EQ(s.branch.source_block, before);
        ASSERT_EQ(s.branch.target_block, exec.currentBlock());
        const BasicBlock &b = prog.block(before);
        if (b.kind == BranchKind::kConditional) {
            ASSERT_TRUE(s.branch.target_block == b.target0 ||
                        s.branch.target_block == b.target1);
        } else if (b.kind == BranchKind::kDirectJump ||
                   b.kind == BranchKind::kDirectCall) {
            ASSERT_EQ(s.branch.target_block, b.target0);
        }
    }
}

TEST(Execution, SyscallRateTracksProfile)
{
    AppProfile profile = AppCatalog::find("mc");
    profile.phase_strength = 0.0;  // isolate the rate property
    ProgramBinary prog = ProgramBinary::generate(profile, 6);
    ExecutionContext exec(&prog, 7);
    std::uint64_t insns = 0, syscalls = 0;
    for (int i = 0; i < 400000; ++i) {
        StepResult s = exec.step();
        insns += s.insns;
        syscalls += s.syscall ? 1 : 0;
    }
    double rate = 1000.0 * static_cast<double>(syscalls) /
                  static_cast<double>(insns);
    EXPECT_NEAR(rate, profile.syscalls_per_kinsn,
                profile.syscalls_per_kinsn * 0.15);
}

TEST(Execution, PhasesShiftFunctionMix)
{
    // With phases enabled, two far-apart windows of the same run have
    // visibly different function distributions; with phases disabled
    // they are nearly identical.
    auto window_profiles = [](double strength) {
        AppProfile profile = AppCatalog::find("Search1");
        profile.phase_strength = strength;
        ProgramBinary prog = ProgramBinary::generate(profile, 8);
        ExecutionContext exec(&prog, 9);
        std::map<std::uint32_t, double> w1, w2;
        for (int i = 0; i < 150000; ++i)
            w1[prog.block(exec.step().branch.source_block)
                   .function_id] += 1;
        for (int i = 0; i < 150000; ++i)
            exec.step();  // skip a phase
        for (int i = 0; i < 150000; ++i)
            w2[prog.block(exec.step().branch.source_block)
                   .function_id] += 1;
        double l1 = 0;
        std::set<std::uint32_t> keys;
        for (auto &[k, v] : w1)
            keys.insert(k);
        for (auto &[k, v] : w2)
            keys.insert(k);
        for (std::uint32_t k : keys)
            l1 += std::abs(w1[k] / 150000 - w2[k] / 150000);
        return l1;
    };
    EXPECT_GT(window_profiles(0.5), window_profiles(0.0));
}

TEST(Execution, CallDepthIsBounded)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("de"), 10);
    ExecutionContext exec(&prog, 11);
    for (int i = 0; i < 200000; ++i) {
        exec.step();
        ASSERT_LE(exec.callDepth(), 96u);
    }
}

/**
 * The execution engine as it was before the phase sine became lazy:
 * it evaluates the sine on every conditional and indirect branch. The
 * engine must reproduce its StepResult stream exactly.
 */
class EagerExecution
{
  public:
    EagerExecution(const ProgramBinary *program, std::uint64_t seed)
        : prog_(program), rng_(seed), cur_(program->entryBlock())
    {
        double rate = program->profile().syscalls_per_kinsn;
        if (rate > 0.0) {
            syscall_mean_insns_ = 1000.0 / rate;
            insns_until_syscall_ = rng_.exponential(syscall_mean_insns_);
        }
        if (program->profile().phase_insns > 0.0 &&
            program->profile().phase_strength > 0.0) {
            phase_period_ = program->profile().phase_insns;
            phase_strength_ = program->profile().phase_strength;
            phase_origin_ = rng_.uniform();
        }
    }

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
          case BranchKind::kConditional: {
            double p = static_cast<double>(b.prob_taken_x1e4) * 1e-4;
            p = std::clamp(p + 0.5 * phase_strength_ * phase(), 0.02,
                           0.98);
            rec.taken = rng_.uniform() < p;
            target = rec.taken ? b.target0 : b.target1;
            break;
          }
          case BranchKind::kDirectJump:
            target = b.target0;
            break;
          case BranchKind::kDirectCall:
            pushReturn(b.target1);
            target = b.target0;
            break;
          case BranchKind::kIndirectJump:
            target = resolve(b, phasedUniform());
            break;
          case BranchKind::kIndirectCall:
            pushReturn(b.target1);
            target = resolve(b, phasedUniform());
            break;
          case BranchKind::kReturn:
            if (stack_.empty()) {
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

  private:
    double
    phase() const
    {
        if (phase_period_ <= 0.0)
            return 0.0;
        double t = static_cast<double>(insns_total_) / phase_period_ +
                   phase_origin_;
        return std::sin(6.28318530717958647692 * t);
    }

    double
    phasedUniform()
    {
        double u = rng_.uniform() + 0.5 * phase_strength_ * phase();
        u -= std::floor(u);
        return u;
    }

    std::uint32_t
    resolve(const BasicBlock &b, double u) const
    {
        const auto &all = prog_->indirectTargets();
        const auto begin = all.begin() + b.itable_begin;
        const auto end = begin + b.itable_count;
        auto it = std::lower_bound(begin, end, static_cast<float>(u),
                                   [](const IndirectTarget &t, float v) {
                                       return t.cumulative_weight < v;
                                   });
        if (it == end)
            --it;
        return it->block;
    }

    void
    pushReturn(std::uint32_t block)
    {
        if (stack_.size() >= 96)
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
    double phase_strength_ = 0.0;
    double phase_origin_ = 0.0;
};

/** Steps both engines `steps` times; fails at the first difference. */
void
expectSameStream(const ProgramBinary &prog, std::uint64_t seed,
                 long steps)
{
    SCOPED_TRACE(::testing::Message() << prog.name() << " seed " << seed);
    ExecutionContext lazy(&prog, seed);
    EagerExecution eager(&prog, seed);
    for (long i = 0; i < steps; ++i) {
        const StepResult a = lazy.step();
        const StepResult b = eager.step();
        ASSERT_TRUE(a.insns == b.insns &&
                    a.branch.source_block == b.branch.source_block &&
                    a.branch.target_block == b.branch.target_block &&
                    a.branch.kind == b.branch.kind &&
                    a.branch.taken == b.branch.taken &&
                    a.syscall == b.syscall)
            << "diverged at step " << i << " in block "
            << b.branch.source_block;
    }
}

class LazyPhaseMatchesEager : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LazyPhaseMatchesEager, OverAMillionStepsPerSeed)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find(GetParam()), 0x5eed);
    for (std::uint64_t seed : {1ull, 2ull, 77ull, 0xdeadbeefull}) {
        expectSameStream(prog, seed, 1000000);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCatalogApps, LazyPhaseMatchesEager,
                         ::testing::ValuesIn(AppCatalog::allNames()));

/** A two-block loop: a conditional taken with `prob_x1e4`, then an
 *  indirect jump over `weights` (cumulative) back to the start. Table
 *  position i jumps to block 2 + i, or to block 2 + 2 * (i % 2) with
 *  `alternate` (one block at several positions). */
ProgramBinary
edgeProgram(double phase_strength, std::uint16_t prob_x1e4,
            const std::vector<float> &weights, bool alternate = false)
{
    AppProfile profile;
    profile.name = "edge";
    profile.syscalls_per_kinsn = 0.0;
    profile.phase_insns = 5000.0;  // many phase cycles per run
    profile.phase_strength = phase_strength;
    BasicBlock cond;
    cond.insns = 7;
    cond.kind = BranchKind::kConditional;
    cond.target0 = 1;
    cond.target1 = 1;
    cond.prob_taken_x1e4 = prob_x1e4;
    BasicBlock ind;
    ind.insns = 5;
    ind.kind = BranchKind::kIndirectJump;
    ind.itable_begin = 0;
    ind.itable_count = static_cast<std::uint32_t>(weights.size());
    std::vector<IndirectTarget> targets;
    for (float w : weights)
        targets.push_back(IndirectTarget{0, w});
    // Distinct target blocks, each a jump back to the conditional.
    std::vector<BasicBlock> blocks{cond, ind};
    for (std::size_t i = 0; i < weights.size(); ++i) {
        targets[i].block = static_cast<std::uint32_t>(
            alternate ? 2 + 2 * (i % 2) : blocks.size());
        BasicBlock back;
        back.insns = 3;
        back.kind = BranchKind::kDirectJump;
        back.target0 = 0;
        blocks.push_back(back);
    }
    return ProgramBinaryTestPeer::make(profile, blocks, targets);
}

TEST(LazyPhaseEdges, BandsStraddlingTheClamp)
{
    const std::vector<float> table{0.25f, 0.5f, 0.75f, 1.0f};
    // p = 0.03 and 0.97 with shift 0.05: the band crosses 0.02 / 0.98.
    for (std::uint16_t p : {300, 9700, 200, 9800, 0, 10000})
        for (std::uint64_t seed : {3ull, 4ull})
            expectSameStream(edgeProgram(0.1, p, table), seed, 200000);
}

TEST(LazyPhaseEdges, ZeroPhaseStrength)
{
    const std::vector<float> table{0.1f, 0.2f, 0.9f, 1.0f};
    for (std::uint64_t seed : {5ull, 6ull})
        expectSameStream(edgeProgram(0.0, 5000, table), seed, 200000);
}

TEST(LazyPhaseEdges, OneEntryIndirectTable)
{
    for (std::uint64_t seed : {7ull, 8ull}) {
        expectSameStream(edgeProgram(0.35, 5000, {1.0f}), seed, 200000);
        // A table whose only weight never reaches the draw.
        expectSameStream(edgeProgram(0.35, 5000, {0.5f}), seed, 200000);
    }
}

TEST(LazyPhaseEdges, BandsWrappingPastZeroAndOne)
{
    // Shift 0.45: most draws put one end of the band outside [0, 1),
    // so the phased draw wraps; narrow slots make ends disagree too.
    const std::vector<float> table{0.01f, 0.02f, 0.5f, 0.98f, 0.99f,
                                   1.0f};
    for (double strength : {0.9, 0.35, 2.0})
        for (std::uint64_t seed : {9ull, 10ull})
            expectSameStream(edgeProgram(strength, 5000, table), seed,
                             200000);
}

TEST(LazyPhaseEdges, OneBlockAtSeveralTablePositions)
{
    // Positions 0, 2, 4 share a block: a band from position 0 to 2
    // has equal block ids at both ends but may land on position 1.
    const std::vector<float> table{0.2f, 0.3f, 0.6f, 0.7f, 1.0f};
    for (double strength : {0.35, 0.15})
        for (std::uint64_t seed : {11ull, 12ull})
            expectSameStream(edgeProgram(strength, 5000, table, true),
                             seed, 200000);
}

TEST(Catalog, FindsAllSuitesAndRejectsUnknown)
{
    EXPECT_EQ(AppCatalog::specSuite().size(), 10u);
    EXPECT_EQ(AppCatalog::onlineSuite().size(), 3u);
    EXPECT_EQ(AppCatalog::cloudSuite().size(), 5u);
    EXPECT_EQ(AppCatalog::caseStudySuite().size(), 5u);
    EXPECT_EQ(AppCatalog::find("mcf").name, "mcf");
    EXPECT_DEATH(AppCatalog::find("no-such-app"), "unknown");
}

TEST(Catalog, CategoryWeightsNormalized)
{
    for (const std::string &name : AppCatalog::allNames()) {
        AppProfile p = AppCatalog::find(name);
        double sum = 0;
        for (double w : p.category_weights)
            sum += w;
        EXPECT_NEAR(sum, 1.0, 1e-9) << name;
    }
}

}  // namespace
}  // namespace exist

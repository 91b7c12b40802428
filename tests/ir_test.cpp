/**
 * @file
 * Unit tests for the IR: instructions, builder, CFG queries, verifier
 * and block duplication.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace pathsched::ir {
namespace {

/** A diamond: entry -> (left | right) -> join -> ret. */
Program
makeDiamond()
{
    Program prog;
    IrBuilder b(prog);
    const ProcId main = b.newProc("main", 1);
    const BlockId left = b.newBlock();
    const BlockId right = b.newBlock();
    const BlockId join = b.newBlock();

    const RegId x = b.param(0);
    b.brnz(x, left, right);
    b.setBlock(left);
    const RegId l = b.addi(x, 1);
    b.jmp(join);
    b.setBlock(right);
    const RegId r = b.addi(x, 2);
    b.jmp(join);
    b.setBlock(join);
    const RegId s = b.add(l, r);
    b.ret(s);
    prog.mainProc = main;
    return prog;
}

TEST(Instruction, SourceCollection)
{
    std::vector<RegId> srcs;
    makeAlu(Opcode::Add, 5, 1, 2).sources(srcs);
    EXPECT_EQ(srcs, (std::vector<RegId>{1, 2}));
    makeAluImm(Opcode::Add, 5, 1, 7).sources(srcs);
    EXPECT_EQ(srcs, (std::vector<RegId>{1}));
    makeLdi(5, 3).sources(srcs);
    EXPECT_TRUE(srcs.empty());
    makeSt(1, 0, 2).sources(srcs);
    EXPECT_EQ(srcs, (std::vector<RegId>{1, 2}));
    makeCall(5, 0, {3, 4}).sources(srcs);
    EXPECT_EQ(srcs, (std::vector<RegId>{3, 4}));
    makeRet(kNoReg).sources(srcs);
    EXPECT_TRUE(srcs.empty());
}

TEST(Instruction, RenameSources)
{
    Instruction i = makeAlu(Opcode::Add, 5, 1, 1);
    i.renameSources(1, 9);
    EXPECT_EQ(i.src1, 9u);
    EXPECT_EQ(i.src2, 9u);
    EXPECT_EQ(i.dst, 5u); // destinations never renamed

    Instruction c = makeCall(5, 0, {1, 2, 1});
    c.renameSources(1, 7);
    EXPECT_EQ(c.args, (std::vector<RegId>{7, 2, 7}));
}

TEST(Instruction, Classification)
{
    EXPECT_TRUE(makeBr(Opcode::BrNz, 0, 1, 2).isBranch());
    EXPECT_TRUE(makeBr(Opcode::BrZ, 0, 1, 2).isControlSlot());
    EXPECT_TRUE(makeJmp(1).isControlFlow());
    EXPECT_TRUE(makeRet(0).isControlFlow());
    EXPECT_TRUE(makeCall(0, 0, {}).isControlSlot());
    EXPECT_FALSE(makeCall(0, 0, {}).isControlFlow());
    EXPECT_TRUE(makeLd(0, 1, 0).isLoad());
    EXPECT_TRUE(makeLdSpec(0, 1, 0).isLoad());
    EXPECT_TRUE(makeSt(1, 0, 2).isStore());
    EXPECT_TRUE(makeSt(1, 0, 2).touchesMemory());
    EXPECT_TRUE(makeEmit(1).touchesMemory());
}

TEST(Instruction, Speculability)
{
    EXPECT_TRUE(makeAlu(Opcode::Add, 0, 1, 2).isSpeculable());
    EXPECT_TRUE(makeLdSpec(0, 1, 0).isSpeculable());
    EXPECT_FALSE(makeLd(0, 1, 0).isSpeculable());
    EXPECT_FALSE(makeSt(1, 0, 2).isSpeculable());
    EXPECT_FALSE(makeEmit(1).isSpeculable());
    EXPECT_FALSE(makeCall(0, 0, {}).isSpeculable());
    EXPECT_FALSE(makeBr(Opcode::BrNz, 0, 1, 2).isSpeculable());
}

TEST(Instruction, InvertBranch)
{
    EXPECT_EQ(invertBranch(Opcode::BrNz), Opcode::BrZ);
    EXPECT_EQ(invertBranch(Opcode::BrZ), Opcode::BrNz);
}

TEST(Builder, DiamondShape)
{
    Program prog = makeDiamond();
    const Procedure &p = prog.proc(0);
    EXPECT_EQ(p.blocks.size(), 4u);
    EXPECT_EQ(p.numParams, 1u);
    EXPECT_GT(p.numRegs, 1u);
    std::vector<std::string> errors;
    EXPECT_TRUE(verify(prog, VerifyMode::Strict, errors))
        << (errors.empty() ? "" : errors.front());
}

TEST(Builder, FindProc)
{
    Program prog = makeDiamond();
    EXPECT_EQ(prog.findProc("main"), 0u);
}

TEST(Cfg, SuccessorsOfDiamond)
{
    Program prog = makeDiamond();
    const Procedure &p = prog.proc(0);
    std::vector<BlockId> succs;
    successorsOf(p.blocks[0], succs);
    EXPECT_EQ(succs, (std::vector<BlockId>{1, 2}));
    successorsOf(p.blocks[1], succs);
    EXPECT_EQ(succs, (std::vector<BlockId>{3}));
    successorsOf(p.blocks[3], succs);
    EXPECT_TRUE(succs.empty()); // ret
}

TEST(Cfg, PredecessorsOfDiamond)
{
    Program prog = makeDiamond();
    const Cfg cfg(prog.proc(0));
    auto preds = [&](BlockId b) {
        return std::vector<BlockId>(cfg.preds(b).begin(),
                                    cfg.preds(b).end());
    };
    ASSERT_EQ(cfg.numBlocks(), 4u);
    EXPECT_TRUE(preds(0).empty());
    EXPECT_EQ(preds(1), (std::vector<BlockId>{0}));
    EXPECT_EQ(preds(2), (std::vector<BlockId>{0}));
    EXPECT_EQ(preds(3), (std::vector<BlockId>{1, 2}));
}

TEST(Cfg, ExitsEnumeration)
{
    Program prog = makeDiamond();
    const Procedure &p = prog.proc(0);
    std::vector<BlockExit> exits;
    exitsOf(p.blocks[0], exits);
    ASSERT_EQ(exits.size(), 2u); // taken + fallthrough of the Br
    EXPECT_EQ(exits[0].target, 1u);
    EXPECT_FALSE(exits[0].isFallthrough);
    EXPECT_EQ(exits[1].target, 2u);
    EXPECT_TRUE(exits[1].isFallthrough);

    exitsOf(p.blocks[3], exits);
    ASSERT_EQ(exits.size(), 1u); // ret
    EXPECT_EQ(exits[0].target, kNoBlock);
}

TEST(Cfg, MidBlockExitSuccessors)
{
    // A superblock-form block: exit branch mid-block.
    BasicBlock bb;
    bb.instrs.push_back(makeLdi(0, 1));
    Instruction exit_br = makeBr(Opcode::BrNz, 0, 7, kNoBlock);
    exit_br.target1 = kNoBlock;
    bb.instrs.push_back(exit_br);
    bb.instrs.push_back(makeJmp(3));

    std::vector<BlockId> succs;
    successorsOf(bb, succs);
    EXPECT_EQ(succs, (std::vector<BlockId>{7, 3}));
}

TEST(Verifier, AcceptsStrictProgram)
{
    Program prog = makeDiamond();
    std::vector<std::string> errors;
    EXPECT_TRUE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Verifier, RejectsMissingTerminator)
{
    Program prog = makeDiamond();
    prog.proc(0).blocks[1].instrs.pop_back(); // drop the jmp
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Verifier, RejectsOutOfRangeTarget)
{
    Program prog = makeDiamond();
    prog.proc(0).blocks[1].terminator().target0 = 99;
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Verifier, RejectsOutOfRangeRegister)
{
    Program prog = makeDiamond();
    prog.proc(0).blocks[3].instrs[0].src1 = 1000;
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Verifier, RejectsMidBlockBranchInStrictMode)
{
    Program prog = makeDiamond();
    auto &instrs = prog.proc(0).blocks[3].instrs;
    Instruction exit_br = makeBr(Opcode::BrNz, 0, 1, kNoBlock);
    instrs.insert(instrs.begin(), exit_br);
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
    // ... but Superblock mode allows exactly this shape.
    EXPECT_TRUE(verify(prog, VerifyMode::Superblock, errors));
}

TEST(Verifier, RejectsBadCallArity)
{
    Program prog;
    IrBuilder b(prog);
    const ProcId callee = b.newProc("f", 2);
    b.ret(b.param(0));
    const ProcId main = b.newProc("main", 0);
    const RegId t = b.ldi(1);
    b.callValue(callee, {t}); // one arg, needs two
    b.ret(t);
    prog.mainProc = main;
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Verifier, RejectsEmptyBlock)
{
    Program prog = makeDiamond();
    prog.proc(0).newBlock();
    std::vector<std::string> errors;
    EXPECT_FALSE(verify(prog, VerifyMode::Strict, errors));
}

TEST(Printer, MentionsKeyPieces)
{
    Program prog = makeDiamond();
    const std::string text = toString(prog);
    EXPECT_NE(text.find("proc main"), std::string::npos);
    EXPECT_NE(text.find("brnz"), std::string::npos);
    EXPECT_NE(text.find("ret"), std::string::npos);
    EXPECT_NE(text.find("B3"), std::string::npos);
}

TEST(Printer, InstructionForms)
{
    EXPECT_EQ(toString(makeLdi(3, -7)), "ldi r3, -7");
    EXPECT_EQ(toString(makeAlu(Opcode::Add, 2, 0, 1)), "add r2, r0, r1");
    EXPECT_EQ(toString(makeAluImm(Opcode::Mul, 2, 0, 9)),
              "mul r2, r0, 9");
    EXPECT_EQ(toString(makeLd(1, 0, 4)), "ld r1, [r0 + 4]");
    EXPECT_EQ(toString(makeSt(0, 2, 1)), "st [r0 + 2], r1");
    EXPECT_EQ(toString(makeJmp(5)), "jmp B5");
}

TEST(SideTables, SyncGrowsWithBlocks)
{
    Program prog = makeDiamond();
    Procedure &p = prog.proc(0);
    p.newBlock();
    EXPECT_EQ(p.schedules.size(), p.blocks.size());
    EXPECT_EQ(p.superblocks.size(), p.blocks.size());
}

TEST(Program, InstrCount)
{
    Program prog = makeDiamond();
    EXPECT_EQ(prog.instrCount(), prog.proc(0).instrCount());
    EXPECT_EQ(prog.proc(0).instrCount(), 7u);
}

} // namespace
} // namespace pathsched::ir

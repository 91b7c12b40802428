/**
 * @file
 * Structural well-formedness checks for IR programs.
 */

#ifndef PATHSCHED_IR_VERIFIER_HPP
#define PATHSCHED_IR_VERIFIER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/procedure.hpp"
#include "support/status.hpp"

namespace pathsched::ir {

/**
 * Verification mode.  Strict programs (pre-formation) allow branches
 * only as block terminators with both targets set.  Superblock programs
 * additionally allow mid-block exit branches whose fallthrough is
 * kNoBlock.
 */
enum class VerifyMode { Strict, Superblock };

/**
 * Check @p prog for structural errors.
 *
 * @param prog the program to verify
 * @param mode strictness level (see VerifyMode)
 * @param errors human-readable description of each violation found
 * @return true when no violations were found
 */
bool verify(const Program &prog, VerifyMode mode,
            std::vector<std::string> &errors);

/**
 * Check only procedure @p proc of @p prog (program-level checks such
 * as main-procedure validity are skipped).  Same reporting contract
 * as verify().
 */
bool verifyProc(const Program &prog, ProcId proc, VerifyMode mode,
                std::vector<std::string> &errors);

/** verify() folded into a Status: OK, or ErrorKind::VerifyFailed with
 *  the violations joined into the message. */
Status verifyStatus(const Program &prog, VerifyMode mode);

/** verifyProc() folded into a Status (see verifyStatus).  A procedure
 *  naming more than @p machine_regs registers is a violation too: after
 *  register allocation, pass the machine's register count, and a
 *  procedure left outside the register file cannot be measured. */
Status verifyProcStatus(const Program &prog, ProcId proc, VerifyMode mode,
                        uint32_t machine_regs = UINT32_MAX);

/** Verify and panic with the first error on failure — the
 *  non-recoverable wrapper around verifyStatus(). */
void verifyOrDie(const Program &prog, VerifyMode mode);

} // namespace pathsched::ir

#endif // PATHSCHED_IR_VERIFIER_HPP

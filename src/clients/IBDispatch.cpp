//===- clients/IBDispatch.cpp - Adaptive indirect branch dispatch (S4.3) -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's adaptive optimization example (Section 4.3, Figure 4).
/// The hashtable lookup for indirect branches is the single greatest
/// source of runtime overhead; this client value-profiles the *miss path*
/// of every inlined indirect branch in every trace (a clean call records
/// each escaping target), and once enough samples accumulate it rewrites
/// its own trace — dr_decode_fragment / dr_replace_fragment, the paper's
/// Section 3.4 machinery — inserting compare-and-direct-branch pairs for
/// the hottest targets ahead of the profiling call:
///
///     call prof_routine            cmp real_target, hot_target_1
///     jmp hashtable_lookup   ==>   je  hot_target_1
///                                  cmp real_target, hot_target_2
///                                  je  hot_target_2
///                                  call prof_routine
///                                  jmp hashtable_lookup
///
/// The comparison chain is built from lea/jecxz so no application eflags
/// are disturbed. Once a target is inserted it is never removed (the paper
/// notes always-on low-overhead profiling as future work).
///
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"

#include "api/dr_api.h"

#include <algorithm>

using namespace rio;

namespace {

/// Finds the "jmp *[IbTargetSlot]" instructions: each one is the entry to
/// the IBL from a miss path.
bool isIblJump(Runtime &RT, Instr *I) {
  if (I->isBundle() || I->isLabel())
    return false;
  if (instr_get_opcode(I) != OP_jmp_ind)
    return false;
  const Operand &Src = I->getSrc(0);
  return Src.isMem() && Src.getBase() == REG_NULL &&
         Src.getIndex() == REG_NULL &&
         uint32_t(Src.getDisp()) == RT.slots().IbTargetSlot;
}

} // namespace

void IBDispatchClient::profileHit(Runtime &RT, Site &S, AppPc Target) {
  ++S.Samples[Target];
  ++S.TotalSamples;
  if (!S.Rewritten && S.TotalSamples >= Opts.SampleThreshold)
    rewriteTrace(RT, S);
}

void IBDispatchClient::onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) {
  void *context = &RT;
  for (Instr *I = instrlist_first(&Trace); I; I = instr_get_next(I)) {
    if (!isIblJump(RT, I))
      continue;
    auto S = std::make_unique<Site>();
    S->TraceTag = Tag;
    Site *SiteP = S.get();
    // Profiling routine: records the escaping target (already stored in
    // the IB target slot by the miss path) on every miss.
    uint32_t Id = RT.registerCleanCall([this, SiteP](CleanCallContext &Ctx) {
      profileHit(Ctx.RT, *SiteP, Ctx.ibTarget());
    });
    S->CleanCallId = Id;
    Instr *Call = instr_create(context, OP_clientcall,
                               {Operand::imm(int64_t(Id), 4)});
    instrlist_preinsert(&Trace, I, Call);
    Sites.push_back(std::move(S));
    ++SitesInstrumented;
  }
}

void IBDispatchClient::rewriteTrace(Runtime &RT, Site &S) {
  S.Rewritten = true;
  void *context = &RT;

  InstrList *IL = dr_decode_fragment(context, S.TraceTag);
  if (!IL)
    return;

  // Locate this site's profiling call in the decoded fragment.
  Instr *ProfCall = nullptr;
  for (Instr *I = instrlist_first(IL); I; I = instr_get_next(I)) {
    if (!I->isBundle() && !I->isLabel() &&
        instr_get_opcode(I) == OP_clientcall &&
        uint32_t(I->getSrc(0).getImm()) == S.CleanCallId) {
      ProfCall = I;
      break;
    }
  }
  if (!ProfCall)
    return;

  // Pick the hottest targets.
  std::vector<std::pair<uint32_t, AppPc>> Ranked;
  for (const auto &[Target, Count] : S.Samples)
    Ranked.push_back({Count, Target});
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  if (Ranked.size() > Opts.MaxInlinedTargets)
    Ranked.resize(Opts.MaxInlinedTargets);
  if (Ranked.empty())
    return;

  // Build the dispatch chain ahead of the profiling call. Flags-free:
  //   mov  [spill2], ecx
  //   mov  ecx, [IbTargetSlot]
  //   lea  ecx, [ecx - T1] ; jecxz hit1
  //   lea  ecx, [ecx + T1 - T2] ; jecxz hit2
  //   ...
  //   mov  ecx, [spill2]
  //   <original: clientcall ; jmp *[IbTargetSlot]>
  //   hitK: mov ecx, [spill2] ; jmp TK      (direct exits, linkable)
  Operand Ecx = Operand::reg(REG_ECX);
  Operand Spill = Operand::memAbs(
      dr_spill_slot_addr(context, RuntimeSlots::SpillIbDispatch), 4);
  Operand TargetSlot = Operand::memAbs(RT.slots().IbTargetSlot, 4);

  auto insert = [&](Instr *I) {
    assert(I && "failed to create dispatch instruction");
    instrlist_preinsert(IL, ProfCall, I);
  };

  insert(instr_create(context, OP_mov, {Spill, Ecx}));
  insert(instr_create(context, OP_mov, {Ecx, TargetSlot}));

  std::vector<Instr *> HitLabels;
  int64_t Offset = 0; // ecx currently holds target - Offset
  for (const auto &[Count, Target] : Ranked) {
    (void)Count;
    int64_t Delta = int64_t(Target) - Offset;
    insert(instr_create(context, OP_lea,
                        {Ecx, Operand::mem(REG_ECX, int32_t(-Delta), 4)}));
    Offset = int64_t(Target);
    Instr *Hit = instr_create(context, OP_label, {});
    Instr *Jecxz = instr_create(context, OP_jecxz, {Operand::pc(0)});
    Jecxz->setBranchTargetLabel(Hit);
    insert(Jecxz);
    HitLabels.push_back(Hit);
  }
  insert(instr_create(context, OP_mov, {Ecx, Spill}));

  // Hit landing pads directly after the IBL jump (keeping jecxz in rel8
  // range): restore ecx, then a direct (linkable) jump to the hot target.
  Instr *IblJmp = instr_get_next(ProfCall);
  while (IblJmp && !IblJmp->isLabel() && !IblJmp->isBundle() &&
         instr_get_opcode(IblJmp) == OP_nop)
    IblJmp = instr_get_next(IblJmp); // skip emitter nop padding
  if (!IblJmp || !isIblJump(RT, IblJmp))
    return; // unexpected shape; leave the trace alone
  Instr *After = instr_get_next(IblJmp);
  auto insertPad = [&](Instr *I) {
    assert(I && "failed to create landing pad instruction");
    if (After)
      instrlist_preinsert(IL, After, I);
    else
      instrlist_append(IL, I);
  };
  for (size_t Idx = 0; Idx != Ranked.size(); ++Idx) {
    insertPad(HitLabels[Idx]);
    insertPad(instr_create(context, OP_mov, {Ecx, Spill}));
    insertPad(instr_create(context, OP_jmp, {Operand::pc(Ranked[Idx].second)}));
  }

  if (dr_replace_fragment(context, S.TraceTag, IL))
    ++TracesRewritten;
}

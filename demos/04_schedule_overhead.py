#!/usr/bin/env python3
# The constant-overhead schedule: lower h blocks level by level, applying
# the interface to a growing fraction of blocks while the rest sit under
# error correction, and account for every qubit exactly.

from decint import css, scheduler
from decint.interface import build_gamma

fam = css.toy_family()
consts = scheduler.measured_constants(fam)
print("constants measured from the real circuits:")
print("  theta =", consts.theta, " theta1 =", consts.theta1, " p1 table =", consts.p1_table)

# --- one schedule in detail ---------------------------------------------------
sched = scheduler.build_schedule(fam, 4, 1, h=8, constants=consts)
print(f"\nschedule r=4 -> r'=1, h=8: {sched.output_blocks} output blocks")
for stage in sched.stages:
    print(f"  level {stage.level}: {stage.h_level} blocks, "
          f"{stage.h_step} per macro-layer, {stage.n_layers} macro-layers")

rep = scheduler.qubit_census(sched)
print(f"max qubits in flight: {rep.max_total}  "
      f"ratio to m_r*h: {rep.ratio:.3f}  bounds hold: {rep.eta1_ok and rep.eta2_ok}")

# --- every block gets the interface exactly once --------------------------------
print("\nschedule audit:", scheduler.audit_schedule(sched) or "clean")
print("per-block plans reassemble the schedule:",
      scheduler.roundtrip_from_block_plans(sched))

plan0 = scheduler.effective_interface(sched, 0)
plan7 = scheduler.effective_interface(sched, 7)
print("block 0 first-stage waits:", plan0[0][0].pre_wait, "before,",
      plan0[0][0].post_wait, "after")
print("block 7 first-stage waits:", plan7[0][0].pre_wait, "before,",
      plan7[0][0].post_wait, "after")

# --- the constant-overhead claim at growing h ------------------------------------
print("\n   h   max_total   max_total/(m_r h)")
for h in (1, 4, 16, 64, 256, 1024):
    rep = scheduler.qubit_census(scheduler.build_schedule(fam, 4, 1, h, constants=consts))
    print(f"{h:>5d}  {rep.max_total:>9d}   {rep.ratio:.3f}")
print("(the ratio settles near a constant once h exceeds p1(m_r))")

# Composing the final bare-qubit layer: one Gamma_(2,1) on every output block.
sched = scheduler.build_schedule(fam, 3, 2, h=4, constants=consts)
final_layer = build_gamma(fam, 2, 1).qubit_count * sched.output_blocks
print(f"\nfull plan: staged part ({scheduler.qubit_census(sched).max_total} qubits at most) "
      f"+ {sched.output_blocks} parallel level-2 interfaces ({final_layer} qubits in the final layer)")

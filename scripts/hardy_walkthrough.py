#!/usr/bin/env python3
"""Narrated run of the two-photon interferometer, stage by stage.

Prints every intermediate state with exact amplitudes, then contrasts the
trajectory bookkeeping under both rule sets, and finally draws a seeded
sample to show the statistics that would be collected at the detectors.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hardysim import circuitdsl, engine, montecarlo, paradox
from hardysim.paradox import RuleSet

CIRCUITS = pathlib.Path(__file__).resolve().parent.parent / "circuits"


def show(title: str, state):
    print(f"\n{title}")
    for (p, m), amp in state.terms():
        print(f"    ({p},{m})  {amp}")


def main() -> int:
    circuit = circuitdsl.parse((CIRCUITS / "hardy_full.circ").read_text())

    show("Source (both photons exit together through a or b):", circuit.source)

    # The boundary falls after the last stage that emits into the discard set.
    root, weight, rest = engine.boundary(circuit)
    cut = len(circuit.stages) - len(rest)
    show("After the three-way splitters (u+u- and g+g- already cancelled):",
         engine.evolve(circuit.source, circuit.stages[:cut]))

    print(f"\nPost-selection on g/f keeps weight {weight} of all runs.")
    state = engine.renormalize(root)
    show("Surviving state, renormalised — note: no u+u- term at all:", state)

    state = engine.evolve(state, rest)
    show("After the balanced recombiners in front of the detectors:", state)

    table = engine.probabilities(state, kept_weight=weight)
    print("\nExact detection probabilities:")
    for (p, m), q in table.sorted_rows():
        print(f"    ({p},{m})  {q}")

    print("\nTrajectory bookkeeping — one full wave per photon per boundary:")
    for rules in (RuleSet.LOCAL_COUNTERFACTUAL, RuleSet.CONTEXTUAL):
        report = paradox.paradox_report(circuit, rules)
        print(f"  rules={rules.value}")
        for row in report.outcomes:
            p, m = row.outcome
            print(f"    {row.verdict}: ({p},{m}) qm={row.qm_probability}"
                  f" feasible={len(row.feasible)}")
        for row in report.outcomes:
            if row.verdict == "consistent":
                continue
            p, m = row.outcome
            print(f"  why every route to ({p},{m}) is rejected:")
            for assignment, reasons in row.rejected:
                route = (" / ".join(map(str, assignment.plus_path)) + "  &  "
                         + " / ".join(map(str, assignment.minus_path)))
                print(f"    {route}")
                for reason in reasons:
                    print(f"        - {reason}")

    record = montecarlo.run(table, n=12000)
    print(f"\nSeeded sample, n={record.n}, seed={record.seed}:")
    for (p, m), count in sorted(record.counts.items(),
                                key=lambda kv: (kv[0][0].name, kv[0][1].name)):
        print(f"    ({p},{m})  {count}")
    print(f"    chi_square={record.chi_square:.4f} df={record.df}"
          f" pass_95={record.pass_95}")
    print("\nThe (d+,d-) detections above are runs that counterfactual")
    print("trajectory reasoning says can never happen.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Independent float oracle for ladders: dense numpy, nothing from ``hardysim``.

The two-photon state is a complex matrix indexed by (plus mode, minus mode).
A splitter on the plus arm mixes rows, one on the minus arm mixes columns:
input 1 goes to output 1 with sqrt(t) and to output 2 with i*sqrt(1-t),
input 2 to output 2 with sqrt(t) and to output 1 with i*sqrt(1-t).  A phase
of k quarter turns multiplies one row or column by i**k.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-12


def final_state(ladder) -> np.ndarray:
    index = {name: i for i, name in enumerate(ladder.modes)}
    psi = np.zeros((len(index), len(index)), dtype=complex)
    amp = 1.0 / np.sqrt(len(ladder.source))
    for mode, k in ladder.source:
        psi[index[mode], index[mode]] += amp * 1j ** k
    for stage in ladder.stages:
        view = psi if stage[1] == "+" else psi.T
        if stage[0] == "bs":
            _, _, t, in1, in2, out1, out2 = stage
            a, b = view[index[in1]].copy(), view[index[in2]].copy()
            tr, rf = np.sqrt(float(t)), 1j * np.sqrt(1.0 - float(t))
            view[index[out1]] = tr * a + rf * b
            view[index[out2]] = tr * b + rf * a
            view[index[in1]] = 0.0
            view[index[in2]] = 0.0
        else:
            _, _, k, mode = stage
            view[index[mode]] *= 1j ** k
    return psi


def probabilities(ladder) -> tuple[float, dict[tuple[str, str], float]]:
    """(kept_weight, {(plus name, minus name): renormalised Born weight})."""
    psi = final_state(ladder)
    index = {name: i for i, name in enumerate(ladder.modes)}
    for mode in ladder.discard:
        psi[index[mode], :] = 0.0
        psi[:, index[mode]] = 0.0
    weights = np.abs(psi) ** 2
    kept = float(weights.sum())
    rows = {}
    for p, m in zip(*np.nonzero(weights > TOLERANCE * kept)):
        rows[(ladder.modes[p], ladder.modes[m])] = float(weights[p, m]) / kept
    return kept, rows


def mismatch(ladder, kept_weight: float, rows: dict[tuple[str, str], float]) -> str | None:
    """Why hardysim's table disagrees with the oracle, or None when it agrees."""
    want_kept, want_rows = probabilities(ladder)
    if abs(kept_weight - want_kept) > TOLERANCE:
        return f"kept_weight {kept_weight!r} != oracle {want_kept!r}"
    for key in sorted(set(rows) | set(want_rows)):
        got, want = rows.get(key, 0.0), want_rows.get(key, 0.0)
        if abs(got - want) > TOLERANCE:
            return f"row {key}: {got!r} != oracle {want!r}"
    return None

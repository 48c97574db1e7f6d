"""Independent floating-point cross-check for the exact pipeline.

Everything here is plain numpy on dense matrices and hard-coded float
constants — deliberately *not* built from the package under test, so the
two implementations can only agree by computing the same physics.  A
two-photon state is an 8x8 complex matrix over the per-arm mode order
below; a stage acting on the plus arm multiplies on the left, one acting
on the minus arm multiplies by the transpose on the right.
:func:`to_complex` reads an exact amplitude as a float from its public
coefficients, so the tests can hold it against these matrices.
"""

import math

import numpy as np

MODES = ("a", "b", "u", "v", "g", "f", "c", "d")
_IX = {name: index for index, name in enumerate(MODES)}

_S3 = 1.0 / np.sqrt(3.0)
_S2 = 1.0 / np.sqrt(2.0)


# sqrt(1), sqrt(2), sqrt(3), sqrt(6): the basis of an exact amplitude's coefficients.
_BASIS = tuple(math.sqrt(k) for k in (1, 2, 3, 6))


def to_complex(value) -> complex:
    """An exact amplitude as a float, read from its public ``real_coeffs`` and
    ``imag_coeffs`` (the rational coefficients of 1, sqrt(2), sqrt(3), sqrt(6))."""
    return complex(sum(float(c) * b for c, b in zip(value.real_coeffs, _BASIS)),
                   sum(float(c) * b for c, b in zip(value.imag_coeffs, _BASIS)))


def prep_matrix() -> np.ndarray:
    m = np.eye(8, dtype=complex)
    for name in ("a", "b"):
        m[_IX[name], _IX[name]] = 0.0
    m[_IX["v"], _IX["a"]] = _S3
    m[_IX["u"], _IX["a"]] = 1j * _S3
    m[_IX["g"], _IX["a"]] = -_S3
    m[_IX["f"], _IX["b"]] = _S3
    m[_IX["u"], _IX["b"]] = -_S3
    m[_IX["g"], _IX["b"]] = 1j * _S3
    return m


def recombine_matrix() -> np.ndarray:
    m = np.eye(8, dtype=complex)
    for name in ("u", "v"):
        m[_IX[name], _IX[name]] = 0.0
    m[_IX["c"], _IX["u"]] = _S2
    m[_IX["d"], _IX["u"]] = 1j * _S2
    m[_IX["d"], _IX["v"]] = _S2
    m[_IX["c"], _IX["v"]] = 1j * _S2
    return m


def pair_source() -> np.ndarray:
    psi = np.zeros((8, 8), dtype=complex)
    psi[_IX["a"], _IX["a"]] = _S2
    psi[_IX["b"], _IX["b"]] = _S2
    return psi


def evolve(psi: np.ndarray, plus: np.ndarray = None, minus: np.ndarray = None) -> np.ndarray:
    if plus is not None:
        psi = plus @ psi
    if minus is not None:
        psi = psi @ minus.T
    return psi


def postselect(psi: np.ndarray, names=("g", "f")) -> tuple[np.ndarray, float]:
    kept = psi.copy()
    for name in names:
        kept[_IX[name], :] = 0.0
        kept[:, _IX[name]] = 0.0
    return kept, float(np.sum(np.abs(kept) ** 2))


def amplitude(psi: np.ndarray, p: str, m: str) -> complex:
    return complex(psi[_IX[p], _IX[m]])


def conditional(psi: np.ndarray, given_minus: str = None, given_plus: str = None) -> dict:
    if given_minus is not None:
        column = psi[:, _IX[given_minus]]
    else:
        column = psi[_IX[given_plus], :]
    weights = np.abs(column) ** 2
    total = float(weights.sum())
    return {MODES[i]: float(w) / total for i, w in enumerate(weights) if w > 1e-30}


def full_circuit():
    """Prep both arms, post-select, renormalise, recombine both arms."""
    prep, recombine = prep_matrix(), recombine_matrix()
    psi = evolve(pair_source(), prep, prep)
    kept, weight = postselect(psi)
    kept = kept / np.sqrt(weight)
    return evolve(kept, recombine, recombine), weight, kept


def reduced_circuit():
    psi = np.zeros((8, 8), dtype=complex)
    psi[_IX["u"], _IX["u"]] = _S2
    psi[_IX["v"], _IX["v"]] = _S2
    recombine = recombine_matrix()
    return evolve(psi, recombine, recombine)


FINAL, KEPT_WEIGHT, MIDPOINT = full_circuit()
PROBABILITIES = {
    (p, m): abs(amplitude(FINAL, p, m)) ** 2 for p in ("c", "d") for m in ("c", "d")
}
PLUS_ONLY = evolve(MIDPOINT, plus=recombine_matrix())
MINUS_ONLY = evolve(MIDPOINT, minus=recombine_matrix())
REDUCED = reduced_circuit()


if __name__ == "__main__":
    print(f"kept_weight      = {KEPT_WEIGHT!r}")
    for key, value in sorted(PROBABILITIES.items()):
        print(f"P{key}     = {value!r}")
    print(f"midpoint (v,v)   = {amplitude(MIDPOINT, 'v', 'v')!r}")
    print(f"midpoint (v,u)   = {amplitude(MIDPOINT, 'v', 'u')!r}")
    print(f"midpoint (u,v)   = {amplitude(MIDPOINT, 'u', 'v')!r}")
    print(f"midpoint (u,u)   = {amplitude(MIDPOINT, 'u', 'u')!r}")
    print(f"plus-only | v-   = {conditional(PLUS_ONLY, given_minus='v')!r}")
    print(f"plus-only | u-   = {conditional(PLUS_ONLY, given_minus='u')!r}")
    print(f"minus-only | v+  = {conditional(MINUS_ONLY, given_plus='v')!r}")
    print(f"final (c,c)      = {amplitude(FINAL, 'c', 'c')!r}")
    print(f"final (c,d)      = {amplitude(FINAL, 'c', 'd')!r}")
    print(f"reduced (c,d)    = {amplitude(REDUCED, 'c', 'd')!r}")
    print(f"reduced (c,c)    = {amplitude(REDUCED, 'c', 'c')!r}")
    print(f"reduced (d,c)    = {amplitude(REDUCED, 'd', 'c')!r}")
    print(f"reduced (d,d)    = {amplitude(REDUCED, 'd', 'd')!r}")

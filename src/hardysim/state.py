"""Mode labels on the two interferometer arms and sparse two-photon states."""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Tuple

from .amplitude import RadicalComplex, ZERO, rational

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class Arm(enum.Enum):
    """One of the two spatial regions a photon of the pair flies into."""

    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:
        return self.value


class ArmMismatch(ValueError):
    """A pairing or optical element referenced the wrong interferometer arm."""


class _Label(NamedTuple):
    name: str
    arm: Arm


class ModeLabel(_Label):
    """A named optical path on one arm, rendered as e.g. ``u+`` or ``g-``.

    A tuple underneath, so equality and hashing are the tuple's own, with
    no Python-level method of the label's: every amplitude added during an
    evolution hashes a pair of labels.
    """

    __slots__ = ()

    def __new__(cls, name: str, arm: Arm):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad mode name {name!r}")
        return super().__new__(cls, name, arm)

    def __str__(self) -> str:
        return f"{self.name}{self.arm.value}"

    @classmethod
    def parse(cls, token: str) -> "ModeLabel":
        if len(token) < 2 or token[-1] not in "+-":
            raise ValueError(f"expected a mode token like 'u+', got {token!r}")
        return cls(token[:-1], Arm(token[-1]))


def plus(name: str) -> ModeLabel:
    return ModeLabel(name, Arm.PLUS)


def minus(name: str) -> ModeLabel:
    return ModeLabel(name, Arm.MINUS)


PairKey = Tuple[ModeLabel, ModeLabel]


def _order(key: PairKey):
    return (key[0].name, key[1].name)


class TwoPhotonState:
    """Sparse map from (plus-arm label, minus-arm label) to an exact amplitude.

    Construction canonicalises: duplicate keys are summed, exact zeros are
    dropped and terms are kept sorted by (plus name, minus name).  Two states
    are equal iff their term maps are identical, so equality is exact state
    equality.  States are immutable and need not be normalised.
    """

    __slots__ = ("_terms",)

    def __init__(self, entries: Iterable[tuple[PairKey, RadicalComplex]] | Mapping = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[PairKey, RadicalComplex] = {}
        for (p, m), amp in items:
            if p.arm is not Arm.PLUS or m.arm is not Arm.MINUS:
                raise ArmMismatch(f"key ({p},{m}) must pair a plus label with a minus label")
            if not isinstance(amp, RadicalComplex):
                amp = rational(amp)
            acc[(p, m)] = acc.get((p, m), ZERO) + amp
        self._terms = {k: v for k, v in sorted(acc.items(), key=lambda kv: _order(kv[0])) if v}

    def terms(self) -> tuple[tuple[PairKey, RadicalComplex], ...]:
        return tuple(self._terms.items())

    def keys(self) -> tuple[PairKey, ...]:
        return tuple(self._terms)

    def amplitude(self, p: ModeLabel, m: ModeLabel) -> RadicalComplex:
        return self._terms.get((p, m), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def norm_sq(self) -> RadicalComplex:
        total = ZERO
        for amp in self._terms.values():
            total = total + amp.norm_sq()
        return total

    def scale(self, factor: RadicalComplex | int | Fraction) -> "TwoPhotonState":
        return TwoPhotonState([(k, amp * factor) for k, amp in self._terms.items()])

    def __add__(self, other: "TwoPhotonState") -> "TwoPhotonState":
        if not isinstance(other, TwoPhotonState):
            return NotImplemented
        return TwoPhotonState(list(self._terms.items()) + list(other._terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoPhotonState):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def plus_support(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted({p for p, _ in self._terms}, key=str))

    def minus_support(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted({m for _, m in self._terms}, key=str))

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{m}): {amp}" for (p, m), amp in self._terms.items())
        return f"TwoPhotonState{{{inner}}}"

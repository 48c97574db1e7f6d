"""SplitMix64, one draw per call: the reference that ``montecarlo.sample`` must match.

``sample`` runs the same generator on a block of draws at once, packed into
the lanes of one integer.  This is the plain form it is checked against,
with the reference constants written out here rather than imported from
``hardysim.montecarlo``, so the two share no code.
"""

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 with the reference constants."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u53(self) -> int:
        """The top 53 bits of the next output."""
        return self.next_u64() >> 11

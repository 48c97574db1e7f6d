"""Parser, validator and renderer for the line-oriented circuit format.

A circuit file lists, in this order (``#`` starts a comment, blank lines and
leading whitespace are ignored):

    modes + a b u v g f c d
    modes - a b u v g f c d
    source (a+,a-) (1/1)/sqrt(2); (b+,b-) (1/1)/sqrt(2)
    stage preset_eq2 +
    stage bs 1/3 a+ b+ -> u+ g+          # generic splitter, armed mode tokens
    stage bs 1/2 u v -> c d -             # ... or bare tokens plus a trailing arm
    stage phase 3 g+
    discard g+ g- f+ f-                   # optional post-selection set
    detect c+ d+ c- d-                    # optional detector placement

Amplitudes in the ``source`` line use the exact grammar of
:func:`hardysim.amplitude.parse_amplitude`, e.g. ``(1/2)*sqrt(2)`` or
``(-1/2)*sqrt(3)*i``.  Mode liveness is checked statically: a stage may only
consume labels that the source or an earlier stage produced and that no
earlier stage consumed, and ``discard`` and ``detect`` may only name exits,
labels no stage consumes.

Every diagnostic is a :class:`CircuitError` carrying a 1-based line and
column plus a stable kebab-case code:

    syntax, undeclared-mode, dead-mode, double-consume, double-produce,
    duplicate-mode, arm-mismatch, bad-transmissivity, unsupported-radical,
    unknown-preset, discard-detect-overlap
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Union

from . import optics
from .amplitude import AmplitudeParseError, UnsupportedRadical, parse_amplitude
from .state import Arm, ModeLabel, TwoPhotonState


class CircuitError(Exception):
    """Diagnostic with a position and a stable machine-checkable code."""

    def __init__(self, line: int, column: int, code: str, message: str):
        super().__init__(f"{line}:{column}: {code}: {message}")
        self.line = line
        self.column = column
        self.code = code
        self.message = message


class _StageTransform:
    """Builds a stage's verified transform on the first call and keeps it on the record,
    outside the tuple of fields, so equality, hashing and repr ignore it."""

    __slots__ = ()

    def transform(self) -> optics.ModeTransform:
        built = self.__dict__.get("_transform")
        if built is None:
            built = self.__dict__["_transform"] = self._build()
        return built

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _BeamSplitter(NamedTuple):
    transmissivity: Fraction
    in1: ModeLabel
    in2: ModeLabel
    out1: ModeLabel
    out2: ModeLabel


class BeamSplitterStage(_BeamSplitter, _StageTransform):
    @property
    def arm(self) -> Arm:
        return self.in1.arm

    def inputs(self) -> tuple[ModeLabel, ...]:
        return (self.in1, self.in2)

    def outputs(self) -> tuple[ModeLabel, ...]:
        return (self.out1, self.out2)

    def _build(self) -> optics.ModeTransform:
        return optics.beamsplitter(self.transmissivity, self.in1, self.in2, self.out1, self.out2)

    def render(self) -> str:
        t = self.transmissivity
        return f"stage bs {t.numerator}/{t.denominator} {self.in1} {self.in2} -> {self.out1} {self.out2}"


class _Phase(NamedTuple):
    quarter_turns: int
    mode: ModeLabel


class PhaseStage(_Phase, _StageTransform):
    @property
    def arm(self) -> Arm:
        return self.mode.arm

    def inputs(self) -> tuple[ModeLabel, ...]:
        return (self.mode,)

    def outputs(self) -> tuple[ModeLabel, ...]:
        return (self.mode,)

    def _build(self) -> optics.ModeTransform:
        return optics.phase_shift(self.quarter_turns, self.mode)

    def render(self) -> str:
        return f"stage phase {self.quarter_turns} {self.mode}"


class _Preset(NamedTuple):
    name: str
    arm: Arm


class PresetStage(_Preset, _StageTransform):
    def inputs(self) -> tuple[ModeLabel, ...]:
        return tuple(ModeLabel(n, self.arm) for n in optics.preset_modes(self.name)[0])

    def outputs(self) -> tuple[ModeLabel, ...]:
        return tuple(ModeLabel(n, self.arm) for n in optics.preset_modes(self.name)[1])

    def _build(self) -> optics.ModeTransform:
        return optics.preset(self.name, self.arm)

    def render(self) -> str:
        return f"stage {self.name} {self.arm}"


Stage = Union[BeamSplitterStage, PhaseStage, PresetStage]


class Circuit(NamedTuple):
    """A validated circuit: declarations, source, staged elements, exits."""

    plus_modes: tuple[str, ...]
    minus_modes: tuple[str, ...]
    source: TwoPhotonState
    stages: tuple[Stage, ...]
    discard: frozenset[ModeLabel]
    detectors: frozenset[ModeLabel]

    def declared(self, label: ModeLabel) -> bool:
        names = self.plus_modes if label.arm is Arm.PLUS else self.minus_modes
        return label.name in names

    def detectors_on(self, arm: Arm) -> tuple[ModeLabel, ...]:
        return tuple(sorted((d for d in self.detectors if d.arm is arm), key=str))


_ARMED_RE = re.compile(r"([a-z][a-z0-9_]*)([+-])\Z")
_BARE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_PAIR_RE = re.compile(
    r"\s*\(\s*([a-z][a-z0-9_]*[+-])\s*,\s*([a-z][a-z0-9_]*[+-])\s*\)"
)
_FRACTION_RE = re.compile(r"([+-]?\d+)/(\d+)\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")

_SECTION_RANK = {"modes": 0, "source": 1, "stage": 2, "discard": 3, "detect": 4}


def _end(tokens) -> int:
    """The 1-based column just past a line's last token."""
    text, col = tokens[-1]
    return col + len(text)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.declared: dict[Arm, list[str]] = {Arm.PLUS: [], Arm.MINUS: []}
        self.source: TwoPhotonState | None = None
        self.stages: list[Stage] = []
        self.discard: list[ModeLabel] = []
        self.detectors: list[ModeLabel] = []
        self.produced: set[ModeLabel] = set()
        self.consumed: set[ModeLabel] = set()

    @staticmethod
    def _err(line: int, col: int, code: str, message: str) -> "CircuitError":
        raise CircuitError(line, col, code, message)

    def parse(self) -> Circuit:
        rank = 0
        seen: set[str] = set()
        for lineno, raw in enumerate(self.lines, start=1):
            content = raw.split("#", 1)[0]
            if not content.strip():
                continue
            tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", content)]
            keyword, kw_col = tokens[0]
            if keyword not in _SECTION_RANK:
                self._err(lineno, kw_col, "syntax", f"unknown directive {keyword!r}")
            if _SECTION_RANK[keyword] < rank:
                self._err(lineno, kw_col, "syntax", f"{keyword!r} line after a later section")
            if keyword in ("source", "discard", "detect") and keyword in seen:
                self._err(lineno, kw_col, "syntax", f"duplicate {keyword!r} line")
            rank = _SECTION_RANK[keyword]
            seen.add(keyword)
            if keyword == "modes":
                self._parse_modes(tokens, lineno)
            elif keyword == "source":
                self._parse_source(content, tokens, lineno)
            elif keyword == "stage":
                self._parse_stage(tokens, lineno)
            else:
                self._parse_exit_set(keyword, tokens, lineno)
        if self.source is None:
            self._err(max(len(self.lines), 1), 1, "syntax", "missing source declaration")
        return Circuit(
            plus_modes=tuple(self.declared[Arm.PLUS]),
            minus_modes=tuple(self.declared[Arm.MINUS]),
            source=self.source,
            stages=tuple(self.stages),
            discard=frozenset(self.discard),
            detectors=frozenset(self.detectors),
        )

    # -- declarations -------------------------------------------------------

    def _parse_modes(self, tokens, lineno: int):
        if len(tokens) < 3:
            self._err(lineno, _end(tokens), "syntax", "expected: modes <+|-> <name>...")
        arm = self._arm(tokens[1], lineno)
        for name, col in tokens[2:]:
            if not _BARE_RE.match(name):
                self._err(lineno, col, "syntax", f"bad mode name {name!r}")
            if name in self.declared[arm]:
                self._err(lineno, col, "duplicate-mode", f"{name}{arm} declared twice")
            self.declared[arm].append(name)

    def _arm(self, token, lineno: int) -> Arm:
        arm_tok, arm_col = token
        if arm_tok not in ("+", "-"):
            self._err(lineno, arm_col, "syntax", f"expected + or -, got {arm_tok!r}")
        return Arm(arm_tok)

    def _check_declared(self, label: ModeLabel, lineno: int, col: int):
        if label.name not in self.declared[label.arm]:
            self._err(lineno, col, "undeclared-mode", str(label))

    def _armed(self, token, lineno: int, example: str) -> tuple[ModeLabel, int]:
        """The declared label an armed mode token like ``g+`` names, and its column."""
        tok, col = token
        armed = _ARMED_RE.match(tok)
        if armed is None:
            self._err(lineno, col, "syntax", f"expected an armed mode like {example}, got {tok!r}")
        label = ModeLabel(armed.group(1), Arm(armed.group(2)))
        self._check_declared(label, lineno, col)
        return label, col

    # -- source -------------------------------------------------------------

    def _parse_source(self, content: str, tokens, lineno: int):
        offset = tokens[0][1] - 1 + len(tokens[0][0])  # 0-based, just past 'source'
        segments = []
        start = offset
        for i in range(offset, len(content) + 1):
            if i == len(content) or content[i] == ";":
                segments.append((content[start:i], start))
                start = i + 1
        if len(segments) > 1 and not segments[-1][0].strip():
            segments.pop()
        entries = []
        for segment, seg_off in segments:
            if not segment.strip():
                self._err(lineno, seg_off + 1, "syntax", "empty source entry")
            m = _PAIR_RE.match(segment)
            if m is None:
                col = seg_off + len(segment) - len(segment.lstrip()) + 1
                self._err(lineno, col, "syntax", "expected a pairing like (a+,a-)")
            labels = []
            for group, want in ((1, Arm.PLUS), (2, Arm.MINUS)):
                token = m.group(group)
                col = seg_off + m.start(group) + 1
                label = ModeLabel.parse(token)
                if label.arm is not want:
                    self._err(lineno, col, "arm-mismatch",
                              f"{token}: slot {1 if want is Arm.PLUS else 2} needs a "
                              f"{'plus' if want is Arm.PLUS else 'minus'}-arm mode")
                self._check_declared(label, lineno, col)
                labels.append(label)
            amp_text = segment[m.end():]
            if not amp_text.strip():
                self._err(lineno, seg_off + m.end() + 1, "syntax", "expected an amplitude")
            try:
                amp = parse_amplitude(amp_text)
            except AmplitudeParseError as exc:
                self._err(lineno, seg_off + m.end() + exc.pos + 1, "syntax", str(exc))
            entries.append(((labels[0], labels[1]), amp))
            self.produced.update(labels)
        self.source = TwoPhotonState(entries)

    # -- stages -------------------------------------------------------------

    def _parse_stage(self, tokens, lineno: int):
        if len(tokens) < 2:
            self._err(lineno, _end(tokens), "syntax", "expected an element kind after 'stage'")
        kind, kind_col = tokens[1]
        if kind == "bs":
            self._parse_bs(tokens, lineno)
        elif kind == "phase":
            self._parse_phase(tokens, lineno)
        elif kind in optics.PRESETS:
            self._parse_preset(tokens, lineno)
        elif kind.startswith("preset"):
            self._err(lineno, kind_col, "unknown-preset", kind)
        else:
            self._err(lineno, kind_col, "syntax",
                      f"expected bs, phase or one of {'/'.join(optics.PRESETS)}, got {kind!r}")

    def _resolve_mode(self, token: str, col: int, lineno: int, arm_hint: Arm | None) -> ModeLabel:
        armed = _ARMED_RE.match(token)
        if armed:
            label = ModeLabel(armed.group(1), Arm(armed.group(2)))
            if arm_hint is not None and label.arm is not arm_hint:
                self._err(lineno, col, "arm-mismatch",
                          f"{token} conflicts with the stage arm {arm_hint}")
        elif _BARE_RE.match(token):
            if arm_hint is None:
                if (token not in self.declared[Arm.PLUS]
                        and token not in self.declared[Arm.MINUS]):
                    self._err(lineno, col, "undeclared-mode", token)
                self._err(lineno, col, "syntax",
                          f"bare mode {token!r} needs a trailing arm marker on the stage")
            label = ModeLabel(token, arm_hint)
        else:
            self._err(lineno, col, "syntax", f"expected a mode token, got {token!r}")
        self._check_declared(label, lineno, col)
        return label

    def _check_live(self, label: ModeLabel, lineno: int, col: int):
        """A stage may only act on a label that is produced and not yet consumed."""
        if label in self.consumed:
            self._err(lineno, col, "double-consume", str(label))
        if label not in self.produced:
            self._err(lineno, col, "dead-mode", f"{label} has not been produced yet")

    def _consume(self, label: ModeLabel, lineno: int, col: int):
        self._check_live(label, lineno, col)
        self.consumed.add(label)

    def _produce(self, label: ModeLabel, lineno: int, col: int):
        if label in self.produced:
            self._err(lineno, col, "double-produce", f"{label} was already produced")
        self.produced.add(label)

    def _parse_bs(self, tokens, lineno: int):
        line_end = _end(tokens)
        if len(tokens) < 3:
            self._err(lineno, line_end, "syntax", "expected: stage bs <t> <in> <in> -> <out> <out>")
        t_tok, t_col = tokens[2]
        m = _FRACTION_RE.match(t_tok)
        if m is None:
            self._err(lineno, t_col, "syntax", f"expected a transmissivity like 1/3, got {t_tok!r}")
        if int(m.group(2)) == 0:
            self._err(lineno, t_col, "syntax", "zero denominator in transmissivity")
        t = Fraction(int(m.group(1)), int(m.group(2)))
        if not 0 < t < 1:
            self._err(lineno, t_col, "bad-transmissivity", f"{t_tok} is outside (0,1)")
        rest = tokens[3:]
        arrow = next((i for i, (tok, _) in enumerate(rest) if tok == "->"), None)
        if arrow is None:
            self._err(lineno, line_end, "syntax", "expected '->' between inputs and outputs")
        in_toks = rest[:arrow]
        out_toks = rest[arrow + 1:]
        arm_hint: Arm | None = None
        if out_toks and out_toks[-1][0] in ("+", "-"):
            arm_hint = Arm(out_toks[-1][0])
            out_toks = out_toks[:-1]
        stage_arm: Arm | None = arm_hint
        ins: list[tuple[ModeLabel, int]] = []
        outs: list[tuple[ModeLabel, int]] = []
        for bucket, toks in ((ins, in_toks), (outs, out_toks)):
            for tok, col in toks:
                label = self._resolve_mode(tok, col, lineno, stage_arm)
                stage_arm = label.arm
                bucket.append((label, col))
        arrow_col = rest[arrow][1]
        if len(ins) != 2:
            self._err(lineno, arrow_col, "syntax", f"bs needs exactly two inputs, got {len(ins)}")
        if len(outs) != 2:
            self._err(lineno, line_end, "syntax", f"bs needs exactly two outputs, got {len(outs)}")
        for label, col in ins:
            self._consume(label, lineno, col)
        for label, col in outs:
            self._produce(label, lineno, col)
        try:
            stage = BeamSplitterStage(t, ins[0][0], ins[1][0], outs[0][0], outs[1][0])
            stage.transform()
        except UnsupportedRadical as exc:
            self._err(lineno, t_col, "unsupported-radical", str(exc))
        self.stages.append(stage)

    def _parse_phase(self, tokens, lineno: int):
        if len(tokens) != 4:
            self._err(lineno, _end(tokens), "syntax", "expected: stage phase <k> <mode>")
        k_tok, k_col = tokens[2]
        if not _INT_RE.match(k_tok):
            self._err(lineno, k_col, "syntax", f"expected an integer quarter-turn count, got {k_tok!r}")
        label, col = self._armed(tokens[3], lineno, "g+")
        self._check_live(label, lineno, col)  # in place: neither consumed nor produced
        self.stages.append(PhaseStage(int(k_tok) % 4, label))

    def _parse_preset(self, tokens, lineno: int):
        name, name_col = tokens[1]
        if len(tokens) != 3:
            self._err(lineno, _end(tokens), "syntax", f"expected: stage {name} <+|->")
        stage = PresetStage(name, self._arm(tokens[2], lineno))
        inputs, outputs = stage.inputs(), stage.outputs()
        for label in inputs + outputs:
            self._check_declared(label, lineno, name_col)
        for label in inputs:
            self._consume(label, lineno, name_col)
        for label in outputs:
            self._produce(label, lineno, name_col)
        self.stages.append(stage)

    # -- exit sets ----------------------------------------------------------

    def _parse_exit_set(self, keyword: str, tokens, lineno: int):
        if len(tokens) < 2:
            self._err(lineno, _end(tokens), "syntax",
                      f"expected at least one mode after {keyword!r}")
        bucket = self.discard if keyword == "discard" else self.detectors
        for token in tokens[1:]:
            label, col = self._armed(token, lineno, "c+")
            if label in self.consumed:
                self._err(lineno, col, "dead-mode", f"{label} is consumed by a stage, not an exit")
            if label in bucket:
                self._err(lineno, col, "duplicate-mode", str(label))
            if keyword == "detect" and label in self.discard:
                self._err(lineno, col, "discard-detect-overlap",
                          f"{label} is both discarded and detected")
            bucket.append(label)


def parse(text: str) -> Circuit:
    """Parse and validate circuit text; raises CircuitError with line/column/code."""
    return _Parser(text).parse()


def render(circuit: Circuit) -> str:
    """Canonical text for a circuit; ``parse(render(c)) == c``.

    The source must have at least one term (a fully cancelled source has no
    canonical spelling).
    """
    if circuit.source.is_zero:
        raise ValueError("cannot render a circuit whose source has no terms")
    lines = []
    if circuit.plus_modes:
        lines.append("modes + " + " ".join(circuit.plus_modes))
    if circuit.minus_modes:
        lines.append("modes - " + " ".join(circuit.minus_modes))
    lines.append("source " + "; ".join(
        f"({p},{m}) {amp}" for (p, m), amp in circuit.source.terms()
    ))
    lines.extend(stage.render() for stage in circuit.stages)
    if circuit.discard:
        lines.append("discard " + " ".join(sorted(map(str, circuit.discard))))
    if circuit.detectors:
        lines.append("detect " + " ".join(sorted(map(str, circuit.detectors))))
    return "\n".join(lines) + "\n"

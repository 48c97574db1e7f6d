"""Every parser and grammar diagnostic, pinned as text -> expected result.

A circuit row expects ``(code, line, column, message)`` from
:func:`hardysim.circuitdsl.parse`.  An amplitude row expects
``(message, offset)`` from :func:`hardysim.amplitude.parse_amplitude`, or the
value it parses to.
"""

import ast
import pathlib
import re
from fractions import Fraction

import pytest

from hardysim import optics
from hardysim.amplitude import AmplitudeParseError, UnsupportedRadical, parse_amplitude
from hardysim.circuitdsl import CircuitError, parse
from hardysim.state import plus

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEAD = (
    "modes + u v c d w x\n"
    "modes - u v c d w x\n"
    "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
)
# More digits than int() converts by default (4300), at every integer token.
LONG = "1" + "0" * 4999
PRESET_HEAD = (
    "modes + a b u v g f c d\n"
    "modes - a b u v g f c d\n"
    "source (a+,a-) (1/1)/sqrt(2); (b+,b-) (1/1)/sqrt(2)\n"
)


def outcome(parser, text):
    try:
        return parser(text)
    except CircuitError as exc:
        return (exc.code, exc.line, exc.column, exc.message)
    except AmplitudeParseError as exc:
        return (str(exc), exc.pos)


PINS = [
    # modes
    (parse, "modes +\n", ("syntax", 1, 8, "expected: modes <+|-> <name>...")),
    (parse, "modes x u\n", ("syntax", 1, 7, "expected + or -, got 'x'")),
    (parse, "modes + u 9v\n", ("syntax", 1, 11, "bad mode name '9v'")),
    # source
    (parse, "modes + u\nmodes - u\nsource u+ u- (1/1)\n",
     ("syntax", 3, 8, "expected a pairing like (a+,a-)")),
    (parse, "modes + u\nmodes - u\nsource (u+,u-)\n", ("syntax", 3, 15, "expected an amplitude")),
    (parse, "modes + u\nmodes - u\n  source (u+,u-) 1; (u+,u-) -1\n",
     ("zero-source", 3, 3, "the source terms sum to zero")),
    (parse, f"modes + u\nmodes - u\nsource (u+,u-) (1/{LONG})\n",
     ("syntax", 3, 16, "integer literal of 5000 digits is too long")),
    (parse, f"modes + u\nmodes - u\nsource (u+,u-) (1/2)*sqrt({LONG})\n",
     ("syntax", 3, 22, "integer literal of 5000 digits is too long")),
    # stage kinds
    (parse, HEAD + "stage\n", ("syntax", 4, 6, "expected an element kind after 'stage'")),
    (parse, HEAD + "stage mirror u+\n",
     ("syntax", 4, 7, "expected bs, phase or one of preset_eq2/preset_eq5, got 'mirror'")),
    # stage bs
    (parse, HEAD + "stage bs\n",
     ("syntax", 4, 9, "expected: stage bs <t> <in> <in> -> <out> <out>")),
    (parse, HEAD + "stage bs half u+ v+ -> c+ d+\n",
     ("syntax", 4, 10, "expected a transmissivity like 1/3, got 'half'")),
    (parse, HEAD + "stage bs 1/0 u+ v+ -> c+ d+\n",
     ("syntax", 4, 10, "zero denominator in transmissivity")),
    (parse, HEAD + f"stage bs 1/{LONG} u+ v+ -> c+ d+\n",
     ("syntax", 4, 10, "integer literal of 5000 digits is too long")),
    (parse, HEAD + "stage bs 1/2 u+ V+ -> c+ d+\n",
     ("syntax", 4, 17, "expected a mode token, got 'V+'")),
    (parse, HEAD + "stage bs 1/2 u+ -> c+ d+\n",
     ("syntax", 4, 17, "bs needs exactly two inputs, got 1")),
    (parse, HEAD + "stage bs 1/2 u+ v+ -> c+\n",
     ("syntax", 4, 25, "bs needs exactly two outputs, got 1")),
    # unsupported-radical: sqrt(t) is checked before sqrt(1-t), and only once the
    # labels are live
    (parse, HEAD + "stage bs 1/5 u+ v+ -> c+ d+\n",
     ("unsupported-radical", 4, 10, "sqrt(1/5) needs sqrt(5), outside the basis")),
    (parse, HEAD + "stage bs 4/9 u+ v+ -> c+ d+\n",
     ("unsupported-radical", 4, 10, "sqrt(5/9) needs sqrt(5), outside the basis")),
    (parse, HEAD + "stage bs 4/9 u v -> c d +\n",
     ("unsupported-radical", 4, 10, "sqrt(5/9) needs sqrt(5), outside the basis")),
    (parse, HEAD + "stage bs 1/5 c+ d+ -> w+ x+\n", ("dead-mode", 4, 14, "c+ has not been produced yet")),
    # stage phase
    (parse, HEAD + "stage phase 1\n", ("syntax", 4, 14, "expected: stage phase <k> <mode>")),
    (parse, HEAD + "stage phase 1 u+ v+\n", ("syntax", 4, 20, "expected: stage phase <k> <mode>")),
    (parse, HEAD + "stage phase x u+\n",
     ("syntax", 4, 13, "expected an integer quarter-turn count, got 'x'")),
    (parse, HEAD + f"stage phase {LONG} u+\n",
     ("syntax", 4, 13, "integer literal of 5000 digits is too long")),
    (parse, HEAD + "stage phase 1 u\n", ("syntax", 4, 15, "expected an armed mode like g+, got 'u'")),
    (parse, HEAD + "stage bs 1/2 u+ v+ -> c+ d+\nstage phase 1 u+\n",
     ("double-consume", 5, 15, "u+")),
    (parse, HEAD + "stage phase 1 c+\n", ("dead-mode", 4, 15, "c+ has not been produced yet")),
    # stage preset_*: modes are checked in the order u v g f, then c d
    (parse, HEAD + "stage preset_eq5\n", ("syntax", 4, 17, "expected: stage preset_eq5 <+|->")),
    (parse, HEAD + "stage preset_eq5 + -\n", ("syntax", 4, 21, "expected: stage preset_eq5 <+|->")),
    (parse, HEAD + "stage preset_eq5 x\n", ("syntax", 4, 18, "expected + or -, got 'x'")),
    (parse, "modes + a b u v f c d\nmodes - a\nsource (a+,a-) (1/1)\nstage preset_eq2 +\n",
     ("undeclared-mode", 4, 7, "g+")),
    (parse, "modes + u v d\nmodes - u\nsource (u+,u-) (1/1)\nstage preset_eq5 +\n",
     ("undeclared-mode", 4, 7, "c+")),
    (parse, PRESET_HEAD + "stage preset_eq5 +\n", ("dead-mode", 4, 7, "u+ has not been produced yet")),
    (parse, PRESET_HEAD + "stage preset_eq2 +\nstage preset_eq2 +\n",
     ("double-consume", 5, 7, "a+")),
    (parse, PRESET_HEAD.replace("(b+,b-) (1/1)/sqrt(2)", "(b+,b-) (1/2); (v+,b-) (1/2)")
     + "stage preset_eq2 +\n", ("double-produce", 4, 7, "v+ was already produced")),
    (parse, HEAD + "stage bs 1/2 u+ v+ -> c+ d+\nstage preset_eq5 +\n",
     ("double-consume", 5, 7, "u+")),
    # discard / detect
    (parse, HEAD + "discard\n", ("syntax", 4, 8, "expected at least one mode after 'discard'")),
    (parse, HEAD + "detect\n", ("syntax", 4, 7, "expected at least one mode after 'detect'")),
    (parse, HEAD + "discard u\n", ("syntax", 4, 9, "expected an armed mode like c+, got 'u'")),
    (parse, HEAD + "detect c+ d\n", ("syntax", 4, 11, "expected an armed mode like c+, got 'd'")),
    # amplitude grammar
    (parse_amplitude, "(1/2) (1/3)", ("unexpected '(1/3)'", 6)),
    (parse_amplitude, "(1/2) i", ("unexpected 'i'", 6)),
    (parse_amplitude, "(1/2)/0", ("division by zero", 6)),
    (parse_amplitude, "(1/2)/(0/3)", ("division by zero", 6)),
    (parse_amplitude, "(1/2)/3", parse_amplitude("(1/6)")),
    (parse_amplitude, "(-3/4)/(3/2)*i", parse_amplitude("(-1/2)*i")),
    (parse_amplitude, "(1/2)/sqrt(5)", ("sqrt(1/5) needs sqrt(5), outside the basis", 6)),
    (parse_amplitude, "1/sqrt(0)", ("sqrt of non-positive 0 is outside the basis", 2)),
    (parse_amplitude, "sqrt(1/0)", ("zero denominator under sqrt", 0)),
    (parse_amplitude, "(1/2)/sqrt(1/0)", ("zero denominator under sqrt", 6)),
    (parse_amplitude, "(1/2) * *", ("expected a factor, found '*'", 8)),
    (parse_amplitude, "--1", ("expected a factor, found '-'", 1)),
    (parse_amplitude, "(1/2) +", ("expected a factor", 7)),
    (parse_amplitude, "", ("expected a factor", 0)),
    (parse_amplitude, f"(1/2) - ({LONG}/3)*i", ("integer literal of 5000 digits is too long", 8)),
]


@pytest.mark.parametrize("parser, text, expected", PINS)
def test_diagnostic(parser, text, expected):
    assert outcome(parser, text) == expected


def test_unsupported_radical_agrees_with_building_the_splitter():
    """The parser reports ``unsupported-radical`` for t = p/q exactly when
    ``optics.beamsplitter`` refuses t, with the same message."""
    labels = [plus(name) for name in ("u", "v", "c", "d")]
    refused = 0
    for q in range(2, 25):
        for p in range(1, q):
            text = HEAD + f"stage bs {p}/{q} u+ v+ -> c+ d+\n"
            try:
                built = optics.beamsplitter(Fraction(p, q), *labels)
            except UnsupportedRadical as exc:
                refused += 1
                assert outcome(parse, text) == ("unsupported-radical", 4, 10, str(exc))
            else:
                assert parse(text).stages[0].transform() == built
    assert 0 < refused < 276


def test_error_code_lists_match_the_parser():
    """The codes passed to ``_err`` are exactly those listed in the module docstring
    and in the README, so neither list can drift."""
    source = (ROOT / "src" / "hardysim" / "circuitdsl.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    raised = {
        node.args[2].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_err"
    }
    docstring = ast.get_docstring(tree)
    in_docstring = docstring.split("stable kebab-case code:", 1)[1].replace(",", " ").split()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    in_readme = re.search(r"one of the stable codes\n\n```\n(.*?)```", readme, re.S).group(1).split()
    assert raised == set(in_docstring) == set(in_readme)
    assert len(in_docstring) == len(in_readme) == len(raised)

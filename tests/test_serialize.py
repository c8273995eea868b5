from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from cycle_integrals.serialize import dump_report


@dataclass(frozen=True)
class Inner:
    ratio: Fraction
    zeros: tuple


@dataclass(frozen=True)
class Outer:
    inner: Inner
    limit: complex | None


class TestDumpReport:
    def test_numbers_and_dataclasses(self):
        # a dataclass is written as its fields, recursively, a Fraction as
        # "p/q" and every complex number, numpy's included, as plain reprs
        report = {"z": 0.1 - 2.5j, "w": np.complex128(3 + 0.2j),
                  "q": Fraction(-7, 3),
                  "outer": Outer(Inner(Fraction(5), (1j,)), None)}
        assert dump_report(report) == "\n".join([
            '{',
            '  "outer": {',
            '    "inner": {',
            '      "ratio": "5",',
            '      "zeros": [',
            '        [',
            '          "0.0",',
            '          "1.0"',
            '        ]',
            '      ]',
            '    },',
            '    "limit": null',
            '  },',
            '  "q": "-7/3",',
            '  "w": [',
            '    "3.0",',
            '    "0.2"',
            '  ],',
            '  "z": [',
            '    "0.1",',
            '    "-2.5"',
            '  ]',
            '}'])

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="set"):
            dump_report({"s": {1, 2}})

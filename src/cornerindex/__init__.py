"""Jumbled (letter-count) substring queries on binary strings.

Build a small index from a string's run-length encoding, then answer
"does a substring with exactly x a's and y b's exist" in logarithmic time,
and recover both prefix normal forms from the same structure.
"""

from . import corner, oracle, persist, pnf, rle, textgen
from .corner import *
from .oracle import *
from .persist import *
from .pnf import *
from .rle import *
from .textgen import *

__version__ = "0.1.0"

__all__ = [
    *corner.__all__,
    *oracle.__all__,
    *persist.__all__,
    *pnf.__all__,
    *rle.__all__,
    *textgen.__all__,
    "__version__",
]

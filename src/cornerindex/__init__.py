"""Jumbled (letter-count) substring queries on binary strings.

Build a small index from a string's run-length encoding, then answer
"does a substring with exactly x a's and y b's exist" in logarithmic time,
and recover both prefix normal forms from the same structure.
"""

from .corner import (
    BuildTrace,
    CornerIndex,
    CornerList,
    LengthTables,
    ParikhVector,
    assemble_lmax,
    assemble_lmin,
    build_index,
    build_lmax,
    build_lmin,
    index_from_rle,
    lmax_candidates,
    lmin_candidates,
)
from .oracle import (
    DEFAULT_MAX_TEXT,
    BminBmaxTable,
    TextTooLongError,
    bmin_bmax_naive,
    lemma1_witness_check,
    parikh_set_bruteforce,
    sliding_window_query,
    verify_interval_lemma,
)
from .persist import (
    FORMAT_VERSION,
    MAGIC,
    CorruptIndexError,
    IndexFormatError,
    deserialize,
    file_size,
    load_index,
    save_index,
    serialize,
)
from .pnf import PnfPair, pnf_from_index, verify_pnf_relations
from .rle import (
    InputFormatError,
    MalformedEncodingError,
    RunLengthEncoding,
    decode,
    encode,
    rho,
)
from .textgen import coin_string, geometric_run_string

__version__ = "0.1.0"

__all__ = [
    "BminBmaxTable",
    "BuildTrace",
    "CornerIndex",
    "CornerList",
    "CorruptIndexError",
    "DEFAULT_MAX_TEXT",
    "FORMAT_VERSION",
    "IndexFormatError",
    "InputFormatError",
    "LengthTables",
    "MAGIC",
    "MalformedEncodingError",
    "ParikhVector",
    "PnfPair",
    "RunLengthEncoding",
    "TextTooLongError",
    "assemble_lmax",
    "assemble_lmin",
    "bmin_bmax_naive",
    "build_index",
    "build_lmax",
    "build_lmin",
    "coin_string",
    "decode",
    "deserialize",
    "encode",
    "file_size",
    "geometric_run_string",
    "index_from_rle",
    "lemma1_witness_check",
    "lmax_candidates",
    "lmin_candidates",
    "load_index",
    "parikh_set_bruteforce",
    "pnf_from_index",
    "rho",
    "save_index",
    "serialize",
    "sliding_window_query",
    "verify_interval_lemma",
    "verify_pnf_relations",
    "__version__",
]

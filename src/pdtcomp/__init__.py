"""Matched-pair stack codec and its measurement toolkit.

A deterministic one-to-one pushdown transducer that pushes fresh symbols
and cancels repeats against the stack, coding pop runs with two marker
symbols; its exact inverse; generators for mirrored lexicographic
enumeration sequences whose coded form is measurably shorter than the
input for alphabets of five or more symbols; and the analysis machinery
quantifying why (run census, savings accounting, ratio series, and one
exact integer comparison of coded and plain rates behind every verdict
that rho is below 1).

``import pdtcomp`` loads the codec, the generators and the stream formats,
and exports names from those three modules only.  The
:mod:`~pdtcomp.analysis`, :mod:`~pdtcomp.engine` and :mod:`~pdtcomp.rewrite`
modules are imported by name (``from pdtcomp import analysis``), so a
process that only codes files never loads them.
"""

from . import codec, seqgen, streamio
from .codec import (
    AlphabetError,
    Compressor,
    Decompressor,
    MalformedStreamError,
    build_compressor,
    build_decompressor,
    compress,
    decompress,
)
from .seqgen import lex_concat, mirrored_segment
from .streamio import decode_stream, encode_stream

__version__ = "0.1.0"

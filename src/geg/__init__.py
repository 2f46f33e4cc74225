"""Generalized ElGamal cipher over GL(d, F_p).

Two-party key agreement and block encryption in the general linear group
over a byte-sized prime field (p = 251 by default).  Each cipher session
re-derives the public basis and generator from the session key; the key
itself moves until its walk ends in a cycle, most often a fixed point
K**(m*n) = K.  The `geg analyze` report (`geg.analysis`) is imported by
module name and not re-exported here, so a process that only encrypts never
loads it.
"""

import os
import sys
# the float64 products (linalg.product_mod) go to BLAS one d-by-d matrix at a
# time, too small to split across threads: a thread pool only costs start-up and exit
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .commuting import CommutingContext, DiagonalSpec
from .errors import (
    CodecError,
    CorruptBlockError,
    FrameLengthError,
    FrameMagicError,
    FrameTypeError,
    FrameValueError,
    GegError,
    PaddingError,
    ProtocolError,
    SingularMatrixError,
)
from .field import DEFAULT_PRIME, RandomSource
from .linalg import MatrixFp
from .protocol import (
    Entity,
    Phase,
    extract_exponents,
    handshake,
    setup_shared,
    start_session,
)

__version__ = "0.1.0"

__all__ = [
    "CodecError",
    "CommutingContext",
    "CorruptBlockError",
    "DEFAULT_PRIME",
    "DiagonalSpec",
    "Entity",
    "FrameLengthError",
    "FrameMagicError",
    "FrameTypeError",
    "FrameValueError",
    "GegError",
    "MatrixFp",
    "PaddingError",
    "Phase",
    "ProtocolError",
    "RandomSource",
    "SingularMatrixError",
    "extract_exponents",
    "handshake",
    "setup_shared",
    "start_session",
]

"""Generalized ElGamal cipher over GL(d, F_p).

Two-party key agreement and block encryption in the general linear group
over a byte-sized prime field (p = 251 by default), with every public
parameter recursively re-derived per cipher session, plus the analysis
toolkit for the underlying algebra.
"""

import os
import sys
if "numpy" not in sys.modules:  # no float products here: BLAS threads only cost start-up and exit
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .commuting import CommutingContext, DiagonalSpec, commutes
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
from .linalg import MatrixFp, companion_matrix
from .polyfield import (
    PolyFp,
    count_irreducible_monic,
    count_monic_nontrivial,
    element_order,
    is_irreducible,
    rand_irreducible,
)
from .protocol import (
    CipherBlock,
    Entity,
    Phase,
    extract_exponents,
    handshake,
    setup_shared,
    start_session,
)

__version__ = "0.1.0"

__all__ = [
    "CipherBlock",
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
    "PolyFp",
    "ProtocolError",
    "RandomSource",
    "SingularMatrixError",
    "commutes",
    "companion_matrix",
    "count_irreducible_monic",
    "count_monic_nontrivial",
    "element_order",
    "extract_exponents",
    "handshake",
    "is_irreducible",
    "rand_irreducible",
    "setup_shared",
    "start_session",
]

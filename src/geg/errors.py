"""Exception hierarchy shared by the whole package.

Callers that need to branch (resample on a singular draw, distinguish a
framing problem from a protocol desync) catch the specific class; everything
derives from :class:`GegError` so a blanket handler stays possible.
"""


class GegError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(GegError):
    """A matrix required to be invertible has zero determinant; `index` is
    its place in the stack that was inverted, if there was one."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class ProtocolError(GegError):
    """Protocol state machine misuse or inconsistent peer data."""


class MalformedMatrixError(ProtocolError):
    """A received matrix is no sandwich Z^a G Z^b of the generator it must fit.

    `index` is its place in the stack that was read; `singular` says that it
    has the form, but with a zero weight.
    """

    def __init__(self, index: int, singular: bool):
        self.index, self.singular = index, singular
        super().__init__(f"matrix {index} of the stack {self.reason}")

    @property
    def reason(self) -> str:
        return "is singular" if self.singular else "is not a sandwich of the generator"


class CodecError(GegError):
    """Base class for wire-format and block-codec errors."""


class FrameMagicError(CodecError):
    """Frame does not start with the supported magic/version bytes."""


class FrameTypeError(CodecError):
    """Frame carries an unknown message type."""


class FrameLengthError(CodecError):
    """Frame is truncated or its declared payload length is wrong."""


class FrameValueError(CodecError):
    """Frame payload contains a value outside its allowed domain."""


class PaddingError(CodecError):
    """Plaintext block padding is malformed."""


class CorruptBlockError(CodecError):
    """A decoded block does not represent valid packed plaintext."""

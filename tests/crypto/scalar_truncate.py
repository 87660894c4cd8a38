"""The masking truncation :func:`repro.crypto.onewayfn.truncate_to_bits`
ran for every width before its whole-byte fast path: the oracle the
tests pin the fast path (and the HMAC kernel's slices) to."""

from __future__ import annotations

from repro.errors import ConfigurationError


def truncate_oracle(digest: bytes, bits: int) -> bytes:
    """``digest`` cut to ``ceil(bits / 8)`` bytes, the unused low-order
    bits of the last byte masked to zero."""
    if bits <= 0:
        raise ConfigurationError(f"bit width must be positive, got {bits}")
    if bits > len(digest) * 8:
        raise ConfigurationError(
            f"cannot truncate a {len(digest) * 8}-bit digest to {bits} bits"
        )
    nbytes = (bits + 7) // 8
    out = bytearray(digest[:nbytes])
    spare = nbytes * 8 - bits
    if spare:
        out[-1] &= (0xFF << spare) & 0xFF
    return bytes(out)

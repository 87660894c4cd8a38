"""Domain-separated one-way functions for TESLA-family key chains.

The TESLA literature (and the reproduced paper) uses several distinct
one-way functions:

``F`` / ``F0``
    Generates the next-older key of a key chain: ``K_i = F(K_{i+1})``.
``F1``
    Generates low-level key chains in multi-level μTESLA.
``F01``
    Connects the high-level chain to the low-level chains
    (``K_{i,n} = F01(K_{i+1})`` originally; ``F01(K_i)`` in EFTP).
``H``
    A pseudorandom function used by EDRP to chain CDM packets
    (``CDM_i`` carries ``H(CDM_{i+1})``).

The paper leaves the concrete instantiation open ("one-way hash function
F"); we instantiate each as SHA-256 with a per-function domain-separation
label, truncated to the configured output width (80 bits by default, the
key size used throughout the paper's accounting). Domain separation
guarantees that, e.g., ``F`` and ``F01`` behave as independent one-way
functions even though both are backed by SHA-256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict

from repro import perf
from repro.crypto import kernels
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_KEY_BITS",
    "OneWayFunction",
    "truncate_to_bits",
    "standard_functions",
]

#: Key width used throughout the paper's storage accounting (Fig. 4).
DEFAULT_KEY_BITS = 80


def truncate_to_bits(digest: bytes, bits: int) -> bytes:
    """Truncate ``digest`` to exactly ``bits`` bits.

    The result occupies ``ceil(bits / 8)`` bytes; when ``bits`` is not a
    multiple of eight the unused low-order bits of the final byte are
    masked to zero, so equal truncations compare equal bytewise.

    Raises:
        ConfigurationError: if ``bits`` is not positive or exceeds the
            digest length.
    """
    if bits <= 0:
        raise ConfigurationError(f"bit width must be positive, got {bits}")
    if bits > len(digest) * 8:
        raise ConfigurationError(
            f"cannot truncate a {len(digest) * 8}-bit digest to {bits} bits"
        )
    if not bits % 8:
        # Whole bytes (both default widths, 80 and 24): nothing to mask.
        return bytes(digest[: bits // 8])
    nbytes = (bits + 7) // 8
    out = bytearray(digest[:nbytes])
    spare = nbytes * 8 - bits
    if spare:
        out[-1] &= (0xFF << spare) & 0xFF
    return bytes(out)


@dataclass(frozen=True)
class OneWayFunction:
    """A labelled one-way function ``{0,1}* -> {0,1}^output_bits``.

    Instances are callable::

        F = OneWayFunction("F")
        older_key = F(newer_key)

    Attributes:
        label: domain-separation label; two functions with different
            labels are computationally independent.
        output_bits: width of the output in bits (default 80).
    """

    label: str
    output_bits: int = DEFAULT_KEY_BITS

    # Hot-path values planted per instance by __post_init__ through
    # object.__setattr__. Annotated ClassVar so neither the dataclass
    # machinery nor stable_key's fields() walk treats them as fields.
    _prefix: ClassVar[bytes]
    _nbytes: ClassVar[int]
    _mask: ClassVar[int]

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("one-way function label must be non-empty")
        if self.output_bits <= 0 or self.output_bits > 256:
            raise ConfigurationError(
                f"output_bits must be in (0, 256], got {self.output_bits}"
            )
        # Hot-path precomputation (object.__setattr__: the dataclass is
        # frozen; these derived values are not fields, so equality,
        # hashing and pickling are unaffected). The prefix is what the
        # midstate cache in repro.crypto.kernels is keyed by.
        object.__setattr__(
            self, "_prefix", b"repro.owf|" + self.label.encode("utf-8") + b"|"
        )
        nbytes = (self.output_bits + 7) // 8
        spare = nbytes * 8 - self.output_bits
        object.__setattr__(self, "_nbytes", nbytes)
        object.__setattr__(self, "_mask", (0xFF << spare) & 0xFF if spare else 0)

    @property
    def output_bytes(self) -> int:
        """Size of the output in whole bytes."""
        return (self.output_bits + 7) // 8

    def _truncate(self, digest: bytes) -> bytes:
        """Inlined :func:`truncate_to_bits` for pre-validated widths."""
        out = digest[: self._nbytes]
        if self._mask:
            out = out[:-1] + bytes((out[-1] & self._mask,))
        return out

    def __call__(self, value: bytes) -> bytes:
        """Apply the one-way function once."""
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"expected bytes input, got {type(value).__name__}")
        active = perf.ACTIVE
        if active is not None:
            active.incr("crypto.hash")
        h = kernels.sha256_midstate(self._prefix).copy()
        h.update(value)
        return self._truncate(h.digest())

    def iterate(self, value: bytes, times: int) -> bytes:
        """Apply the function ``times`` times (``times = 0`` is identity).

        Key-chain verification walks a disclosed key back to the last
        authenticated key with exactly this operation, so the loop
        clones the cached midstate per step instead of going back
        through :meth:`__call__`'s per-call setup.
        """
        if times < 0:
            raise ConfigurationError(f"iteration count must be >= 0, got {times}")
        result = bytes(value)
        if times == 0:
            return result
        active = perf.ACTIVE
        if active is not None:
            active.incr("crypto.hash", times)
            active.observe("crypto.chain_walk", times)
        truncate = self._truncate
        midstate = kernels.sha256_midstate(self._prefix)
        for _ in range(times):
            h = midstate.copy()
            h.update(result)
            result = truncate(h.digest())
        return result


# Labels for the standard function family used by the protocols.
_STANDARD_LABELS = ("F", "F0", "F1", "F01", "H")


def standard_functions(output_bits: int = DEFAULT_KEY_BITS) -> Dict[str, OneWayFunction]:
    """Build the standard function family ``{F, F0, F1, F01, H}``.

    All functions share the same output width but are domain-separated,
    matching the paper's use of distinct functions for distinct roles.
    """
    return {label: OneWayFunction(label, output_bits) for label in _STANDARD_LABELS}

"""Cryptographic substrate: one-way functions, key chains, MAC schemes.

Everything the TESLA protocol family needs, instantiated from SHA-256
with explicit domain separation and bit-accurate output widths so the
storage/bandwidth accounting matches the paper's numbers.
"""

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.keychain import (
    KeyChain,
    KeyChainAuthenticator,
    TwoLevelKeyChain,
    derive_seed_key,
)
from repro.crypto.mac import (
    DEFAULT_MAC_BITS,
    INDEX_BITS,
    MESSAGE_BITS,
    MICRO_MAC_BITS,
    MacScheme,
    MicroMacScheme,
)
from repro.crypto.onewayfn import (
    DEFAULT_KEY_BITS,
    OneWayFunction,
    standard_functions,
    truncate_to_bits,
)
from repro.crypto.pebbled import (
    PEBBLED_THRESHOLD,
    PebbledKeyChain,
    make_key_chain,
    pebble_bound,
)

__all__ = [
    "DEFAULT_KEY_BITS",
    "DEFAULT_MAC_BITS",
    "INDEX_BITS",
    "MESSAGE_BITS",
    "MICRO_MAC_BITS",
    "PEBBLED_THRESHOLD",
    "ChainWalkCache",
    "KeyChain",
    "KeyChainAuthenticator",
    "MacScheme",
    "MicroMacScheme",
    "OneWayFunction",
    "PebbledKeyChain",
    "TwoLevelKeyChain",
    "derive_seed_key",
    "make_key_chain",
    "pebble_bound",
    "standard_functions",
    "truncate_to_bits",
]

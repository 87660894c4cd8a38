"""Known-bad RPL001 fixture: direct primitive hashing outside the
kernel allowlist (checked as if it lived under ``repro/protocols/``)."""

import hashlib
import hmac


def tag_payload(payload: bytes, key: bytes) -> bytes:
    mac = hmac.new(key, payload, "sha256").digest()
    return hashlib.sha256(payload + mac).digest()


def keyed_tag(payload: bytes, key: bytes) -> bytes:
    # keyed BLAKE2 is a primitive too: it must not bypass the kernels
    return hashlib.blake2s(payload, key=key, digest_size=3).digest()

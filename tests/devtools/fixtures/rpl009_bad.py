"""RPL009 bad corpus: scalar MACs in loops."""

from repro.crypto.mac import MacScheme, MicroMacScheme


def verify_all(scheme: MacScheme, key: bytes, records):
    ok = []
    for message, mac in records:
        # scalar verify in a flood loop: one key-block setup per record
        ok.append(scheme.verify(key, message, mac))
    return ok


def tag_all(micro: MicroMacScheme, key: bytes, macs):
    # scalar compute in a comprehension: same per-call setup cost
    return [micro.compute(key, mac) for mac in macs]

"""Known-good RPL012 fixture: produced and consumed fields line up,
kinds share one schema."""


def send_status(stream, worker_id):
    stream.send({"type": "status", "worker_id": worker_id})


def send_record(stream, t, pending):
    stream.send({"type": "record", "t": t, "pending": pending})


def handle(message):
    return message["worker_id"]


def handle_record(message):
    return message["t"], message.get("pending")


def first_record(t):
    return {"kind": "probe", "t": t, "pending": 0}


def second_record(t):
    return {"kind": "probe", "t": t, "pending": 1}

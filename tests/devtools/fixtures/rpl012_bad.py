"""Known-bad RPL012 fixture: wire drift and kind drift (checked as if
it lived under ``repro/cluster/``)."""


def send_status(stream, worker_id):
    stream.send(
        {
            "type": "status",
            "worker_id": worker_id,
            "hostname": "localhost",
        }
    )


def handle(message):
    worker = message["worker_id"]
    uptime = message.get("uptime", 0.0)
    return worker, uptime


def first_record(t):
    return {"kind": "probe", "t": t, "pending": 0}


def second_record(t):
    return {"kind": "probe", "t": t}

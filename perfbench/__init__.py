"""Repository benchmark: workloads, harness and layer tracer (see run.py)."""

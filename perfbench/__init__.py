"""Repository benchmark: three workloads, untraced and traced passes (see run.py)."""

"""Stdlib-only benchmark for momentkit; run it with ``python3 bench/run.py``."""

"""End-to-end benchmark of the ULC simulator; run ``perfbench/run.py``."""

"""End-to-end and per-layer benchmark for mems4; see perfbench/README.md."""

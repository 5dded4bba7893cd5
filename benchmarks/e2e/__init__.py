"""End-to-end and per-layer benchmark of the GEM flow (README.md in this directory)."""

"""The end-to-end benchmark harness (see ../README.md); only ``adapter`` imports ``repro``."""

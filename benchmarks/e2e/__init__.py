"""End-to-end wall-clock benchmark of the simulator (see README.md)."""

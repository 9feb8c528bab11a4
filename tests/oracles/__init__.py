"""Reference implementations kept for equivalence tests, not shipped in ``src/``."""

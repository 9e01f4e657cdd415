"""pathlab: Patricia-trie path-length instrumentation, an analytic
distribution model for random 20-byte keys, and a seeded Monte-Carlo
validation harness."""

__version__ = "0.1.0"

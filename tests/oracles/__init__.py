"""Reference implementations the tests compare production code against.

Obvious, slow, and imported by nothing under ``src/``.
"""

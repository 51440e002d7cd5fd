"""Placeholder left where the removed numpy ``vector`` backend lived.

Not a kernel backend: ``get_backend("vector")`` raises ``ValueError``.
The module stays importable only because ``perfbench/layers.py``
imports it to patch a ``heuristic_cost`` binding; delete it together
with that import.
"""

"""The union-find finish layer's own name for the driver union-find.

This module holds only ``run_components``. ``framework.finish_with_sample``
calls the union-find finish as ``uf_finish.run_components`` (``connectivity``
and ``spanning_forest`` reach it only through ``finish_with_sample``), and
``perfbench/spans.py`` wraps ``repro.core.uf_finish.run_components`` to trace
that finish apart from the k-out sampling pass, which calls
``run_components`` through ``repro.core.sampling``.
"""
from repro.unionfind import run_components  # noqa: F401

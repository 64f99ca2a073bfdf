"""The kernels every layer calls: a re-export of `_kernels_py`.

The word kernels are all folds of `append_slot`.  ``BACKEND`` names the
implementation, which is always pure Python.
"""

from . import _kernels_py as _impl  # the defining module, read by perfbench/tracer.py
from ._kernels_py import (
    append_slot,
    canonical_if_lean,
    commutes,
    is_lean,
    lean_reduce,
    lex_least,
)

BACKEND = "python"

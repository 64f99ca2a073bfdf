"""Kernel backend selection.

The word kernels, all folds of `append_slot`, have one implementation:
`_kernels_py`.  The breadth-first kernels that serve the test oracle come
from the compiled Cython twin when the extension was built, falling back
to the pure-Python ones otherwise.  ``CACTUS_GROUPS_PURE=1`` in the
environment forces the fallback (useful for benchmarking and debugging).
``BACKEND`` names the implementation selected for the breadth-first
kernels.
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("CACTUS_GROUPS_PURE") == "1":
    _impl = _kernels_py
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND

commutes = _kernels_py.commutes
append_slot = _kernels_py.append_slot
is_lean = _kernels_py.is_lean
lean_reduce = _kernels_py.lean_reduce
lex_least = _kernels_py.lex_least
canonical_if_lean = _kernels_py.canonical_if_lean
bfs_reach = _impl.bfs_reach
reachable_class = _impl.reachable_class
swap_class = _impl.swap_class
component_ids = _impl.component_ids

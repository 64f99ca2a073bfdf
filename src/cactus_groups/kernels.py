"""The kernels every layer calls: a re-export of `_kernels_py`.

`append_slot` is the scan the algebras call, and `lean_reduce` the fold
that carries the same scan in its own loop; the package's
``KERNEL_BACKEND`` names the implementation, which is always pure Python.
"""

from . import _kernels_py as _impl  # the defining module, read by perfbench/tracer.py
from ._kernels_py import append_slot, lean_reduce

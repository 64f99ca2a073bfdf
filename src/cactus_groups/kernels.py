"""The kernels every layer calls: a re-export of `_kernels_py`.

`append_slot` is the primitive and `lean_reduce` its fold; the package's
``KERNEL_BACKEND`` names the implementation, which is always pure Python.
"""

from . import _kernels_py as _impl  # the defining module, read by perfbench/tracer.py
from ._kernels_py import append_slot, lean_reduce

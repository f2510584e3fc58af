"""Loader of the compiled kernels in ``kernels.c``.

The source is built with the system ``cc`` on the first call of ``load``,
never at import, into the package's ``__pycache__`` under a name keyed by
the source hash, and reused from there. Every kernel has a numpy twin in
the module that calls it, which runs when ``load`` returns None and which
the tests hold the compiled kernel to, bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
from pathlib import Path

_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double

#: (argtypes, restype) of each exported kernel.
_SIGNATURES = {
    "window_dp": ([_I64, _I64, _PTR, _I64, _I64, _PTR, _I64, _I64, _F64, _PTR, _PTR, _PTR],
                  ctypes.c_int),
    "grid_backward": ([_I64, _I64, _PTR, _PTR, _PTR, _PTR], None),
    "grid_forward": ([_I64, _I64, _PTR, _PTR, _PTR, _PTR, _F64, _I64, _PTR], ctypes.c_int),
    "ensemble_block": ([_I64, _I64, _I64, *[_PTR] * 10], None),
}


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled library with every kernel's signature declared; None
    when no C compiler works or the package directory is not writable."""
    src = Path(__file__).with_name("kernels.c")
    try:
        tag = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
        path = src.parent / "__pycache__" / f"kernels-{tag}.so"
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            subprocess.run(["cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC",
                            "-o", str(tmp), str(src)], check=True, capture_output=True)
            os.replace(tmp, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib

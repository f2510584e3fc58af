"""Loader of the compiled kernels in ``kernels.c``.

The source is built with the system ``cc`` on the first call of ``load``,
never at import, into the package's ``__pycache__`` under a name keyed by
the source hash, and reused from there; a build removes the libraries of
older sources. One build runs at a time, under a lock, into a temporary
file of its own, so threads that call ``load`` for the first time at once
share one build. Every kernel has a numpy twin in the module that calls
it, which runs when ``load`` returns None and which the tests hold the
compiled kernel to, bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double

#: (argtypes, restype) of each exported kernel.
_SIGNATURES = {
    "window_dp": ([_I64, _I64, _PTR, _I64, _I64, _PTR, _I64, _I64, _F64, _PTR, _PTR, _PTR],
                  ctypes.c_int),
    "grid_backward": ([_I64, _I64, _PTR, _PTR, _PTR, _PTR], None),
    "grid_forward": ([_I64, _I64, _PTR, _PTR, _PTR, _PTR, _F64, _I64, _PTR], ctypes.c_int),
    "ensemble": ([_I64, _I64, _I64, _I64, *[_PTR] * 9], None),
}

_build_lock = threading.Lock()


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled library with every kernel's signature declared; None
    when no C compiler works or the package directory is not writable."""
    src = Path(__file__).with_name("kernels.c")
    try:
        tag = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
        path = src.parent / "__pycache__" / f"kernels-{tag}.so"
        with _build_lock:
            if not path.exists():
                path.parent.mkdir(exist_ok=True)
                # A name of its own per build, so processes that build at
                # once never write one file; the rename is atomic.
                fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp",
                                           dir=path.parent)
                os.close(fd)
                try:
                    subprocess.run(["cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC",
                                    "-o", tmp, str(src)], check=True, capture_output=True)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                # Libraries of older sources; another build's temporary
                # file ends in .tmp and is left alone.
                for stale in path.parent.glob("kernels-*.so"):
                    if stale != path:
                        stale.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib

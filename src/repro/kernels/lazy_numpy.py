"""numpy, imported on the first fast-path call instead of at module import.

The batched rank engine (:mod:`repro.kernels.modp`) and the M_n / E_n
row decoder (:mod:`repro.partitions.matrices`) each keep a module-level
``_np`` handle. It is ``None`` when numpy is not installed and otherwise
the shared :data:`NUMPY` stand-in, which imports numpy the first time
one of its attributes is read. A command that imports those modules but
never ranks with the batched engine therefore never loads numpy, while
the ``_np is None`` fallback checks, and the tests that patch ``_np`` to
simulate a numpy-less install, work as before.
"""

from importlib.util import find_spec

__all__ = ["NUMPY"]


class _NumpyOnFirstUse:
    """Forwards attribute reads to numpy, importing it on the first one."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        self.__dict__[name] = value  # later reads never reach __getattr__
        return value


#: The shared numpy stand-in, or None when numpy is not installed. Whether
#: it is installed is decided by locating the package, without importing it.
NUMPY = None if find_spec("numpy") is None else _NumpyOnFirstUse()

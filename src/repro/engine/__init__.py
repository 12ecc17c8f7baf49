"""Library-level engine API: requests in, schema-versioned results out.

Build an :class:`EngineRequest`, hand it to :func:`execute`, get an
:class:`EngineResult` whose payload is canonical-JSON-shaped and
byte-identical whether it was computed fresh or served from an attached
:class:`repro.cache.ResultCache`::

    from repro.cache import ResultCache
    from repro.engine import EngineRequest, execute

    cache = ResultCache(".repro-cache")
    result = execute(EngineRequest("exhaustive", {"n": 6}), cache=cache)
    again = execute(EngineRequest("exhaustive", {"n": 6}), cache=cache)
    assert again.cached and again.payload == result.payload

The CLI subcommands and :mod:`repro.replay.engines` are thin adapters
over this module.
"""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "execute": "repro.engine.core",
    "execute_run": "repro.engine.core",
    "run_payload": "repro.engine.core",
    "run_record": "repro.engine.core",
    "sweep_rows_from_payload": "repro.engine.core",
    "ENGINE_KINDS": "repro.engine.request",
    "ENGINE_RESULT_VERSION": "repro.engine.request",
    "EngineOptions": "repro.engine.request",
    "EngineRequest": "repro.engine.request",
    "EngineResult": "repro.engine.request",
    "normalize_params": "repro.engine.request",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)

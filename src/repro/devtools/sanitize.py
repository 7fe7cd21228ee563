"""Runtime determinism sanitizer: prove TWL001 dynamically.

The static pass (:mod:`repro.devtools.lint`) asserts that no
result-producing code *textually* reaches the global ``random`` /
``numpy.random`` state.  This module proves it at runtime: when armed
(``REPRO_SANITIZE=1`` or ``twl-repro … --sanitize``), the module-level
entry points of ``random`` and ``numpy.random`` are monkeypatched with
guards that raise :class:`~repro.errors.DeterminismViolation` whenever
they are called **inside a protected region** — the engine step loop
(:meth:`repro.engine.core.SimulationEngine.drive`) and the cell runner
(:func:`repro.exec.cells.run_cell`).  Outside those regions the guards
pass straight through, so the sanctioned consumers keep working:
``repro.exec``'s retry backoff draws its jitter between cells (and from
a seeded :mod:`repro.rng` stream anyway), pytest plugins shuffle
freely, and user code is untouched.

The env-var activation survives ``ProcessPoolExecutor`` worker spawn:
``run_cell`` calls :func:`maybe_install_from_env` on entry, so
``REPRO_SANITIZE=1 twl-repro fig6 --jobs 4`` sanitizes every worker.

Overhead when disarmed is zero (nothing is patched); when armed it is
one integer bump per engine ``drive()`` call.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from ..errors import DeterminismViolation

#: Environment variable arming the sanitizer (``1`` / ``true`` / ``yes``).
SANITIZE_ENV = "REPRO_SANITIZE"

#: ``random`` module entry points that consult hidden global state.
_RANDOM_FUNCS = (
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "getrandbits",
    "randbytes",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "triangular",
    "vonmisesvariate",
    "weibullvariate",
    "seed",
    "setstate",
    "getstate",
)

#: ``numpy.random`` entry points backed by the legacy global RandomState.
_NUMPY_FUNCS = (
    "rand",
    "randn",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "randint",
    "random_integers",
    "seed",
    "get_state",
    "set_state",
    "shuffle",
    "permutation",
    "choice",
    "bytes",
    "uniform",
    "normal",
    "standard_normal",
    "poisson",
    "binomial",
    "exponential",
)

_originals: Dict[str, Callable[..., Any]] = {}
_installed = False
_state = threading.local()


def _depth() -> int:
    return getattr(_state, "depth", 0)


def _label() -> str:
    return getattr(_state, "label", "protected region")


def in_protected_region() -> bool:
    """Whether the calling thread is inside engine/sim execution."""
    return _depth() > 0


def enter_protected(label: str) -> None:
    """Mark the start of a result-producing region (re-entrant)."""
    _state.depth = _depth() + 1
    _state.label = label


def exit_protected() -> None:
    """Mark the end of the innermost protected region."""
    _state.depth = max(0, _depth() - 1)


@contextmanager
def protected(label: str) -> Iterator[None]:
    """Context-manager form of :func:`enter_protected`."""
    enter_protected(label)
    try:
        yield
    finally:
        exit_protected()


def _guard(
    qualified: str, original: Callable[..., Any]
) -> Callable[..., Any]:
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if in_protected_region():
            raise DeterminismViolation(
                f"{qualified}() called inside {_label()}: global RNG state "
                "is forbidden in result-producing code — derive a generator "
                "from repro.rng.streams instead (TWL001; see "
                "docs/invariants.md)"
            )
        return original(*args, **kwargs)

    guarded.__name__ = getattr(original, "__name__", qualified)
    guarded.__doc__ = getattr(original, "__doc__", None)
    return guarded


def _guard_default_rng(
    original: Callable[..., Any]
) -> Callable[..., Any]:
    def guarded(seed: Any = None, *args: Any, **kwargs: Any) -> Any:
        if seed is None and in_protected_region():
            raise DeterminismViolation(
                f"unseeded numpy.random.default_rng() inside {_label()}: "
                "it pulls OS entropy — derive a generator from "
                "repro.rng.streams instead (TWL001; see docs/invariants.md)"
            )
        return original(seed, *args, **kwargs)

    guarded.__name__ = "default_rng"
    return guarded


def install() -> None:
    """Patch the global-RNG entry points with guards (idempotent)."""
    global _installed
    if _installed:
        return
    for name in _RANDOM_FUNCS:
        original = getattr(random, name, None)
        if original is None:
            continue
        _originals[f"random.{name}"] = original
        setattr(random, name, _guard(f"random.{name}", original))
    for name in _NUMPY_FUNCS:
        original = getattr(np.random, name, None)
        if original is None:
            continue
        _originals[f"numpy.random.{name}"] = original
        setattr(np.random, name, _guard(f"numpy.random.{name}", original))
    _originals["numpy.random.default_rng"] = np.random.default_rng
    setattr(  # noqa: B010 — plain assignment trips type checkers here
        np.random, "default_rng", _guard_default_rng(np.random.default_rng)
    )
    _installed = True


def uninstall() -> None:  # twl: allow(TWL011) reason=oracle: tests disarm the process-wide sanitizer with it after each sanitized run
    """Restore every patched entry point (idempotent)."""
    global _installed
    if not _installed:
        return
    for qualified, original in _originals.items():
        module, _, name = qualified.rpartition(".")
        target = random if module == "random" else np.random
        setattr(target, name, original)
    _originals.clear()
    _installed = False


def env_requests_sanitizer(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``$REPRO_SANITIZE`` asks for the sanitizer."""
    value = (environ if environ is not None else os.environ).get(
        SANITIZE_ENV, ""
    )
    return value.strip().lower() in ("1", "true", "yes")


def maybe_install_from_env() -> bool:
    """Arm the sanitizer when ``$REPRO_SANITIZE`` requests it.

    Called on every :func:`repro.exec.cells.run_cell` entry so pool
    workers (fork *or* spawn) arm themselves from the inherited
    environment.  Returns whether the sanitizer is installed after the
    call.
    """
    if env_requests_sanitizer() and not _installed:
        install()
    return _installed

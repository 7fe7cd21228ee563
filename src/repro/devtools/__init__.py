"""Developer tooling enforcing the reproduction's determinism invariants.

Every guarantee the execution layer makes — bit-identical parallel,
batched and resumed campaigns, content-addressed cache reuse, pure
fault-injection cell selection — rests on invariants that ordinary
tests cannot see: all randomness flows through :mod:`repro.rng`, no
wall-clock reads leak into result-producing paths, and every spec
field is deliberately classified as identity-bearing or execution-only.
This package makes those invariants *enforced* instead of folklore:

* :mod:`repro.devtools.lint` — a two-phase stdlib-``ast`` analyzer:
  per-file determinism rules plus a project-wide index pass
  (:mod:`repro.devtools.project_index`) feeding the cross-module state
  and effect rules in :mod:`repro.devtools.state_rules`.  Named,
  suppressible rules ``TWL001``–``TWL011``; ``twl-repro lint`` and
  ``make lint`` run it, and ``--format json`` emits the stable finding
  schema CI annotates from.
* :mod:`repro.devtools.sanitize` — a runtime determinism sanitizer
  (``REPRO_SANITIZE=1`` / ``--sanitize``) that monkeypatches the
  ``random`` / ``numpy.random`` global-state entry points to raise
  inside engine/sim execution, proving dynamically what ``TWL001``
  claims statically.

The rules themselves are catalogued with their rationale in
``docs/invariants.md``.
"""

from typing import Any

from .sanitize import (
    SANITIZE_ENV,
    install,
    maybe_install_from_env,
    uninstall,
)

__all__ = [
    "RULES",
    "Violation",
    "lint_paths",
    "lint_source",
    "SANITIZE_ENV",
    "install",
    "maybe_install_from_env",
    "uninstall",
]

_LINT_EXPORTS = ("RULES", "Violation", "lint_paths", "lint_source")


def __getattr__(name: str) -> Any:
    # The linter is imported lazily: the engine imports this package on
    # every simulation for the sanitizer hooks, and eager import also
    # trips runpy's double-import warning under
    # ``python -m repro.devtools.lint``.
    if name in _LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

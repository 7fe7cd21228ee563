"""Static analysis enforcing the repo's determinism invariants.

The execution layer's guarantees — parallel/batched/resumed campaigns
bit-identical to serial, content-addressed cache reuse, pure
fault-injection cell selection — all reduce to invariants that no unit
test can watch globally: randomness must flow through
:mod:`repro.rng.streams`, wall-clock reads must stay out of
result-producing code, and every spec field must be deliberately
classified as identity-bearing or execution-only.  A single stray
``np.random.rand()`` in :mod:`repro.sim` would silently corrupt cache
reuse and resume bit-identity with zero test failures.

This module is a two-phase, project-wide analyzer built on the stdlib
``ast`` module (no third-party dependencies).  Phase one runs the
single-file rules below over each module and builds a whole-tree symbol
and effect index (:mod:`repro.devtools.project_index`: classes,
cross-module base resolution, per-method ``self.*`` effect sets); phase
two runs the cross-module state rules
(:mod:`repro.devtools.state_rules`) against that index and audits every
suppression pragma, and finds public callables no program calls.
Violations are reported as named rules:

``TWL001``
    No ``random.*`` calls, no global-state ``numpy.random.*`` calls,
    no unseeded ``np.random.default_rng()`` and no OS entropy
    (``os.urandom`` / ``uuid.uuid4`` / ``secrets``) outside
    :mod:`repro.rng`.  All randomness derives from ``derive_seed`` /
    ``make_generator``.
``TWL002``
    No wall-clock reads (``time.time`` / ``perf_counter`` /
    ``monotonic`` / ``datetime.now`` …) outside :mod:`repro.exec`,
    whose progress lines and timeouts are the one sanctioned consumer.
``TWL003``
    Cache-fingerprint exhaustiveness: every field of
    ``ExperimentCell`` and ``ExperimentSetup`` must appear in either
    the fingerprint-identity set or the documented execution-knob set,
    so adding a field without classifying it is a lint error instead
    of a silent cache-poisoning bug.
``TWL004``
    In fingerprinted / result-serialization modules, iteration over
    ``set`` expressions or ``.keys()/.values()/.items()`` views must be
    wrapped in ``sorted(...)``, and ``json.dump(s)`` must pass
    ``sort_keys=True``.
``TWL005``
    ``__all__`` must list only names that exist and every public
    function/class defined in the module.
``TWL006``
    No per-element Python loops over canonical arrays
    (``for x in arr.tolist(): ...``) inside the engine hot-path
    packages; the batched write protocol exists to avoid exactly that
    scalar cost.  Deliberate scalar tails carry a reasoned pragma.
``TWL007``
    No full-trace materialization (``.materialize()`` /
    ``load_*_trace()``) inside the streaming hot paths
    (:mod:`repro.sim`, :mod:`repro.engine`).  The workload pipeline is
    streaming-first — drivers pull bounded chunks through
    :class:`repro.traces.stream.TraceStream` so multi-billion-request
    campaigns run at constant memory; one materializing call quietly
    re-couples peak RSS to trace length.
``TWL008``
    Snapshot completeness (cross-module): every mutable instance
    attribute of a class implementing the snapshot protocol —
    including attributes assigned only outside ``__init__`` and
    inherited ones — must be captured by the snapshot side and rebuilt
    by the restore side; stateful classes in the audited state
    packages must implement the protocol at all.
``TWL009``
    Batch/scalar effect parity (cross-module): a ``write_batch``
    override must mutate exactly the state surface of its scalar
    ``write`` path, transitively through every helper either one
    calls.
``TWL010``
    No stale suppressions: a ``# twl: allow(...)`` pragma that no
    longer matches any finding on its line is itself a finding, so
    suppressions cannot rot in place.
``TWL011``
    No dead API (cross-module): a public function, class, method or
    property must have a caller in the linted tree or in the
    ``benchmarks/`` and ``examples/`` trees beside its ``src/``; tests
    do not count, and neither does a package ``__all__``.  Dunders,
    ``visit_*`` methods of ``ast.NodeVisitor`` subclasses and
    console-script entry points are exempt.  A definition kept as a
    test oracle carries a reasoned pragma saying so.

A genuine exception is silenced inline with a *reasoned* pragma::

    delay = jitter()  # twl: allow(TWL001) reason=exec backoff jitter

Pragmas without a ``reason=`` do not suppress.  Rationale for each
rule lives in ``docs/invariants.md``; ``twl-repro lint`` and
``make lint`` are the entry points, and ``--format json`` emits the
stable machine-readable finding schema CI turns into annotations.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import sys
import tokenize
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # the index module is imported lazily by the project pass
    from .project_index import ProjectIndex

#: Rule identifiers and their one-line summaries.
RULES: Dict[str, str] = {
    "TWL001": "randomness outside repro.rng (use repro.rng.streams)",
    "TWL002": "wall-clock read outside repro.exec",
    "TWL003": "spec field not classified as identity or execution knob",
    "TWL004": "unordered iteration/serialization in a fingerprinted path",
    "TWL005": "__all__ inconsistent with public module names",
    "TWL006": "per-element Python loop over a canonical array in a hot path",
    "TWL007": "full-trace materialization in a streaming hot path",
    "TWL008": "mutable state not covered by the snapshot/restore protocol",
    "TWL009": "write_batch effect set differs from the scalar write path",
    "TWL010": "stale twl: allow pragma suppressing no finding",
    "TWL011": "public callable with no caller outside tests",
}

#: Rules a single-file pass can decide on its own.  TWL008/TWL009/TWL011
#: need the whole tree and TWL010 needs the full finding set, so
#: :func:`lint_source` audits only pragmas whose rule list stays within
#: this set; the project pass audits the rest.
_SINGLE_FILE_RULES: FrozenSet[str] = frozenset(
    {"TWL000", "TWL001", "TWL002", "TWL003", "TWL004", "TWL005", "TWL006", "TWL007"}
)

#: Modules whose serialization/fingerprint role makes iteration order
#: load-bearing (TWL004 applies only here).
ORDERED_ITERATION_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.exec.hashing",
        "repro.exec.cache",
    }
)

#: Module prefixes exempt from TWL001 (the randomness primitives
#: themselves, and the sanitizer that patches them).
_RNG_EXEMPT_PREFIXES = ("repro.rng", "repro.devtools")

#: Module prefixes allowed to read wall clocks (TWL002): executor
#: progress timing, per-cell timeouts, fault-injection hangs.
_CLOCK_ALLOWED_PREFIXES = ("repro.exec", "repro.devtools")

#: ``numpy.random`` attributes that are *not* global-state entry points
#: (explicitly-seeded constructor machinery).
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: Clock-reading functions of the ``time`` module (``sleep`` is fine:
#: it spends time, it does not observe it).
_TIME_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: Clock-reading constructors of ``datetime.datetime`` / ``datetime.date``.
_DATETIME_CLOCK_FNS = frozenset({"now", "utcnow", "today"})

#: Module prefixes whose inner loops are engine hot paths (TWL006):
#: after the structure-of-arrays refactor the canonical wear/table
#: state lives in numpy arrays, and a per-element Python loop over one
#: (``for x in arr.tolist(): ...``) silently reintroduces the scalar
#: cost the batch protocol exists to avoid.  Intentional scalar tails
#: (exact failure attribution, fault-corrupted-state fallbacks) carry a
#: reasoned ``# twl: allow(TWL006)`` pragma.
_HOT_PATH_PREFIXES = ("repro.pcm", "repro.tables", "repro.wearlevel", "repro.core")

#: Module prefixes that must stay constant-memory with respect to
#: workload length (TWL007): the simulation drivers and the engine pull
#: bounded chunks from :class:`repro.traces.stream.TraceStream`; a
#: materializing call here re-couples peak RSS to trace length.
_STREAMING_HOT_PREFIXES = ("repro.sim", "repro.engine")

#: Method names that materialize a whole trace (TWL007).
_MATERIALIZING_ATTRS = frozenset({"materialize"})

#: Module-level loader functions that materialize a whole trace (TWL007).
_MATERIALIZING_FUNCS = frozenset({"load_trace", "load_text_trace", "load_block_trace"})

_PRAGMA_RE = re.compile(
    r"#\s*twl:\s*allow\(\s*([A-Za-z0-9_\s,]+?)\s*\)(?:\s+reason=(\S[^#]*))?"
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: RULE message`` diagnostic line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One ``# twl: allow(...)`` suppression comment."""

    line: int
    col: int
    rules: FrozenSet[str]
    reason: Optional[str]

    @property
    def has_reason(self) -> bool:
        return self.reason is not None


@dataclass(frozen=True)
class Finding:
    """A violation together with its suppression status."""

    violation: Violation
    suppressed: bool
    #: The matching pragma when one covers this line/rule (present even
    #: for a reasonless pragma, which matches but does not suppress).
    pragma: Optional[Pragma] = None


@dataclass(frozen=True)
class LintReport:
    """Full result of a project lint pass, suppressed findings included."""

    findings: Tuple[Finding, ...]
    files: Tuple[str, ...]

    @property
    def violations(self) -> List[Violation]:
        """Unsuppressed violations — what drives the exit status."""
        return [f.violation for f in self.findings if not f.suppressed]

    def to_json_dict(self) -> Dict[str, object]:
        """The stable ``--format json`` schema (version 1)."""
        return {
            "version": 1,
            "files_checked": len(self.files),
            "findings": [
                {
                    "rule": f.violation.rule,
                    "path": f.violation.path,
                    "line": f.violation.line,
                    "col": f.violation.col,
                    "message": f.violation.message,
                    "suppressed": f.suppressed,
                    "pragma": (
                        None
                        if f.pragma is None
                        else {
                            "rules": sorted(f.pragma.rules),
                            "reason": f.pragma.reason,
                        }
                    ),
                }
                for f in self.findings
            ],
        }


def module_name_for(path: str) -> str:
    """Dotted module name inferred from ``path`` via ``__init__.py`` files.

    Walks parent directories while they are packages, so
    ``…/src/repro/exec/hashing.py`` resolves to ``repro.exec.hashing``
    and a bare fixture file resolves to its stem (no exemptions apply).
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    return ".".join(reversed(parts))


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``, or None for other shapes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _ImportMap:
    """Names bound by imports, bucketed by what they alias."""

    def __init__(self) -> None:
        self.random_modules: Set[str] = set()
        self.random_funcs: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        self.numpy_random_funcs: Dict[str, str] = {}
        self.time_modules: Set[str] = set()
        self.time_funcs: Dict[str, str] = {}
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.os_modules: Set[str] = set()
        self.uuid_modules: Set[str] = set()
        self.uuid_funcs: Set[str] = set()
        self.secrets_names: Set[str] = set()

    def collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._add_import(alias.name, alias.asname)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    self._add_from(node.module or "", alias.name, alias.asname)

    def _add_import(self, name: str, asname: Optional[str]) -> None:
        bound = asname or name.split(".")[0]
        if name == "random":
            self.random_modules.add(bound)
        elif name == "numpy":
            self.numpy_modules.add(bound)
        elif name == "numpy.random":
            if asname:
                self.numpy_random_modules.add(bound)
            else:
                self.numpy_modules.add(bound)
        elif name == "time":
            self.time_modules.add(bound)
        elif name == "datetime":
            self.datetime_modules.add(bound)
        elif name == "os":
            self.os_modules.add(bound)
        elif name == "uuid":
            self.uuid_modules.add(bound)
        elif name == "secrets":
            self.secrets_names.add(bound)

    def _add_from(self, module: str, name: str, asname: Optional[str]) -> None:
        bound = asname or name
        if module == "random":
            self.random_funcs.add(bound)
        elif module == "numpy" and name == "random":
            self.numpy_random_modules.add(bound)
        elif module == "numpy.random":
            self.numpy_random_funcs[bound] = name
        elif module == "time":
            self.time_funcs[bound] = name
        elif module == "datetime" and name in ("datetime", "date"):
            self.datetime_classes.add(bound)
        elif module == "uuid":
            self.uuid_funcs.add(bound)
        elif module == "secrets":
            self.secrets_names.add(bound)


def _is_unseeded_default_rng(node: ast.Call) -> bool:
    """Whether a ``default_rng`` call supplies no deterministic seed."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for keyword in node.keywords:
        if keyword.arg == "seed":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is None
    return True


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """A short description when ``node`` is an unordered iterable."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set expression"
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[-1] in ("keys", "values", "items") and len(chain) > 1:
            return f"a .{chain[-1]}() view"
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"a {node.func.id}() call"
    return None


class _FileLinter(ast.NodeVisitor):
    """Single-file AST pass applying TWL001/TWL002/TWL004/TWL005."""

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.imports = _ImportMap()
        self.violations: List[Violation] = []
        self._check_rng = not module.startswith(_RNG_EXEMPT_PREFIXES)
        self._check_clock = not module.startswith(_CLOCK_ALLOWED_PREFIXES)
        self._check_order = module in ORDERED_ITERATION_MODULES
        self._check_hot = module.startswith(_HOT_PATH_PREFIXES)
        self._check_streaming = module.startswith(_STREAMING_HOT_PREFIXES)

    def run(self, tree: ast.Module) -> List[Violation]:
        self.imports.collect(tree)
        self.visit(tree)
        self._check_dunder_all(tree)
        return self.violations

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- TWL001 / TWL002 ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            if self._check_rng:
                self._check_randomness(node, chain)
            if self._check_clock:
                self._check_clock_read(node, chain)
            if self._check_order:
                self._check_json_sorted(node, chain)
            if self._check_streaming:
                self._check_materialization(node, chain)
        if self._check_order:
            for builtin in ("list", "tuple", "iter", "enumerate", "reversed"):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == builtin
                    and node.args
                ):
                    kind = _is_unordered_iterable(node.args[0])
                    if kind:
                        self._flag(
                            node,
                            "TWL004",
                            f"{builtin}() over {kind} in a fingerprinted path; "
                            "wrap it in sorted(...)",
                        )
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call, chain: List[str]) -> None:
        imports = self.imports
        root = chain[0]
        if root in imports.random_modules and len(chain) >= 2:
            self._flag(
                node,
                "TWL001",
                f"call to {'.'.join(chain)}(): the stdlib random module is "
                "global state; derive a generator from repro.rng.streams",
            )
            return
        if root in imports.random_funcs and len(chain) == 1:
            self._flag(
                node,
                "TWL001",
                f"call to {root}() imported from the stdlib random module; "
                "derive a generator from repro.rng.streams",
            )
            return
        np_fn: Optional[str] = None
        if root in imports.numpy_modules and len(chain) >= 3 and chain[1] == "random":
            np_fn = chain[2]
        elif root in imports.numpy_random_modules and len(chain) >= 2:
            np_fn = chain[1]
        elif root in imports.numpy_random_funcs and len(chain) == 1:
            np_fn = imports.numpy_random_funcs[root]
        if np_fn is not None:
            if np_fn == "default_rng":
                if _is_unseeded_default_rng(node):
                    self._flag(
                        node,
                        "TWL001",
                        "unseeded np.random.default_rng() pulls OS entropy; "
                        "use repro.rng.streams.make_generator(seed, ...)",
                    )
            elif np_fn not in _NP_RANDOM_ALLOWED:
                self._flag(
                    node,
                    "TWL001",
                    f"call to np.random.{np_fn}(): numpy global RNG state; "
                    "derive a generator from repro.rng.streams",
                )
            return
        if root in imports.os_modules and len(chain) == 2 and chain[1] == "urandom":
            self._flag(node, "TWL001", "os.urandom() is OS entropy; use repro.rng")
        elif root in imports.secrets_names:
            self._flag(node, "TWL001", "secrets.* is OS entropy; use repro.rng")
        elif (
            root in imports.uuid_modules
            and len(chain) == 2
            and chain[1] in ("uuid1", "uuid4")
        ) or (root in imports.uuid_funcs and len(chain) == 1):
            self._flag(
                node, "TWL001", "random UUIDs are OS entropy; use repro.rng"
            )

    def _check_clock_read(self, node: ast.Call, chain: List[str]) -> None:
        imports = self.imports
        root = chain[0]
        flagged: Optional[str] = None
        if root in imports.time_modules and len(chain) == 2:
            if chain[1] in _TIME_CLOCK_FNS:
                flagged = f"time.{chain[1]}()"
        elif root in imports.time_funcs and len(chain) == 1:
            if imports.time_funcs[root] in _TIME_CLOCK_FNS:
                flagged = f"time.{imports.time_funcs[root]}()"
        elif (
            root in imports.datetime_modules
            and len(chain) == 3
            and chain[1] in ("datetime", "date")
            and chain[2] in _DATETIME_CLOCK_FNS
        ):
            flagged = f"datetime.{chain[1]}.{chain[2]}()"
        elif (
            root in imports.datetime_classes
            and len(chain) == 2
            and chain[1] in _DATETIME_CLOCK_FNS
        ):
            flagged = f"{root}.{chain[1]}()"
        if flagged:
            self._flag(
                node,
                "TWL002",
                f"wall-clock read {flagged} outside repro.exec; clock values "
                "must never reach result-producing code",
            )

    # -- TWL007 ---------------------------------------------------------
    def _check_materialization(self, node: ast.Call, chain: List[str]) -> None:
        tail = chain[-1]
        if len(chain) > 1 and tail in _MATERIALIZING_ATTRS:
            self._flag(
                node,
                "TWL007",
                f".{tail}() materializes a whole trace inside a streaming "
                "hot path; pull chunks through TraceStream/StreamDriver, or "
                "mark an intentional materialized adapter with a reasoned "
                "pragma",
            )
        elif tail in _MATERIALIZING_FUNCS:
            self._flag(
                node,
                "TWL007",
                f"{tail}() loads a whole trace into memory inside a "
                "streaming hot path; open it with open_trace_stream, or "
                "mark an intentional materialized adapter with a reasoned "
                "pragma",
            )

    # -- TWL004 ---------------------------------------------------------
    def _check_json_sorted(self, node: ast.Call, chain: List[str]) -> None:
        if len(chain) == 2 and chain[0] == "json" and chain[1] in ("dump", "dumps"):
            for keyword in node.keywords:
                if keyword.arg == "sort_keys":
                    value = keyword.value
                    if isinstance(value, ast.Constant) and value.value is True:
                        return
            self._flag(
                node,
                "TWL004",
                f"json.{chain[1]}() without sort_keys=True in a fingerprinted "
                "path; key order must not depend on construction order",
            )

    def _flag_unordered_iter(self, iterable: ast.AST) -> None:
        kind = _is_unordered_iterable(iterable)
        if kind:
            self._flag(
                iterable,
                "TWL004",
                f"iteration over {kind} in a fingerprinted path; "
                "wrap it in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        if self._check_order:
            self._flag_unordered_iter(node.iter)
        if self._check_hot:
            self._flag_scalar_loop(node.iter)
        self.generic_visit(node)

    # -- TWL006 ---------------------------------------------------------
    def _flag_scalar_loop(self, iterable: ast.AST) -> None:
        """Flag hot-path iteration that walks an array element-wise."""
        for sub in ast.walk(iterable):
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if chain and len(chain) > 1 and chain[-1] == "tolist":
                self._flag(
                    sub,
                    "TWL006",
                    "per-element loop over an array (.tolist()) in an engine "
                    "hot path; vectorize it, or mark an intentional scalar "
                    "tail with a reasoned pragma",
                )
                return

    def _visit_comprehension(self, node: ast.AST) -> None:
        if self._check_order:
            for comp in getattr(node, "generators", []):
                self._flag_unordered_iter(comp.iter)
        if self._check_hot:
            for comp in getattr(node, "generators", []):
                self._flag_scalar_loop(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- TWL005 ---------------------------------------------------------
    def _check_dunder_all(self, tree: ast.Module) -> None:
        dunder_all: Optional[ast.Assign] = None
        for statement in tree.body:
            if isinstance(statement, ast.Assign) and _is_dunder_all(statement):
                dunder_all = statement
        if dunder_all is None:
            return
        value = dunder_all.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            return  # dynamically built; out of scope for static checking
        names: List[str] = []
        for element in value.elts:
            if not isinstance(element, ast.Constant) or not isinstance(
                element.value, str
            ):
                return
            names.append(element.value)
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                self._flag(
                    dunder_all, "TWL005", f"duplicate name {name!r} in __all__"
                )
            seen.add(name)
        bound, has_star = _toplevel_bindings(tree)
        # A module-level __getattr__ (PEP 562) can provide any name
        # lazily, so existence cannot be checked statically.
        if not has_star and "__getattr__" not in bound:
            for name in names:
                if name not in bound:
                    self._flag(
                        dunder_all,
                        "TWL005",
                        f"__all__ lists {name!r} but the module does not "
                        "define or import it",
                    )
        for statement in tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not statement.name.startswith("_"):
                if statement.name not in seen:
                    self._flag(
                        statement,
                        "TWL005",
                        f"public {type(statement).__name__.replace('Def', '').lower()}"
                        f" {statement.name!r} missing from __all__",
                    )


def _toplevel_bindings(tree: ast.Module) -> Tuple[Set[str], bool]:
    """Names bound at module top level (descending into if/try blocks)."""
    bound: Set[str] = set()
    has_star = False

    def collect_target(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    def walk(statements: Iterable[ast.stmt]) -> None:
        nonlocal has_star
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    collect_target(target)
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                collect_target(statement.target)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(statement, ast.If):
                walk(statement.body)
                walk(statement.orelse)
            elif isinstance(statement, ast.Try):
                walk(statement.body)
                walk(statement.orelse)
                walk(statement.finalbody)
                for handler in statement.handlers:
                    walk(handler.body)
            elif isinstance(statement, (ast.For, ast.While, ast.With)):
                if isinstance(statement, ast.For):
                    collect_target(statement.target)
                walk(statement.body)

    walk(tree.body)
    return bound, has_star


def _suppressed(violation: Violation, pragmas: Dict[int, Pragma]) -> bool:
    pragma = pragmas.get(violation.line)
    if pragma is None:
        return False
    return violation.rule in pragma.rules and pragma.has_reason


def _collect_pragmas(source: str) -> Dict[int, Pragma]:
    """Suppression pragmas by line, from real comment tokens only.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma
    *examples* inside docstrings and string literals — like the one in
    this module's own docstring — from registering as live
    suppressions, which matters now that TWL010 audits every pragma.
    Matching is anchored at the comment start for the same reason: a
    doc comment *mentioning* a pragma is not one.
    """
    pragmas: Dict[int, Pragma] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.match(token.string)
            if not match:
                continue
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            reason = match.group(2)
            reason = reason.strip() if reason and reason.strip() else None
            pragmas[token.start[0]] = Pragma(
                line=token.start[0],
                col=token.start[1],
                rules=rules,
                reason=reason,
            )
    except tokenize.TokenError:
        pass
    return pragmas


def _stale_pragma_violations(
    path: str,
    pragmas: Dict[int, Pragma],
    violations: Sequence[Violation],
    restrict: Optional[FrozenSet[str]] = None,
) -> List[Violation]:
    """TWL010 for pragmas matching no violation on their line.

    A pragma is *used* when any of its listed rules has a finding on
    the pragma's line (even a reasonless pragma — the finding is then
    reported unsuppressed, which is diagnosis enough).  ``restrict``
    limits the audit to pragmas whose rule list stays within the given
    set (the single-file pass cannot judge project-level rules).
    """
    rules_by_line: Dict[int, Set[str]] = {}
    for violation in violations:
        rules_by_line.setdefault(violation.line, set()).add(violation.rule)
    stale: List[Violation] = []
    for line in sorted(pragmas):
        pragma = pragmas[line]
        if restrict is not None and not pragma.rules <= restrict:
            continue
        if pragma.rules & rules_by_line.get(line, set()):
            continue
        listed = ", ".join(sorted(pragma.rules))
        stale.append(
            Violation(
                path=path,
                line=line,
                col=pragma.col,
                rule="TWL010",
                message=(
                    f"pragma allow({listed}) suppresses no finding on this "
                    "line; delete the stale pragma"
                ),
            )
        )
    return stale


def lint_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> List[Violation]:
    """Lint one module's source text; returns unsuppressed violations.

    ``module`` overrides the dotted-name inference from ``path`` (used
    by the rule exemptions and the TWL004 module scoping).  This is the
    *single-file* pass: the cross-module rules TWL008/TWL009/TWL011 need
    the whole tree (:func:`lint_paths` / :func:`run_lint_report`), so
    pragmas naming them are exempt from the TWL010 staleness audit here.
    """
    if module is None:
        module = module_name_for(path) if path != "<string>" else ""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                rule="TWL000",
                message=f"syntax error: {error.msg}",
            )
        ]
    violations = _FileLinter(path, module).run(tree)
    pragmas = _collect_pragmas(source)
    violations = violations + _stale_pragma_violations(
        path, pragmas, violations, restrict=_SINGLE_FILE_RULES
    )
    kept = [v for v in violations if not _suppressed(v, pragmas)]
    return sorted(kept, key=lambda v: (v.line, v.col, v.rule))


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` (files kept as-is), sorted."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for directory, _dirnames, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(directory, name))
        else:
            found.append(path)
    return sorted(found)


# ----------------------------------------------------------------------
# TWL011 — public callables with no caller outside tests
# ----------------------------------------------------------------------
#: Directories beside a ``src/`` layout whose code counts as callers
#: without being linted.  ``tests/`` is deliberately not one of them.
_REFERENCE_DIRS = ("benchmarks", "examples")

#: A function, method or class definition.
_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``name = "module:function"`` lines of ``[project.scripts]``.
_SCRIPT_RE = re.compile(r'^\s*[\w.-]+\s*=\s*"([\w.]+):(\w+)"', re.MULTILINE)


def _layout_root(paths: Sequence[str]) -> Optional[str]:
    """The directory holding the ``src/`` that a linted path sits in."""
    for path in paths:
        current = os.path.abspath(path)
        while os.path.dirname(current) != current:
            if os.path.basename(current) == "src":
                return os.path.dirname(current)
            current = os.path.dirname(current)
    return None


def _is_dunder_all(statement: ast.stmt) -> bool:
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _name_uses(node: ast.AST) -> Dict[str, int]:
    """Load names, attribute names and string constants under ``node``."""
    uses: Dict[str, int] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        uses[name] = uses.get(name, 0) + 1
    return uses


def _unused_defs(body: Sequence[ast.stmt], uses: Dict[str, int]) -> List[_Def]:
    """First public def or class of each name in ``body`` used only inside its defs.

    A property's getter and setter share a name, so every def of that
    name in ``body`` counts as the definition itself; a class that names
    only itself (in its own methods) is unused too.
    """
    defs = [s for s in body if isinstance(s, _DEF_NODES)]
    first: Dict[str, _Def] = {}
    for node in defs:
        first.setdefault(node.name, node)
    return [
        node
        for name, node in first.items()
        if not name.startswith("_")
        and uses.get(name, 0) <= sum(_name_uses(d).get(name, 0) for d in defs if d.name == name)
    ]


def _dead_api_violations(
    sources: Sequence[Tuple[str, str, ast.Module]],
    index: ProjectIndex,
    paths: Sequence[str],
) -> List[Violation]:
    """TWL011: public functions, classes, methods and properties nobody uses.

    A use is a load of the name, an attribute of that name, or a string
    constant equal to it (``getattr(obj, "name")``), anywhere in the
    linted tree or the reference trees except the definition itself,
    imports and ``__all__`` lists; an annotation is a load, so a class
    named in a used signature is used.  Listing a name in a package
    ``__all__`` does not keep it: only a caller does.  Dunders,
    ``visit_*`` methods of ``ast.NodeVisitor`` subclasses and
    console-script entry points are exempt.
    """
    trees = [tree for _path, _module, tree in sources]
    exempt: Set[str] = set()
    root = _layout_root(paths)
    if root is not None:
        references = [os.path.join(root, name) for name in _REFERENCE_DIRS]
        for path in iter_python_files([d for d in references if os.path.isdir(d)]):
            try:
                with open(path, encoding="utf-8") as handle:
                    trees.append(ast.parse(handle.read(), filename=path))
            except (SyntaxError, UnicodeDecodeError):
                continue
        pyproject = os.path.join(root, "pyproject.toml")
        if os.path.isfile(pyproject):
            with open(pyproject, encoding="utf-8") as handle:
                scripts = handle.read().partition("[project.scripts]")[2]
            exempt.update(
                f"{module}.{function}"
                for module, function in _SCRIPT_RE.findall(scripts.partition("\n[")[0])
            )
    uses: Dict[str, int] = {}
    for tree in trees:
        for statement in tree.body:
            if not _is_dunder_all(statement):
                for name, count in _name_uses(statement).items():
                    uses[name] = uses.get(name, 0) + count

    violations: List[Violation] = []

    def flag(path: str, node: _Def, label: str, member: bool) -> None:
        if isinstance(node, ast.ClassDef):
            kind = "class"
        elif not member:
            kind = "function"
        elif ["property"] in [_attr_chain(d) for d in node.decorator_list]:
            kind = "property"
        else:
            kind = "method"
        message = (
            f"public {kind} {label!r} has no caller outside tests; delete it "
            "with its tests, or keep it with a reasoned pragma naming its "
            "caller or oracle role"
        )
        violations.append(Violation(path, node.lineno, node.col_offset, "TWL011", message))

    for path, module, tree in sources:
        for node in _unused_defs(tree.body, uses):
            if f"{module}.{node.name}" not in exempt:
                flag(path, node, node.name, member=False)
        for statement in tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            visitor = any(
                chain[-1] == "NodeVisitor"
                for base in index.mro(f"{module}.{statement.name}" if module else statement.name)
                for chain in base.base_chains
            )
            for node in _unused_defs(statement.body, uses):
                if not (visitor and node.name.startswith("visit_")):
                    flag(path, node, f"{statement.name}.{node.name}", member=True)
    return violations


def _project_findings(paths: Sequence[str]) -> Tuple[List[str], List[Finding]]:
    """Two-phase project pass: per-file rules, index, TWL008-TWL011.

    Each file is parsed once; the shared trees feed both the single-file
    rule pass and the project index the cross-module rules consume.
    Suppression is resolved centrally at the end so TWL010 can see the
    complete pre-suppression finding set.
    """
    from .project_index import IndexSource, build_index
    from .state_rules import check_state_rules

    files = iter_python_files(paths)
    raw: List[Violation] = []
    pragma_maps: Dict[str, Dict[int, Pragma]] = {}
    sources: List[IndexSource] = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        module = module_name_for(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raw.append(
                Violation(
                    path=path,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    rule="TWL000",
                    message=f"syntax error: {error.msg}",
                )
            )
            continue
        raw.extend(_FileLinter(path, module).run(tree))
        pragma_maps[path] = _collect_pragmas(source)
        sources.append((path, module, tree))
    index = build_index(sources)
    raw.extend(check_state_rules(index))
    raw.extend(_dead_api_violations(sources, index, paths))
    violations_by_path: Dict[str, List[Violation]] = {}
    for violation in raw:
        violations_by_path.setdefault(violation.path, []).append(violation)
    for path in sorted(pragma_maps):
        raw.extend(
            _stale_pragma_violations(
                path, pragma_maps[path], violations_by_path.get(path, [])
            )
        )
    findings: List[Finding] = []
    for violation in sorted(raw, key=lambda v: (v.path, v.line, v.col, v.rule)):
        pragma = pragma_maps.get(violation.path, {}).get(violation.line)
        matched = pragma is not None and violation.rule in pragma.rules
        findings.append(
            Finding(
                violation=violation,
                suppressed=matched and pragma is not None and pragma.has_reason,
                pragma=pragma if matched else None,
            )
        )
    return files, findings


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Project-lint every Python file under ``paths``.

    Runs the full two-phase analyzer — single-file rules, the
    whole-tree index, the cross-module rules TWL008/TWL009/TWL011, and
    the TWL010 pragma audit — and returns the unsuppressed violations.
    """
    _, findings = _project_findings(paths)
    return [f.violation for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# TWL003 — fingerprint field classification exhaustiveness
# ----------------------------------------------------------------------
def check_field_classification(
    cls: type,
    identity: FrozenSet[str],
    execution: FrozenSet[str],
    path: str,
) -> List[Violation]:
    """Violations for ``cls`` fields not split into identity/execution.

    Every dataclass field must appear in exactly one of the two sets,
    and neither set may name a field that no longer exists — so adding,
    renaming or removing a spec field forces a deliberate decision
    about cache identity (see ``docs/invariants.md``).
    """
    import dataclasses

    violations: List[Violation] = []
    line = 1

    def flag(message: str) -> None:
        violations.append(
            Violation(path=path, line=line, col=0, rule="TWL003", message=message)
        )

    actual = {field.name for field in dataclasses.fields(cls)}
    for name in sorted(actual - identity - execution):
        flag(
            f"{cls.__name__}.{name} is classified neither as fingerprint "
            "identity nor as an execution knob; add it to exactly one set"
        )
    for name in sorted((identity | execution) - actual):
        flag(
            f"classification names {cls.__name__}.{name} which is not a "
            "field of the dataclass; remove the stale entry"
        )
    for name in sorted(identity & execution):
        flag(
            f"{cls.__name__}.{name} is classified as both identity and "
            "execution knob; pick one"
        )
    return violations


def check_classifications() -> List[Violation]:
    """TWL003 over the package's fingerprinted spec dataclasses."""
    from ..exec import cells as cells_module
    from ..exec import hashing as hashing_module
    from ..experiments import setups as setups_module
    from ..serve import server as serve_module

    return (
        check_field_classification(
            cells_module.ExperimentCell,
            hashing_module.CELL_IDENTITY_FIELDS,
            hashing_module.CELL_EXECUTION_FIELDS,
            hashing_module.__file__,
        )
        + check_field_classification(
            setups_module.ExperimentSetup,
            setups_module.SETUP_IDENTITY_FIELDS,
            setups_module.SETUP_EXECUTION_FIELDS,
            setups_module.__file__,
        )
        + check_field_classification(
            serve_module.ServerConfig,
            serve_module.SERVER_IDENTITY_FIELDS,
            serve_module.SERVER_EXECUTION_FIELDS,
            serve_module.__file__,
        )
        + check_field_classification(
            serve_module.SubmitRequest,
            serve_module.REQUEST_IDENTITY_FIELDS,
            serve_module.REQUEST_EXECUTION_FIELDS,
            serve_module.__file__,
        )
    )


def default_lint_root() -> str:
    """The installed ``repro`` package directory (the default target)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint_report(
    paths: Optional[Sequence[str]] = None, classify: bool = True
) -> LintReport:
    """Full lint pass with suppression detail: AST + state rules + TWL003."""
    files, findings = _project_findings(
        list(paths) if paths else [default_lint_root()]
    )
    if classify:
        findings.extend(
            Finding(violation=v, suppressed=False) for v in check_classifications()
        )
    return LintReport(findings=tuple(findings), files=tuple(files))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.devtools.lint [paths…]``."""
    parser = argparse.ArgumentParser(
        prog="twl-repro lint",
        description=(
            "Static determinism/purity/state checks for the TWL "
            "reproduction (rules TWL001-TWL011; see docs/invariants.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--no-classify",
        action="store_true",
        help="skip the TWL003 field-classification check",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help=(
            "output format: 'text' prints path:line:col diagnostics, "
            "'json' emits the stable finding schema (suppressed findings "
            "and their pragmas included) for CI annotation tooling"
        ),
    )
    args = parser.parse_args(argv)
    report = run_lint_report(args.paths or None, classify=not args.no_classify)
    violations = report.violations
    if args.output_format == "json":
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        for violation in sorted(
            violations, key=lambda v: (v.path, v.line, v.col, v.rule)
        ):
            print(violation.format())
    files = len(report.files)
    if violations:
        print(
            f"twl-repro lint: {len(violations)} violation(s) in {files} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"twl-repro lint: {files} file(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

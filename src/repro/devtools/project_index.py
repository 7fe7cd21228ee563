"""Project-wide symbol and effect index (the lint analyzer's phase one).

The single-file rules (TWL001-TWL007) can be decided by looking at one
module at a time.  The state rules (TWL008/TWL009, see
:mod:`repro.devtools.state_rules`) cannot: whether a scheme's
``self._cursor`` is snapshotted depends on methods *inherited across
modules*, and whether a ``write_batch`` override mutates the same state
surface as its scalar ``write`` depends on the transitive closure of
every helper either path calls.  This module builds the shared index
those rules consume (the dead-API rule TWL011 uses only its class
resolution, to find ``ast.NodeVisitor`` subclasses; TWL010 audits the
pragmas of all of them):

* one :class:`ModuleInfo` per file — its import map (absolute and
  relative imports resolved to dotted names) and top-level classes;
* one :class:`ClassInfo` per class — raw base-class expressions
  (resolved lazily against the whole index), ``__slots__``, dataclass
  detection, class-level fields, and which ``__init__`` attributes are
  *borrowed* (bound straight from a constructor parameter) or *owned*
  (bound to a constructor call of another indexed class);
* one :class:`MethodInfo` per method — the ``self.*`` effect sets: reads,
  attribute rebinds, in-place mutations (subscript stores, mutating
  container methods, augmented assignment through local aliases like
  ``counters = self._frame_writes; counters[f] += 1``), method calls on
  attributes, and calls to other ``self`` methods for transitive
  expansion.

Everything is stdlib-``ast``; nothing is imported or executed.  The
index is deliberately a *project* view: method resolution
(:meth:`ProjectIndex.mro`) walks only classes defined in the indexed
tree, so external bases (``abc.ABC``, numpy types) simply contribute
nothing.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

#: Method names that capture state for mid-run persistence.  A class
#: "implements the snapshot protocol" iff its project MRO defines at
#: least one name from each family (``WearLeveler`` pairs ``snapshot``
#: with the ``_snapshot_state`` hook; the engine uses ``snapshot_state``).
SNAPSHOT_METHOD_NAMES = frozenset({"snapshot", "snapshot_state", "_snapshot_state"})

#: Method names that restore state captured by a snapshot-family method.
RESTORE_METHOD_NAMES = frozenset({"restore", "restore_state", "_restore_state"})

#: Method names whose attribute writes are construction, not runtime
#: drift, and whose bodies are therefore excluded when inferring the
#: *mutable* attribute set of a class.
INIT_METHOD_NAMES = frozenset({"__init__", "__post_init__"})

#: Container/instance methods that mutate their receiver in place.  A
#: call ``self.x.append(...)`` (or through an alias of ``self.x``) is
#: evidence that ``x`` is mutable state; a plain method call is not —
#: schemes call ``self.array.write(...)`` on state they merely borrow.
MUTATING_CONTAINER_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)


@dataclass
class MethodInfo:
    """Per-method ``self.*`` effect sets, first-occurrence line numbers."""

    name: str
    lineno: int
    decorators: Tuple[str, ...] = ()
    is_property: bool = False
    is_static: bool = False
    #: Attribute rebinds: ``self.x = ...`` / ``self.x += ...`` / ``del self.x``.
    writes: Dict[str, int] = field(default_factory=dict)
    #: In-place mutations attributed to an attribute: subscript stores,
    #: mutating container methods, writes through local aliases.
    mutations: Dict[str, int] = field(default_factory=dict)
    #: Attributes read (``self.x`` in load context, root of chains).
    reads: Set[str] = field(default_factory=set)
    #: Attributes that had a (non-mutating) method invoked on them.
    attr_calls: Dict[str, int] = field(default_factory=dict)
    #: ``self.f(...)`` call targets — method names for transitive
    #: expansion; names that resolve to no method are bound callables
    #: stored in instance attributes.
    self_calls: Set[str] = field(default_factory=set)

    def effect_attrs(self) -> Set[str]:
        """Attributes this method writes, mutates, or calls methods on."""
        return set(self.writes) | set(self.mutations) | set(self.attr_calls)

    def touched_attrs(self) -> Set[str]:
        """Every attribute this method references in any way."""
        return self.effect_attrs() | self.reads


@dataclass
class ClassInfo:
    """One class definition and its effect-indexed methods."""

    name: str
    module: str
    lineno: int
    #: Raw base expressions as name chains (``("base", "WearLeveler")``);
    #: resolved against the index by :meth:`ProjectIndex.resolve_name`.
    base_chains: Tuple[Tuple[str, ...], ...] = ()
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    slots: Optional[Tuple[str, ...]] = None
    is_dataclass: bool = False
    #: Class-level assigned names (dataclass fields, class attributes).
    class_fields: Set[str] = field(default_factory=set)
    #: ``__init__``/``__post_init__`` attribute assignments (+ dataclass
    #: fields, whose generated ``__init__`` assigns them).
    init_attrs: Dict[str, int] = field(default_factory=dict)
    #: Init attributes bound straight from a constructor parameter —
    #: state the instance borrows rather than owns.
    borrowed_attrs: Set[str] = field(default_factory=set)
    #: Init attributes bound to a constructor call, as raw name chains
    #: (``self.remap = RemappingTable(n)`` -> ``("RemappingTable",)``).
    ctor_chains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name

    def property_names(self) -> Set[str]:
        return {m.name for m in self.methods.values() if m.is_property}


@dataclass
class ModuleInfo:
    """One indexed source file."""

    name: str
    path: str
    is_package: bool
    #: Local name -> dotted target for imports (modules and symbols).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Class names defined at module top level.
    class_names: Set[str] = field(default_factory=set)


def _name_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or None for other shapes."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _MethodScanner(ast.NodeVisitor):
    """Extracts one method's ``self.*`` effect sets.

    Tracks intra-method aliases so effects through locals attribute to
    the right instance state: ``frames = self._frame_writes`` followed
    by ``frames[f] += 1`` (or ``frames += bincount(...)``,
    ``frames.append(x)``) is a mutation of ``_frame_writes``; a
    two-level alias like ``rng = self.toss_up.rng; rng.next_word()``
    roots at ``toss_up``.
    """

    def __init__(self, info: MethodInfo, self_name: Optional[str]) -> None:
        self.info = info
        self.self_name = self_name
        self._aliases: Dict[str, str] = {}

    # -- expression rooting ---------------------------------------------
    def _root_of(self, node: ast.AST) -> Optional[str]:
        """The ``self`` attribute an expression is a view of, if any."""
        if self.self_name is None:
            return None
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id == self.self_name:
                return node.attr
            return self._root_of(value)
        if isinstance(node, ast.Subscript):
            return self._root_of(node.value)
        return None

    # -- assignment forms ------------------------------------------------
    def _handle_store(self, target: ast.AST, value_root: Optional[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element, None)
            return
        if isinstance(target, ast.Starred):
            self._handle_store(target.value, None)
            return
        lineno = getattr(target, "lineno", 1)
        if isinstance(target, ast.Attribute):
            value = target.value
            if isinstance(value, ast.Name) and value.id == self.self_name:
                self.info.writes.setdefault(target.attr, lineno)
                return
            root = self._root_of(value)
            if root is not None:
                self.info.mutations.setdefault(root, lineno)
            return
        if isinstance(target, ast.Subscript):
            root = self._root_of(target.value)
            if root is not None:
                self.info.mutations.setdefault(root, lineno)
            return
        if isinstance(target, ast.Name):
            if value_root is not None:
                self._aliases[target.id] = value_root
            else:
                self._aliases.pop(target.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        value_root = self._root_of(node.value)
        for target in node.targets:
            self._handle_store(target, value_root)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        value_root = self._root_of(node.value) if node.value else None
        self._handle_store(node.target, value_root)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self.self_name
        ):
            self.info.writes.setdefault(target.attr, target.lineno)
        else:
            root = self._root_of(target)
            if root is not None:
                # In-place operator through an alias or a subscript:
                # ``counters[f] += 1`` / ``frames += bincount(...)``.
                self.info.mutations.setdefault(root, target.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._handle_store(target, None)
        self.generic_visit(node)

    # -- reads and calls -------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            self.info.reads.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == self.self_name:
                self.info.self_calls.add(func.attr)
            else:
                root = self._root_of(value)
                if root is not None:
                    if func.attr in MUTATING_CONTAINER_METHODS:
                        self.info.mutations.setdefault(root, func.lineno)
                    else:
                        self.info.attr_calls.setdefault(root, func.lineno)
        elif isinstance(func, ast.Name) and func.id in self._aliases:
            # A bare call through an alias of ``self.f`` — either a
            # method alias (``write = self.write``) or a bound callable
            # stored in an attribute; resolution decides which.
            self.info.self_calls.add(self._aliases[func.id])
        self.generic_visit(node)


def _decorator_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain = _name_chain(target)
        if chain:
            names.append(".".join(chain))
    return tuple(names)


def _scan_method(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> MethodInfo:
    decorators = _decorator_names(node)
    is_static = any(d.split(".")[-1] == "staticmethod" for d in decorators)
    is_class = any(d.split(".")[-1] == "classmethod" for d in decorators)
    is_property = any(
        d.split(".")[-1] == "property" or d.endswith(".setter") or d.endswith(".getter")
        for d in decorators
    )
    info = MethodInfo(
        name=node.name,
        lineno=node.lineno,
        decorators=decorators,
        is_property=is_property,
        is_static=is_static,
    )
    self_name: Optional[str] = None
    if not is_static and not is_class:
        params = list(node.args.posonlyargs) + list(node.args.args)
        if params:
            self_name = params[0].arg
    scanner = _MethodScanner(info, self_name)
    for statement in node.body:
        scanner.visit(statement)
    return info


def _scan_class(node: ast.ClassDef, module: str) -> ClassInfo:
    decorators = _decorator_names(node)
    info = ClassInfo(
        name=node.name,
        module=module,
        lineno=node.lineno,
        base_chains=tuple(
            chain for chain in (_name_chain(base) for base in node.bases) if chain
        ),
        is_dataclass=any(d.split(".")[-1] == "dataclass" for d in decorators),
    )
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _scan_method(statement)
            # Property getter and setter share a name; merge effects so
            # neither is lost (first definition keeps the line number).
            existing = info.methods.get(statement.name)
            if existing is not None and (existing.is_property or method.is_property):
                existing.writes.update(method.writes)
                existing.mutations.update(method.mutations)
                existing.reads.update(method.reads)
                existing.attr_calls.update(method.attr_calls)
                existing.self_calls.update(method.self_calls)
                existing.is_property = True
            else:
                info.methods[statement.name] = method
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    info.class_fields.add(target.id)
                    if target.id == "__slots__":
                        info.slots = _constant_str_tuple(statement.value)
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                info.class_fields.add(statement.target.id)
                if statement.target.id == "__slots__" and statement.value is not None:
                    info.slots = _constant_str_tuple(statement.value)
    _collect_init_facts(node, info)
    return info


def _constant_str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values: List[str] = []
    for element in node.elts:
        if not isinstance(element, ast.Constant) or not isinstance(element.value, str):
            return None
        values.append(element.value)
    return tuple(values)


def _collect_init_facts(node: ast.ClassDef, info: ClassInfo) -> None:
    """Init-assigned attributes, borrowed params, owned constructor calls."""
    if info.is_dataclass:
        # Dataclass fields are assigned by the generated __init__.
        for name in info.class_fields:
            if name != "__slots__" and not name.startswith("__"):
                info.init_attrs.setdefault(name, info.lineno)
    for statement in node.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name not in INIT_METHOD_NAMES:
            continue
        method = info.methods.get(statement.name)
        if method is not None:
            for attr, lineno in method.writes.items():
                info.init_attrs.setdefault(attr, lineno)
        params = {
            a.arg
            for a in list(statement.args.posonlyargs)
            + list(statement.args.args)
            + list(statement.args.kwonlyargs)
        }
        for sub in ast.walk(statement):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
            ):
                continue
            attr = target.attr
            value = sub.value
            if isinstance(value, ast.Name) and value.id in params:
                info.borrowed_attrs.add(attr)
            elif isinstance(value, ast.Call):
                chain = _name_chain(value.func)
                if chain:
                    info.ctor_chains.setdefault(attr, chain)


def _collect_imports(tree: ast.Module, module: ModuleInfo) -> None:
    anchor = module.name.split(".") if module.name else []
    if not module.is_package and anchor:
        anchor = anchor[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = anchor[: len(anchor) - (node.level - 1)]
                if node.module:
                    parts = parts + node.module.split(".")
                base = ".".join(parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = f"{base}.{alias.name}" if base else alias.name


#: One indexable source unit: ``(path, module_name, source_or_tree)``.
IndexSource = Tuple[str, str, Union[str, ast.Module]]


class ProjectIndex:
    """Whole-tree class/method/effect symbol table."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Qualified "module.Class" -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        self._mro_cache: Dict[str, Tuple[ClassInfo, ...]] = {}

    # -- construction ----------------------------------------------------
    def add_module(
        self, path: str, name: str, tree: ast.Module, is_package: bool = False
    ) -> None:
        module = ModuleInfo(name=name, path=path, is_package=is_package)
        _collect_imports(tree, module)
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef):
                info = _scan_class(statement, name)
                module.class_names.add(info.name)
                self.classes[info.qualname] = info
        self.modules[name] = module
        self._mro_cache.clear()

    # -- name resolution -------------------------------------------------
    def resolve_name(
        self, module_name: str, chain: Tuple[str, ...]
    ) -> Optional[str]:
        """Resolve a name chain in a module to a qualified class name."""
        if not chain:
            return None
        module = self.modules.get(module_name)
        if module is not None:
            if len(chain) == 1 and chain[0] in module.class_names:
                return f"{module_name}.{chain[0]}"
            if chain[0] in module.imports:
                qualified = ".".join((module.imports[chain[0]],) + chain[1:])
                if qualified in self.classes:
                    return qualified
                return self._resolve_by_suffix(qualified.split(".")[-1])
        dotted = ".".join(chain)
        if dotted in self.classes:
            return dotted
        return self._resolve_by_suffix(chain[-1])

    def _resolve_by_suffix(self, class_name: str) -> Optional[str]:
        """Unique-class-name fallback for re-exported imports."""
        matches = [
            qualname
            for qualname, info in self.classes.items()
            if info.name == class_name
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolved_bases(self, info: ClassInfo) -> List[str]:
        out: List[str] = []
        for chain in info.base_chains:
            resolved = self.resolve_name(info.module, chain)
            if resolved is not None:
                out.append(resolved)
        return out

    # -- method resolution order -----------------------------------------
    def mro(self, qualname: str) -> Tuple[ClassInfo, ...]:
        """Project-class linearization: DFS, left to right, first wins."""
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        order: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                return
            order.append(info)
            for base in self.resolved_bases(info):
                visit(base)

        visit(qualname)
        result = tuple(order)
        self._mro_cache[qualname] = result
        return result

    def mro_properties(self, qualname: str) -> Set[str]:
        names: Set[str] = set()
        for info in self.mro(qualname):
            names |= info.property_names()
        return names

    def path_of(self, info: ClassInfo) -> str:
        module = self.modules.get(info.module)
        return module.path if module is not None else "<unknown>"


def build_index(sources: Iterable[IndexSource]) -> ProjectIndex:
    """Build an index from ``(path, module, source_or_tree)`` units.

    Accepts either raw source text or pre-parsed ``ast.Module`` trees
    (the project lint pass parses each file once and shares the trees).
    Units that fail to parse are skipped — the lint pass reports the
    syntax error separately as TWL000.
    """
    index = ProjectIndex()
    for path, module_name, source in sources:
        if isinstance(source, str):
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
        else:
            tree = source
        is_package = os.path.basename(path) == "__init__.py"
        index.add_module(path, module_name, tree, is_package=is_package)
    return index


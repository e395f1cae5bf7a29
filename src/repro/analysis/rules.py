"""Project-contract lint rules for the serving stack.

Each rule machine-checks one invariant the runtime's correctness
arguments lean on (see ROADMAP "Calibration-registry contract"):

- ``fit-once`` — discriminator training happens only in the calibration
  layers; serving code must go through the registry.
- ``frozen-spec`` — frozen spec dataclasses are immutable outside their
  own ``__post_init__``.
- ``json-finite`` — ``to_dict``/``summary`` payloads route NaN-capable
  floats through the :func:`repro._util.json_finite` helper so strict
  JSON never sees a ``NaN``/``Infinity`` literal.
- ``no-pickle-fitted`` — fitted models cross process boundaries only as
  registry artifacts (``save_artifacts``/``load_artifacts``), never via
  pickle.
- ``broad-except`` — bare and blanket exception handlers are accepted
  only with an explicit pragma (or when they re-raise).
- ``all-consistency`` — module ``__all__`` lists match the names the
  module actually binds.
- ``guarded-by`` — attributes a lock-owning class mutates under
  ``with self.<lock>`` are never mutated outside it (a data race).
- ``blocking-under-lock`` — executor ``.map``/``.result``, ``flock``,
  socket ``recv``, and ``sleep`` never sit lexically inside a lock body.
- ``no-hidden-copy`` — the hot-path modules (``repro.dsp``,
  ``repro.pipeline.{stages,buffers,shm}``) perform no allocating array
  ops (``np.concatenate``, fancy indexing, ``.copy()``/``.astype``)
  without a pragma.

False positives are suppressed at the site with
``# repro: allow(<rule>) <reason>`` (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath

from repro.analysis.checker import Checker, register_rule

__all__ = [
    "FitOnceChecker",
    "FrozenSpecChecker",
    "JsonFiniteChecker",
    "NoPickleFittedChecker",
    "BroadExceptChecker",
    "AllConsistencyChecker",
    "GuardedByChecker",
    "BlockingUnderLockChecker",
    "NoHiddenCopyChecker",
]


def _module_path(path: str) -> str:
    """The path in posix form, for suffix/segment matching."""
    return PurePosixPath(path).as_posix()


class _FunctionStackChecker(Checker):
    """Checker tracking the enclosing (possibly nested) function names."""

    def __init__(self, path, source, tree):
        super().__init__(path, source, tree)
        self._function_stack: list[str] = []

    def _visit_function(self, node):
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


#: Directories/modules where discriminator training is the *job*:
#: the discriminator implementations, the classical-ML primitives they
#: build on, the offline experiment calibrations, and the two pipeline
#: modules that are the sanctioned prefit/recalibration paths.
_FIT_ALLOWED_SEGMENTS = ("repro/ml/", "repro/discriminators/", "repro/experiments/")
_FIT_ALLOWED_SUFFIXES = ("repro/pipeline/registry.py", "repro/pipeline/runner.py")


@register_rule
class FitOnceChecker(_FunctionStackChecker):
    """Training calls are confined to the calibration layers.

    Serving code (``serve/``, ``pipeline/cluster.py``, the CLI, ...)
    must obtain fitted models through
    ``CalibrationRegistry.get_or_fit`` / ``fit_or_load_discriminator``
    so the fit-once contract stays enforceable in one place. A ``.fit``
    method call or a ``get_trained`` call anywhere else is a finding.
    """

    rule = "fit-once"
    description = (
        "no Discriminator.fit()/get_trained outside the calibration layers"
    )

    def _allowed_here(self) -> bool:
        path = _module_path(self.path)
        return any(seg in path for seg in _FIT_ALLOWED_SEGMENTS) or any(
            path.endswith(suffix) for suffix in _FIT_ALLOWED_SUFFIXES
        )

    def visit_Call(self, node: ast.Call) -> None:
        if not self._allowed_here():
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "fit":
                self.report(
                    node,
                    "direct .fit() call outside the calibration layers; "
                    "serve fitted models through CalibrationRegistry."
                    "get_or_fit / fit_or_load_discriminator",
                )
            elif isinstance(func, ast.Name) and func.id == "get_trained":
                self.report(
                    node,
                    "get_trained() outside the calibration layers; warm "
                    "serving paths must load registry artifacts instead "
                    "of retraining",
                )
        self.generic_visit(node)


#: Spec-looking receiver names: ``spec.shots = 3``, ``serve_spec.x = y``.
_SPEC_NAME = re.compile(r"^(spec|[a-z0-9_]*_spec)$")


@register_rule
class FrozenSpecChecker(_FunctionStackChecker):
    """No mutation of frozen spec dataclasses outside ``__post_init__``.

    ``object.__setattr__`` is the one sanctioned way to initialize a
    frozen dataclass field, and only from ``__post_init__``; anywhere
    else it is an end-run around immutability. Plain attribute
    assignment onto a spec-named receiver (``spec.shots = n``) is the
    same bug without the ceremony — new values must go through
    ``dataclasses.replace``.
    """

    rule = "frozen-spec"
    description = (
        "no object.__setattr__ outside __post_init__, no spec field "
        "assignment"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and "__post_init__" not in self._function_stack
        ):
            self.report(
                node,
                "object.__setattr__ outside __post_init__ defeats frozen-"
                "dataclass immutability; build a new instance with "
                "dataclasses.replace instead",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and _SPEC_NAME.match(target.value.id)
        ):
            self.report(
                target,
                f"assignment to {target.value.id}.{target.attr} mutates a "
                "spec; specs are frozen — derive a new one with "
                "dataclasses.replace",
            )


#: Attribute/call names whose values are NaN- or inf-capable floats.
_NAN_CAPABLE = re.compile(
    r"(?:^|_)(?:p50|p95|p99|percentile|nan|inf|margin)(?:_|$)|per_shot",
    re.IGNORECASE,
)

#: Call names accepted as the NaN/inf-safe JSON routing helper.
_SAFE_WRAPPERS = {"json_finite", "_json_finite"}


@register_rule
class JsonFiniteChecker(_FunctionStackChecker):
    """``to_dict``/``summary`` payloads wrap NaN-capable floats.

    Percentiles, per-shot latencies, and margins are NaN by design on
    empty runs; ``json.dumps`` happily renders them as the non-strict
    ``NaN`` literal that downstream strict parsers reject. Any dict
    value inside a ``to_dict``/``summary`` function that references a
    NaN-capable name must route through
    :func:`repro._util.json_finite` (or a ``_json_finite`` shim).
    """

    rule = "json-finite"
    description = (
        "to_dict/summary dict values route NaN-capable floats through "
        "json_finite"
    )

    _PAYLOAD_FUNCTIONS = ("to_dict", "summary")

    def visit_Dict(self, node: ast.Dict) -> None:
        if any(
            name in self._function_stack for name in self._PAYLOAD_FUNCTIONS
        ):
            for value in node.values:
                culprit = self._unwrapped_nan_source(value)
                if culprit is not None:
                    self.report(
                        value,
                        f"dict value references NaN-capable {culprit!r} "
                        "without routing through json_finite — strict "
                        "JSON cannot carry NaN/Infinity",
                    )
        self.generic_visit(node)

    def _unwrapped_nan_source(self, node: ast.expr) -> str | None:
        """The first NaN-capable reference not inside a safe wrapper."""
        if isinstance(node, ast.Call):
            func = node.func
            func_name = (
                func.attr if isinstance(func, ast.Attribute) else
                func.id if isinstance(func, ast.Name) else ""
            )
            if func_name in _SAFE_WRAPPERS:
                return None  # wrapped: everything inside is routed
            if func_name == "float" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if arg.value.lstrip("+-").lower() in ("nan", "inf", "infinity"):
                        return f"float({arg.value!r})"
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is not None and _NAN_CAPABLE.search(name):
            return name
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                culprit = self._unwrapped_nan_source(child)
                if culprit is not None:
                    return culprit
        return None


@register_rule
class NoPickleFittedChecker(Checker):
    """Fitted models never travel by pickle.

    The process-shard design rebuilds discriminators from calibration
    artifacts (``save_artifacts``/``load_artifacts``); pickling fitted
    state couples workers to in-memory object layout and silently
    bypasses the registry's versioning. Any ``pickle`` import or
    ``pickle.*`` call is a finding.
    """

    rule = "no-pickle-fitted"
    description = (
        "no pickle use; fitted state crosses processes as registry "
        "artifacts"
    )

    _MESSAGE = (
        "pickle is banned in the serving stack: fitted discriminators "
        "cross process boundaries only via save_artifacts/load_artifacts"
    )

    def visit_Import(self, node: ast.Import) -> None:
        if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
            self.report(node, self._MESSAGE)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.module.split(".")[0] == "pickle":
            self.report(node, self._MESSAGE)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "pickle"
        ):
            self.report(node, self._MESSAGE)
        self.generic_visit(node)


@register_rule
class BroadExceptChecker(Checker):
    """Blanket exception handlers need an explicit pragma.

    Bare ``except:``, ``except Exception``, and ``except BaseException``
    swallow programming errors with the failures they meant to contain.
    A handler whose body re-raises (a bare ``raise`` statement) is the
    sanctioned cleanup-then-propagate idiom and passes; everything else
    must carry ``# repro: allow(broad-except) <reason>`` on the
    ``except`` line.
    """

    rule = "broad-except"
    description = "bare/except Exception handlers require a pragma"

    _BROAD = ("Exception", "BaseException")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._is_broad(node.type) and not self._reraises(node):
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
            )
            self.report(
                node,
                f"{caught} without re-raise; narrow the exception or "
                "pragma the site with the reason it must stay broad",
            )
        self.generic_visit(node)

    def _is_broad(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return True
        names = (
            annotation.elts
            if isinstance(annotation, ast.Tuple)
            else [annotation]
        )
        return any(
            isinstance(name, ast.Name) and name.id in self._BROAD
            for name in names
        )

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        for stmt in ast.walk(handler):
            if isinstance(stmt, ast.Raise) and stmt.exc is None:
                return True
        return False


@register_rule
class AllConsistencyChecker(Checker):
    """``__all__`` matches the names the module actually binds.

    Two drifts are findings: an ``__all__`` entry naming nothing the
    module binds at top level (dead export — an importer gets
    ``AttributeError`` from ``import *``), and a public top-level class
    or function missing from an ``__all__`` the module declares (a
    silent non-export). Modules without ``__all__`` are not checked.
    """

    rule = "all-consistency"
    description = "__all__ entries exist; public defs are exported"

    def finish(self) -> None:
        exported = self._declared_all()
        if exported is None:
            return
        all_node, names = exported
        bound = self._bound_names()
        for name in names:
            if name not in bound:
                self.report(
                    all_node,
                    f"__all__ exports {name!r} but the module never binds "
                    "it at top level",
                )
        for node in self.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_") and node.name not in names:
                    self.report(
                        node,
                        f"public {type(node).__name__.replace('Def', '').lower()} "
                        f"{node.name!r} is missing from __all__",
                    )

    def _declared_all(self) -> "tuple[ast.AST, list[str]] | None":
        for node in self.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
                    return node, names
        return None

    def _bound_names(self) -> set[str]:
        """Names bound at module top level (one level into If/Try)."""
        bound: set[str] = set()

        def scan(body) -> None:
            for node in body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(node.name)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                bound.add(name.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name):
                        bound.add(node.target.id)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        bound.add(
                            alias.asname or alias.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        bound.add(alias.asname or alias.name)
                elif isinstance(node, ast.If):
                    scan(node.body)
                    scan(node.orelse)
                elif isinstance(node, ast.Try):
                    scan(node.body)
                    scan(node.orelse)
                    scan(node.finalbody)
                    for handler in node.handlers:
                        scan(handler.body)

        scan(self.tree.body)
        return bound


#: Call names that construct locks: the project's ``trace_lock`` factory
#: plus the stdlib constructors it wraps.
_LOCK_FACTORY_NAMES = frozenset({"trace_lock", "Lock", "RLock"})

#: Receiver names that read as locks when used as ``with`` contexts
#: (``self._lock``, ``gate``, ``_FIT_LOCKS_GUARD``, ``_fit_lock(...)``).
_LOCKISH_NAME = re.compile(
    r"(?:^|_)(?:lock|gate|guard|mutex)s?$", re.IGNORECASE
)


def _creates_lock(value: ast.expr) -> bool:
    """Whether an assigned value constructs a lock (possibly nested in
    an ``IfExp``, e.g. ``x if debug else trace_lock(...)``)."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else ""
            )
            if name in _LOCK_FACTORY_NAMES:
                return True
    return False


def _lockish_context(expr: ast.expr) -> bool:
    """Whether a ``with`` item's context expression reads as a lock."""
    if isinstance(expr, ast.Call):
        return _lockish_context(expr.func)
    if isinstance(expr, ast.Attribute):
        return bool(_LOCKISH_NAME.search(expr.attr))
    if isinstance(expr, ast.Name):
        return bool(_LOCKISH_NAME.search(expr.id))
    return False


@register_rule
class GuardedByChecker(Checker):
    """Attributes guarded by a class's lock are never mutated bare.

    For every class that constructs a lock into a ``self`` attribute
    (``self._lock = trace_lock(...)`` / ``threading.Lock()``), collect
    each instance attribute the class mutates both *inside* a lexical
    ``with self.<lock>:`` body and *outside* one (``__init__`` and the
    other constructors are exempt — publication happens-before any
    reader). An attribute written on both sides is a data race: the
    unguarded writes are the findings. The matching is lexical —
    aliasing the lock into a local first hides it from this rule — so
    holding the idiom ``with self._lock:`` keeps the contract checkable.
    """

    rule = "guarded-by"
    description = (
        "attributes mutated under a class's own lock are never mutated "
        "outside it"
    )

    _CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_class(node)
        self.generic_visit(node)

    def _check_class(self, cls: ast.ClassDef) -> None:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = {
            target.attr
            for method in methods
            for stmt in ast.walk(method)
            if isinstance(stmt, ast.Assign) and _creates_lock(stmt.value)
            for target in stmt.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        }
        if not lock_attrs:
            return
        guarded: dict[str, list[ast.Attribute]] = {}
        unguarded: dict[str, list[ast.Attribute]] = {}
        for method in methods:
            if method.name in self._CONSTRUCTORS:
                continue
            self._scan(method.body, lock_attrs, guarded, unguarded, False)
        for attr in sorted(set(guarded) & set(unguarded)):
            for site in unguarded[attr]:
                self.report(
                    site,
                    f"self.{attr} is mutated under {cls.name}'s lock "
                    f"elsewhere but written here without it — a data "
                    "race; hold the lock here too (or pragma with the "
                    "happens-before argument)",
                )

    def _scan(
        self,
        body: list[ast.stmt],
        lock_attrs: set[str],
        guarded: dict[str, list[ast.Attribute]],
        unguarded: dict[str, list[ast.Attribute]],
        under_lock: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                locked = under_lock or any(
                    self._is_self_lock(item.context_expr, lock_attrs)
                    for item in stmt.items
                )
                self._scan(stmt.body, lock_attrs, guarded, unguarded, locked)
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # closures run later, outside this lexical region
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                for leaf in self._self_attribute_targets(target):
                    if leaf.attr in lock_attrs:
                        continue
                    sink = guarded if under_lock else unguarded
                    sink.setdefault(leaf.attr, []).append(leaf)
            for field in ("body", "orelse", "finalbody"):
                block = getattr(stmt, field, None)
                if block:
                    self._scan(
                        block, lock_attrs, guarded, unguarded, under_lock
                    )
            for handler in getattr(stmt, "handlers", ()):
                self._scan(
                    handler.body, lock_attrs, guarded, unguarded, under_lock
                )
            for case in getattr(stmt, "cases", ()):
                self._scan(
                    case.body, lock_attrs, guarded, unguarded, under_lock
                )

    def _self_attribute_targets(self, target: ast.expr):
        if isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._self_attribute_targets(elt)
        elif isinstance(target, ast.Starred):
            yield from self._self_attribute_targets(target.value)

    @staticmethod
    def _is_self_lock(expr: ast.expr, lock_attrs: set[str]) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in lock_attrs
        )


#: Method calls that block on I/O, another task, or the clock.
_BLOCKING_METHOD_NAMES = frozenset(
    {"map", "result", "flock", "recv", "recv_into", "sleep"}
)

#: Bare-name calls that block (``from time import sleep``, ``from fcntl
#: import flock``).
_BLOCKING_BARE_NAMES = frozenset({"sleep", "flock"})


@register_rule
class BlockingUnderLockChecker(Checker):
    """No slow/blocking calls lexically inside a lock body.

    A critical section that dispatches to an executor (``.map`` /
    ``.result``), takes a file lock (``flock``), reads a socket
    (``recv``/``recv_into``), or sleeps holds every other thread out for
    the duration — and, when the blocked operation itself needs a lock,
    is one inversion away from deadlock. The detector is lexical: a
    ``with`` statement whose context reads as a lock (``self._lock``,
    ``gate``, ``_fit_lock(...)``) opens a region; the named blocking
    calls inside it are findings. Closures defined (not called) under
    the lock are exempt.
    """

    rule = "blocking-under-lock"
    description = (
        "no executor .map/.result, flock, socket recv, or sleep inside "
        "a lock body"
    )

    def __init__(self, path, source, tree):
        super().__init__(path, source, tree)
        self._lock_depth = 0

    def _visit_with(self, node):
        lockish = any(
            _lockish_context(item.context_expr) for item in node.items
        )
        if lockish:
            self._lock_depth += 1
        self.generic_visit(node)
        if lockish:
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _visit_function(self, node):
        saved, self._lock_depth = self._lock_depth, 0
        self.generic_visit(node)
        self._lock_depth = saved

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self._lock_depth and self._is_blocking(node.func):
            self.report(
                node,
                f"blocking call {ast.unparse(node.func)}() lexically "
                "inside a lock body; move the slow operation outside "
                "the critical section",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_blocking(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr in _BLOCKING_METHOD_NAMES
        if isinstance(func, ast.Name):
            return func.id in _BLOCKING_BARE_NAMES
        return False


#: Hot-path modules: every per-batch array allocation here is paid on
#: the serving fast path.
_HOT_PATH_SEGMENTS = ("repro/dsp/",)
_HOT_PATH_SUFFIXES = (
    "repro/pipeline/stages.py",
    "repro/pipeline/buffers.py",
    "repro/pipeline/shm.py",
)

#: Concatenation-family constructors that always allocate.
_COPYING_CONSTRUCTORS = frozenset({"concatenate", "vstack", "hstack"})


@register_rule
class NoHiddenCopyChecker(Checker):
    """No allocating array ops in the zero-copy hot-path modules.

    PR 8's speedup argument is that the warm serving loop performs no
    per-batch allocation: batches assemble into ``BufferRing`` slots and
    scores standardize in place. ``np.concatenate``/``vstack``/
    ``hstack``, ``.copy()``, ``.astype(...)``, and fancy indexing with a
    list literal all silently allocate and copy, so in ``repro.dsp`` and
    ``repro.pipeline.{stages,buffers,shm}`` each such call is a finding.
    Intentional cold-path sites (load-time kernel prep) carry a pragma
    naming why the copy is off the hot path.
    """

    rule = "no-hidden-copy"
    description = (
        "no np.concatenate/.copy()/.astype/fancy-index allocation in "
        "hot-path modules"
    )

    def __init__(self, path, source, tree):
        super().__init__(path, source, tree)
        module = _module_path(path)
        self._hot = any(seg in module for seg in _HOT_PATH_SEGMENTS) or any(
            module.endswith(suffix) for suffix in _HOT_PATH_SUFFIXES
        )

    def visit_Call(self, node: ast.Call) -> None:
        if self._hot:
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else ""
            )
            if name in _COPYING_CONSTRUCTORS:
                self.report(
                    node,
                    f"{ast.unparse(func)}() allocates and copies every "
                    "batch; assemble into a BufferRing slot, or pragma a "
                    "cold-path site",
                )
            elif (
                name == "copy"
                and isinstance(func, ast.Attribute)
                and not node.args
                and not node.keywords
            ):
                self.report(
                    node,
                    f"{ast.unparse(func)}() duplicates the array; hot-"
                    "path stages reuse preallocated buffers — pragma if "
                    "this site is cold",
                )
            elif name == "astype" and isinstance(func, ast.Attribute):
                self.report(
                    node,
                    f"{ast.unparse(func)}(...) allocates a converted "
                    "copy; convert once at load time, or pragma a cold "
                    "site",
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._hot and self._is_fancy_index(node.slice):
            self.report(
                node,
                "fancy indexing materializes a copy (unlike basic "
                "slicing); gather once off the hot path, or pragma",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_fancy_index(index: ast.expr) -> bool:
        if isinstance(index, ast.List):
            return True
        return isinstance(index, ast.Tuple) and any(
            isinstance(elt, ast.List) for elt in index.elts
        )

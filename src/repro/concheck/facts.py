"""Concurrency fact extraction over the :class:`ModuleIndex`.

One syntactic walk per function distils everything the four concheck
passes reason about:

* **accesses** — reads/writes of *subjects*: instance attributes of
  indexed classes (``repro.obs.tracer.Tracer._spans``) and module-level
  globals (``repro.obs.tracer._CURRENT``), each tagged with the set of
  locks held at that program point;
* **lock activity** — which locks a function acquires (``with
  self._lock:``) and the nesting edges between them;
* **call edges** — resolved callee qualnames (annotation- and
  constructor-typed), with the held-lock set at the call site so
  lock-order analysis can follow acquisitions through calls;
* **spawn points** — ``threading.Thread(target=...)`` sites, HTTP
  handler classes passed to a ``ThreadingHTTPServer``-style
  constructor, and ``ProcessPoolExecutor`` boundaries with the types
  captured across them.

Everything is best-effort and purely syntactic: an access the walk
cannot type is simply not a fact (the runtime sanitizer exists exactly
to catch what static resolution misses).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.concheck.modindex import (
    ClassInfo,
    FunctionInfo,
    ModuleIndex,
    _strip_wrappers,
)

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
    "appendleft", "popleft", "subtract",
})

#: ``threading`` constructors by the kind of primitive they build.
_SYNC_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "Event": "event",
    "local": "thread-local",
}

#: Sync kinds usable as ``with`` targets (lock-discipline candidates).
_ACQUIRABLE = frozenset({"lock", "rlock", "condition", "semaphore"})

#: Mutable-container constructors for the global census.
_MUTABLE_CTORS = {
    "list": "list", "dict": "dict", "set": "set",
    "Counter": "counter", "defaultdict": "dict", "OrderedDict": "dict",
    "deque": "deque", "bytearray": "bytearray", "count": "iterator",
}

#: Docstring annotation declaring a locking precondition: a function
#: whose docstring contains ``concheck: caller-holds Foo._lock`` is
#: analyzed as if that lock were held on entry (the moral equivalent of
#: Clang's ``GUARDED_BY`` for helpers that must only be called with a
#: lock already taken).
_CALLER_HOLDS = re.compile(r"concheck:\s*caller-holds\s+([\w.]+)")

#: Methods excluded from shared-state reasoning: they run before the
#: object is published (or during unpickling in a fresh process).
INIT_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__setstate__",
})


@dataclass(frozen=True)
class Access:
    """One read or write of a shared-state subject."""

    subject: str
    kind: str  # "read" | "write"
    locks: FrozenSet[str]
    fn: str
    where: str


@dataclass(frozen=True)
class ThreadSite:
    """One ``Thread(target=...)`` construction."""

    target: Optional[str]  # resolved function qualname
    text: str              # the target expression as written
    kind: str              # "resolved" | "opaque" | "local" | "unresolved"
    where: str


@dataclass
class PoolSite:
    """One ``ProcessPoolExecutor`` boundary."""

    where: str
    initializer: Optional[str] = None
    #: Class qualnames pickled across the boundary (initargs + the
    #: parameter types of mapped/submitted functions).
    captured: List[str] = field(default_factory=list)
    #: Mapped functions whose captures could not be typed.
    untyped: List[str] = field(default_factory=list)


@dataclass
class FunctionFacts:
    """Everything one function contributes to the analysis."""

    fn: FunctionInfo
    accesses: List[Access] = field(default_factory=list)
    #: (lock subject, where) for each direct acquisition.
    acquired: List[Tuple[str, str]] = field(default_factory=list)
    #: (outer lock, inner lock, where) for directly nested ``with``s.
    nest_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (callee qualname, locks held at the call, where).
    calls: List[Tuple[str, FrozenSet[str], str]] = field(
        default_factory=list
    )
    thread_sites: List[ThreadSite] = field(default_factory=list)
    handler_classes: List[str] = field(default_factory=list)
    pool_sites: List[PoolSite] = field(default_factory=list)


@dataclass(frozen=True)
class LockDef:
    """One lock discovered in the codebase."""

    subject: str
    kind: str  # "lock" | "rlock" | "condition" | "semaphore"
    where: str

    @property
    def reentrant(self) -> bool:
        return self.kind == "rlock"


@dataclass
class GlobalDef:
    """One module-level binding relevant to the census."""

    subject: str
    module: str
    name: str
    kind: str       # "list", "dict", "instance:<qual>", "rebound", ...
    where: str
    #: Where functions mutate/rebind it (empty = never touched).
    mutations: List[str] = field(default_factory=list)


class CodeFacts:
    """All extracted facts, plus the index they came from."""

    def __init__(self, index: ModuleIndex):
        self.index = index
        self.functions: Dict[str, FunctionFacts] = {}
        self.locks: Dict[str, LockDef] = {}
        #: Subjects that *are* synchronisation primitives (locks,
        #: events, thread-locals) — never shared-state findings.
        self.sync_subjects: Set[str] = set()
        self.globals: Dict[str, GlobalDef] = {}

    def all_accesses(self) -> List[Access]:
        return [
            access
            for facts in self.functions.values()
            for access in facts.accesses
        ]


# ---------------------------------------------------------------------------
# Phase A: lock / sync-primitive / mutable-global discovery
# ---------------------------------------------------------------------------


def _sync_kind(value: ast.expr) -> Optional[str]:
    """Kind of sync primitive ``value`` constructs, if any."""
    if isinstance(value, ast.IfExp):
        return _sync_kind(value.body) or _sync_kind(value.orelse)
    if isinstance(value, ast.BoolOp):
        for operand in value.values:
            kind = _sync_kind(operand)
            if kind:
                return kind
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute) and isinstance(
        func.value, ast.Name
    ) and func.value.id == "threading":
        name = func.attr
    if name == "make_lock":
        for kw in value.keywords:
            if kw.arg == "reentrant" and isinstance(
                kw.value, ast.Constant
            ) and kw.value.value:
                return "rlock"
        return "lock"
    return _SYNC_CTORS.get(name or "")


def _mutable_kind(value: ast.expr, index: ModuleIndex,
                  module: str) -> Optional[str]:
    """Census classification of a module-level value expression."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    sync = _sync_kind(value)
    if sync:
        return sync
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _MUTABLE_CTORS:
            return _MUTABLE_CTORS[name]
        if isinstance(func, ast.Name):
            resolved = index.resolve_name(module, func.id)
            if isinstance(resolved, ClassInfo):
                return "instance:%s" % resolved.qualname
    if isinstance(value, ast.Name):
        # One indirection: ``_CURRENT = NULL_TRACER`` inherits the
        # mutability of what the other global holds.
        mod = index.modules.get(module)
        if mod is not None and value.id in mod.global_assigns:
            inner = mod.global_assigns[value.id]
            if not isinstance(inner, ast.Name):  # no cycles
                return _mutable_kind(inner, index, module)
    return None


def _discover_definitions(facts: CodeFacts) -> None:
    index = facts.index
    for cls in index.classes.values():
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    kind = _sync_kind(node.value)
                    if kind is None:
                        continue
                    subject = "%s.%s" % (cls.qualname, target.attr)
                    facts.sync_subjects.add(subject)
                    if kind in _ACQUIRABLE:
                        facts.locks.setdefault(subject, LockDef(
                            subject=subject,
                            kind=kind,
                            where="%s:%d" % (cls.module, node.lineno),
                        ))
    for mod in index.modules.values():
        for name, value in mod.global_assigns.items():
            subject = "%s.%s" % (mod.name, name)
            kind = _sync_kind(value)
            if kind is not None:
                facts.sync_subjects.add(subject)
                if kind in _ACQUIRABLE:
                    facts.locks.setdefault(subject, LockDef(
                        subject=subject,
                        kind=kind,
                        where="%s:%d" % (mod.name, value.lineno),
                    ))
                continue
            mutable = _mutable_kind(value, index, mod.name)
            if mutable is not None:
                facts.globals[subject] = GlobalDef(
                    subject=subject,
                    module=mod.name,
                    name=name,
                    kind=mutable,
                    where="%s:%d" % (mod.name, value.lineno),
                )


# ---------------------------------------------------------------------------
# Phase B: per-function walk
# ---------------------------------------------------------------------------


class _FunctionWalker:
    """Extracts one function's facts with held-lock context."""

    def __init__(self, facts: CodeFacts, fn: FunctionInfo):
        self.facts = facts
        self.index = facts.index
        self.fn = fn
        self.module = fn.module
        self.cls = fn.cls
        self.out = FunctionFacts(fn=fn)
        self.local_names: Set[str] = set()
        self.global_decls: Set[str] = set()
        self.local_types: Dict[str, ClassInfo] = {}
        self.local_funcs: Set[str] = set()
        self.executors: Set[str] = set()

    # -- setup ---------------------------------------------------------------

    def run(self) -> FunctionFacts:
        self._prescan()
        held = self._declared_held()
        for stmt in self.fn.node.body:
            self._stmt(stmt, held)
        return self.out

    def _declared_held(self) -> Tuple[str, ...]:
        """Locks a ``concheck: caller-holds`` docstring annotation
        declares held on entry."""
        docstring = ast.get_docstring(self.fn.node) or ""
        held = []
        for name in _CALLER_HOLDS.findall(docstring):
            for subject in self.facts.locks:
                if subject == name or subject.endswith("." + name):
                    held.append(subject)
                    break
        return tuple(held)

    def _prescan(self) -> None:
        node = self.fn.node
        self.local_names.update(self.fn.params())
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                self.global_decls.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                self.local_names.add(sub.id)
            elif isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and sub is not node:
                self.local_funcs.add(sub.name)
                self.local_names.add(sub.name)
        self.local_names -= self.global_decls
        for param in self.fn.params():
            annotation = _strip_wrappers(self.fn.param_annotation(param))
            resolved = self.index.resolve_name(self.module, annotation)
            if isinstance(resolved, ClassInfo):
                self.local_types[param] = resolved
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and \
                    isinstance(sub.targets[0], ast.Name):
                typed = self._type_of(sub.value, binding=True)
                if typed is not None:
                    self.local_types[sub.targets[0].id] = typed

    # -- typing --------------------------------------------------------------

    def _resolve_call_type(self, func: ast.expr) -> Optional[ClassInfo]:
        resolved = self._resolve_callee_obj(func)
        if isinstance(resolved, ClassInfo):
            return resolved
        if isinstance(resolved, FunctionInfo):
            text = _strip_wrappers(resolved.return_annotation())
            returned = self.index.resolve_name(resolved.module, text)
            if isinstance(returned, ClassInfo):
                return returned
        return None

    def _type_of(self, expr: ast.expr,
                 binding: bool = False) -> Optional[ClassInfo]:
        """The indexed class an expression evaluates to, if knowable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return self.cls
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._type_of(expr.value)
            if base is None:
                return None
            return self._attr_class(base, expr.attr)
        if isinstance(expr, ast.Call):
            return self._resolve_call_type(expr.func)
        if isinstance(expr, ast.IfExp):
            typed = self._type_of(expr.body, binding=binding)
            return typed if typed is not None else self._type_of(
                expr.orelse, binding=binding
            )
        return None

    def _attr_class(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        entry = cls.attr_types.get(attr)
        if entry is None or entry[0] != "instance":
            return None
        resolved = self.index.resolve_name(cls.module, entry[1])
        return resolved if isinstance(resolved, ClassInfo) else None

    # -- subjects ------------------------------------------------------------

    def _subject_of(self, expr: ast.expr) -> Optional[str]:
        """Shared-state subject named by an lvalue-ish expression."""
        if isinstance(expr, ast.Attribute):
            base = self._type_of(expr.value)
            if base is None:
                return None
            if expr.attr in base.methods:
                return None  # bound method, not state
            return "%s.%s" % (base.qualname, expr.attr)
        if isinstance(expr, ast.Name):
            return self._global_subject(expr.id)
        return None

    def _global_subject(self, name: str) -> Optional[str]:
        if name in self.local_names:
            return None
        mod = self.index.modules.get(self.module)
        if mod is None:
            return None
        if name in mod.global_assigns or name in self.global_decls:
            return "%s.%s" % (self.module, name)
        imported = mod.imports.get(name)
        if imported and "." in imported:
            target_mod, _, target_name = imported.rpartition(".")
            other = self.index.modules.get(target_mod)
            if other is not None and target_name in other.global_assigns:
                return imported
        return None

    def _where(self, node: ast.AST) -> str:
        return "%s:%d" % (self.module, getattr(node, "lineno", 0))

    def _record(self, subject: Optional[str], kind: str,
                held: Tuple[str, ...], node: ast.AST) -> None:
        if subject is None or subject in self.facts.sync_subjects:
            return
        self.out.accesses.append(Access(
            subject=subject,
            kind=kind,
            locks=frozenset(held),
            fn=self.fn.qualname,
            where=self._where(node),
        ))

    # -- lock resolution -----------------------------------------------------

    def _lock_expr(self, expr: ast.expr) -> Optional[str]:
        subject = None
        if isinstance(expr, ast.Attribute):
            base = self._type_of(expr.value)
            if base is not None:
                subject = "%s.%s" % (base.qualname, expr.attr)
        elif isinstance(expr, ast.Name):
            subject = self._global_subject(expr.id)
        if subject is not None and subject in self.facts.locks:
            return subject
        return None

    # -- statement traversal -------------------------------------------------

    def _stmt(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock = self._lock_expr(item.context_expr)
                if lock is not None:
                    self.out.acquired.append(
                        (lock, self._where(item.context_expr))
                    )
                    for outer in inner:
                        if outer != lock:
                            self.out.nest_edges.append(
                                (outer, lock,
                                 self._where(item.context_expr))
                            )
                    inner = inner + (lock,)
                else:
                    if self._bind_executor(item):
                        continue
                    self._expr(item.context_expr, inner)
            for sub in stmt.body:
                self._stmt(sub, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: body runs later, with no lock held.
            for sub in stmt.body:
                self._stmt(sub, ())
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, held)
            for target in stmt.targets:
                self._target(target, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, held)
            self._record(self._subject_of(stmt.target), "read",
                         held, stmt)
            self._target(stmt.target, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, held)
                self._target(stmt.target, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target, held)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, held)
            for sub in stmt.body:
                self._stmt(sub, held)
            for sub in stmt.orelse:
                self._stmt(sub, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, held)
            for sub in stmt.body:
                self._stmt(sub, held)
            for sub in stmt.orelse:
                self._stmt(sub, held)
            return
        if isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                for sub in block:
                    self._stmt(sub, held)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub, held)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, held)
            return
        # Raise/Assert/Pass/Import/...: scan embedded expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, held)

    def _target(self, target: ast.expr, held: Tuple[str, ...]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, held)
            return
        if isinstance(target, ast.Subscript):
            # Container mutation through an index: a write on the
            # container subject.
            self._record(self._subject_of(target.value), "write",
                         held, target)
            self._expr(target.slice, held)
            return
        if isinstance(target, ast.Starred):
            self._target(target.value, held)
            return
        subject = self._subject_of(target)
        if subject is None and isinstance(target, ast.Name) and \
                target.id in self.global_decls:
            subject = "%s.%s" % (self.module, target.id)
        self._record(subject, "write", held, target)

    # -- expression traversal ------------------------------------------------

    def _expr(self, expr: ast.expr, held: Tuple[str, ...]) -> None:
        if isinstance(expr, ast.Call):
            self._call(expr, held)
            return
        if isinstance(expr, (ast.Attribute, ast.Name)):
            self._record(self._subject_of(expr), "read", held, expr)
            if isinstance(expr, ast.Attribute):
                self._expr(expr.value, held)
            return
        if isinstance(expr, ast.Lambda):
            self._expr(expr.body, ())
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child, held)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, held)
                for cond in child.ifs:
                    self._expr(cond, held)

    def _call(self, call: ast.Call, held: Tuple[str, ...]) -> None:
        func = call.func
        handled_args = False
        if self._is_ctor(func, "Thread", "threading"):
            self._thread_site(call)
        elif self._is_ctor(func, "ProcessPoolExecutor",
                           "concurrent.futures"):
            self._pool_site(call)
            handled_args = True
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and \
                    receiver.id in self.executors and \
                    func.attr in ("map", "submit"):
                self._pool_dispatch(call)
                handled_args = True
            else:
                if func.attr in MUTATORS:
                    self._record(self._subject_of(receiver), "write",
                                 held, call)
                callee = self._resolve_callee_obj(func)
                if isinstance(callee, FunctionInfo):
                    self.out.calls.append(
                        (callee.qualname, frozenset(held),
                         self._where(call))
                    )
                self._expr(receiver, held)
        elif isinstance(func, ast.Name):
            callee = self._resolve_callee_obj(func)
            if isinstance(callee, FunctionInfo):
                self.out.calls.append(
                    (callee.qualname, frozenset(held), self._where(call))
                )
            elif isinstance(callee, ClassInfo):
                init = self.index.find_method(callee, "__init__")
                if init is not None:
                    self.out.calls.append(
                        (init.qualname, frozenset(held),
                         self._where(call))
                    )
                self._handler_args(call)
        if not handled_args:
            for arg in call.args:
                self._expr(arg, held)
            for keyword in call.keywords:
                self._expr(keyword.value, held)

    def _resolve_callee_obj(self, func: ast.expr):
        if isinstance(func, ast.Name):
            return self.index.resolve_name(self.module, func.id)
        if isinstance(func, ast.Attribute):
            base = self._type_of(func.value)
            if base is not None:
                return self.index.find_method(base, func.attr)
            if isinstance(func.value, ast.Name):
                return self.index.resolve_name(
                    self.module,
                    "%s.%s" % (func.value.id, func.attr),
                )
        return None

    def _is_ctor(self, func: ast.expr, name: str, module: str) -> bool:
        if isinstance(func, ast.Name) and func.id == name:
            mod = self.index.modules.get(self.module)
            imported = mod.imports.get(name, "") if mod else ""
            return imported.endswith(name)
        return (
            isinstance(func, ast.Attribute)
            and func.attr == name
            and isinstance(func.value, ast.Name)
            and func.value.id in (module.rsplit(".", 1)[-1], "threading",
                                  "futures")
        )

    # -- spawn points --------------------------------------------------------

    def _thread_site(self, call: ast.Call) -> None:
        target = None
        for keyword in call.keywords:
            if keyword.arg == "target":
                target = keyword.value
        where = self._where(call)
        if target is None:
            self.out.thread_sites.append(ThreadSite(
                target=None, text="(no target=)", kind="unresolved",
                where=where,
            ))
            return
        text = ast.unparse(target)
        if isinstance(target, ast.Attribute):
            base = self._type_of(target.value)
            if base is not None:
                method = self.index.find_method(base, target.attr)
                if method is not None:
                    self.out.thread_sites.append(ThreadSite(
                        target=method.qualname, text=text,
                        kind="resolved", where=where,
                    ))
                    return
                # An indexed receiver whose method lives in a stdlib
                # base (``server.serve_forever``): opaque, not an
                # analysis failure.
                self.out.thread_sites.append(ThreadSite(
                    target=None, text=text, kind="opaque", where=where,
                ))
                return
        elif isinstance(target, ast.Name):
            if target.id in self.local_funcs:
                self.out.thread_sites.append(ThreadSite(
                    target=None, text=text, kind="local", where=where,
                ))
                return
            resolved = self.index.resolve_name(self.module, target.id)
            if isinstance(resolved, FunctionInfo):
                self.out.thread_sites.append(ThreadSite(
                    target=resolved.qualname, text=text,
                    kind="resolved", where=where,
                ))
                return
        self.out.thread_sites.append(ThreadSite(
            target=None, text=text, kind="unresolved", where=where,
        ))

    def _handler_args(self, call: ast.Call) -> None:
        """Classes passed into a server constructor run their methods
        on server-spawned threads."""
        for arg in call.args:
            if not isinstance(arg, ast.Name):
                continue
            resolved = self.index.resolve_name(self.module, arg.id)
            if isinstance(resolved, ClassInfo) and self._is_handler(
                resolved
            ):
                self.out.handler_classes.append(resolved.qualname)

    def _is_handler(self, cls: ClassInfo) -> bool:
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for base in current.base_names:
                if "RequestHandler" in base:
                    return True
                resolved = self.index.resolve_name(current.module, base)
                if isinstance(resolved, ClassInfo):
                    queue.append(resolved)
        return False

    def _bind_executor(self, item: ast.withitem) -> bool:
        """``with ProcessPoolExecutor(...) as pool:`` binds ``pool``."""
        expr = item.context_expr
        if isinstance(expr, ast.Call) and self._is_ctor(
            expr.func, "ProcessPoolExecutor", "concurrent.futures"
        ):
            self._pool_site(expr)
            if isinstance(item.optional_vars, ast.Name):
                self.executors.add(item.optional_vars.id)
            return True
        return False

    def _pool_site(self, call: ast.Call) -> None:
        site = PoolSite(where=self._where(call))
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                resolved = self._resolve_callee_obj(keyword.value)
                if isinstance(resolved, FunctionInfo):
                    site.initializer = resolved.qualname
                    site.captured.extend(
                        self._param_classes(resolved)
                    )
            elif keyword.arg == "initargs":
                values = (keyword.value.elts
                          if isinstance(keyword.value, ast.Tuple)
                          else [keyword.value])
                for value in values:
                    typed = self._type_of(value)
                    if typed is not None:
                        site.captured.append(typed.qualname)
        self.out.pool_sites.append(site)
        self._last_pool_site = site

    def _pool_dispatch(self, call: ast.Call) -> None:
        """``pool.map(fn, ...)`` / ``pool.submit(fn, ...)``."""
        site = getattr(self, "_last_pool_site", None)
        if site is None or not call.args:
            return
        fn_expr = call.args[0]
        resolved = self._resolve_callee_obj(fn_expr)
        captured = []
        if isinstance(fn_expr, ast.Attribute):
            # A bound method drags its whole receiver through pickle.
            base = self._type_of(fn_expr.value)
            if base is not None:
                captured.append(base.qualname)
        if isinstance(resolved, FunctionInfo):
            captured.extend(self._param_classes(resolved))
            if captured:
                site.captured.extend(captured)
            else:
                site.untyped.append(resolved.qualname)
        elif captured:
            site.captured.extend(captured)
        elif isinstance(fn_expr, ast.Name):
            site.untyped.append(ast.unparse(fn_expr))

    def _param_classes(self, fn: FunctionInfo) -> List[str]:
        classes = []
        for param in fn.params():
            text = _strip_wrappers(fn.param_annotation(param))
            resolved = self.index.resolve_name(fn.module, text)
            if isinstance(resolved, ClassInfo):
                classes.append(resolved.qualname)
        return classes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def extract_facts(index: Optional[ModuleIndex] = None) -> CodeFacts:
    """Run both extraction phases over every indexed function."""
    if index is None:
        index = ModuleIndex.build()
    facts = CodeFacts(index)
    _discover_definitions(facts)
    for qualname, fn in sorted(index.functions.items()):
        facts.functions[qualname] = _FunctionWalker(facts, fn).run()
    # Fold function-level global mutations into the census entries,
    # promoting rebound-only globals (initially immutable values) into
    # the census as "rebound".
    for facts_fn in facts.functions.values():
        for access in facts_fn.accesses:
            entry = facts.globals.get(access.subject)
            if entry is None:
                module, _, name = access.subject.rpartition(".")
                if module in index.modules and access.kind == "write" and \
                        name in index.modules[module].global_assigns:
                    entry = facts.globals[access.subject] = GlobalDef(
                        subject=access.subject,
                        module=module,
                        name=name,
                        kind="rebound",
                        where=access.where,
                    )
            if entry is not None and access.kind == "write":
                entry.mutations.append(access.where)
    return facts


__all__ = [
    "Access",
    "CodeFacts",
    "FunctionFacts",
    "GlobalDef",
    "LockDef",
    "PoolSite",
    "ThreadSite",
    "extract_facts",
    "INIT_METHODS",
    "MUTATORS",
]

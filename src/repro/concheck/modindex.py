"""AST index of the ``repro`` package for the concurrency analyzer.

Parses every module under ``src/repro`` once and exposes the structure
the fact extraction needs: top-level functions, classes with their
methods, per-module import tables (so dotted references resolve to
definitions), and per-class ``attr_types`` — instance attributes
assigned from a constructor call or a class-typed parameter, so method
calls on ``self.tracer`` / ``self.metrics`` resolve to the right class.

The index is purely syntactic — nothing is imported or executed — which
is what lets the static pass run in milliseconds and under any
interpreter that can parse the sources.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


def _annotation_text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node).replace(" ", "").replace('"', "").replace(
            "'", ""
        )
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


def _strip_wrappers(text: str) -> str:
    """Peel ``Optional[...]``/``List[...]``-style wrappers off a type."""
    for wrapper in ("Optional[", "List[", "list[", "Sequence[", "Tuple[",
                    "tuple["):
        if text.startswith(wrapper) and text.endswith("]"):
            inner = text[len(wrapper):-1]
            if inner.endswith(",..."):
                inner = inner[: -len(",...")]
            return _strip_wrappers(inner)
    return text


def _is_classish(name: str) -> bool:
    """Whether a bare name plausibly denotes a class.

    Covers both public ``CamelCase`` names and the module-private
    ``_CamelCase`` convention (``_ExporterServer``, ``_SpanHandle``)
    the concurrency analyzer has to see through.
    """
    stripped = name.lstrip("_")
    return bool(stripped) and stripped[0].isupper()


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    cls: Optional["ClassInfo"] = None

    @property
    def name(self) -> str:
        return self.node.name

    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        return names

    def param_annotation(self, name: str) -> str:
        args = self.node.args
        for a in list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        ):
            if a.arg == name:
                return _annotation_text(a.annotation)
        return ""

    def return_annotation(self) -> str:
        return _annotation_text(self.node.returns)


@dataclass
class ClassInfo:
    """One class definition with its methods and instance summaries."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base-class names as written (resolved lazily via the index).
    base_names: Tuple[str, ...] = ()
    #: Instance attribute -> ("instance" | "list", class name as written).
    attr_types: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    node: ast.Module
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Local name -> dotted target ("repro.trace.emulator.emulate" for
    #: ``from repro.trace.emulator import emulate``, "repro.arch" for
    #: ``import repro.arch``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level name -> the value expression last assigned to it
    #: (``Assign``/``AnnAssign`` at module scope; annotation-only
    #: declarations are skipped).  Feeds the global-mutable census.
    global_assigns: Dict[str, ast.expr] = field(default_factory=dict)


def _collect_imports(body: List[ast.stmt], into: Dict[str, str]) -> None:
    for stmt in body:
        if isinstance(stmt, ast.If):
            # ``if TYPE_CHECKING:`` blocks hold the annotation imports.
            _collect_imports(stmt.body, into)
            _collect_imports(stmt.orelse, into)
        elif isinstance(stmt, ast.Try):
            _collect_imports(stmt.body, into)
            for handler in stmt.handlers:
                _collect_imports(handler.body, into)
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(
                    "."
                )[0]
                into[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                continue  # no relative imports in this codebase
            for alias in stmt.names:
                local = alias.asname or alias.name
                into[local] = "%s.%s" % (stmt.module, alias.name)


def _called_class_name(value: ast.expr) -> Optional[Tuple[str, str]]:
    """``ClassName(...)`` -> ("instance", name); list thereof -> list."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        name = value.func.id
        if _is_classish(name):
            return ("instance", name)
    if isinstance(value, ast.IfExp):
        # ``tracer if tracer is not None else get_tracer()`` — either
        # branch naming a class ties the expression to that class.
        return (_called_class_name(value.body)
                or _called_class_name(value.orelse))
    if isinstance(value, ast.ListComp):
        elt = _called_class_name(value.elt)
        if elt is not None and elt[0] == "instance":
            return ("list", elt[1])
    if isinstance(value, ast.List) and value.elts:
        elt = _called_class_name(value.elts[0])
        if elt is not None and elt[0] == "instance":
            return ("list", elt[1])
    return None


def _summarise_class(info: ClassInfo) -> None:
    """Fill ``attr_types`` from the method bodies.

    Dataclass-style annotated class fields count too: ``latency_table:
    LatencyTable`` makes the attribute resolve to that class.
    """
    attr_types: Dict[str, Tuple[str, str]] = {}
    for stmt in info.node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            continue
        text = _annotation_text(stmt.annotation)
        stripped = _strip_wrappers(text)
        if _is_classish(stripped):
            kind = (
                "list"
                if text.startswith(("List[", "list[", "Sequence[", "Tuple["))
                else "instance"
            )
            attr_types[stmt.target.id] = (kind, stripped)
    for method in info.methods.values():
        typed_params: Dict[str, str] = {}
        for param in method.params():
            stripped = _strip_wrappers(method.param_annotation(param))
            if _is_classish(stripped):
                typed_params[param] = stripped
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
                values = [node.value]
                if isinstance(node.value, ast.IfExp):
                    # ``self.tracer = tracer if ... else get_tracer()``:
                    # either branch may carry the type.
                    values = [node.value.body, node.value.orelse]
                for value in values:
                    if isinstance(value, ast.Name):
                        if value.id in typed_params:
                            attr_types[target.attr] = (
                                "instance", typed_params[value.id]
                            )
                            break
                    else:
                        typed = _called_class_name(value)
                        if typed is not None:
                            attr_types[target.attr] = typed
                            break
    info.attr_types = attr_types


class ModuleIndex:
    """Syntactic index over every module of one package tree."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules
        #: class qualname -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: function qualname -> FunctionInfo (top-level and methods)
        self.functions: Dict[str, FunctionInfo] = {}
        for module in modules.values():
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
            for fn in module.functions.values():
                self.functions[fn.qualname] = fn

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, root: Optional[str] = None,
              package: str = "repro") -> "ModuleIndex":
        """Index every ``.py`` file of ``package`` under ``root``.

        ``root`` defaults to the source directory this module was loaded
        from, so the analyzer always inspects the code that is actually
        running.
        """
        if root is None:
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        modules: Dict[str, ModuleInfo] = {}
        base = os.path.dirname(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, base)
                name = rel[:-3].replace(os.sep, ".")
                if name.endswith(".__init__"):
                    name = name[: -len(".__init__")]
                if not name.startswith(package):
                    name = package + "." + name  # root passed as pkg dir
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                modules[name] = cls._index_module(name, tree)
        return cls(modules)

    @staticmethod
    def _index_module(name: str, tree: ast.Module) -> ModuleInfo:
        info = ModuleInfo(name=name, node=tree)
        _collect_imports(tree.body, info.imports)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.global_assigns[target.id] = stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None):
                info.global_assigns[stmt.target.id] = stmt.value
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionInfo(
                    qualname="%s.%s" % (name, stmt.name),
                    module=name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_info = ClassInfo(
                    qualname="%s.%s" % (name, stmt.name),
                    module=name,
                    node=stmt,
                    base_names=tuple(
                        _annotation_text(b) for b in stmt.bases
                    ),
                )
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        cls_info.methods[sub.name] = FunctionInfo(
                            qualname="%s.%s" % (cls_info.qualname, sub.name),
                            module=name,
                            node=sub,
                            cls=cls_info,
                        )
                _summarise_class(cls_info)
                info.classes[stmt.name] = cls_info
        return info

    # -- resolution ---------------------------------------------------------

    def resolve_name(
        self,
        module: str,
        dotted: str,
        local_imports: Optional[Dict[str, str]] = None,
    ) -> Optional[object]:
        """Resolve a (possibly dotted) name used in ``module``.

        Returns a :class:`FunctionInfo`, :class:`ClassInfo`, a module
        name string (for ``import repro.arch``-style references), or
        ``None``.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        target: Optional[str] = None
        if local_imports and head in local_imports:
            target = local_imports[head]
        elif head in mod.imports:
            target = mod.imports[head]
        elif head in mod.functions:
            return mod.functions[head] if not rest else None
        elif head in mod.classes:
            return self._resolve_into_class(mod.classes[head], rest)
        else:
            return None
        return self._resolve_dotted(target, rest)

    def _resolve_dotted(
        self, target: str, rest: List[str]
    ) -> Optional[object]:
        """Resolve ``target`` (+ trailing attribute path) to a def."""
        queue = list(rest)
        while True:
            if target in self.modules:
                if not queue:
                    return target
                mod = self.modules[target]
                head = queue.pop(0)
                if head in mod.functions:
                    return mod.functions[head] if not queue else None
                if head in mod.classes:
                    return self._resolve_into_class(mod.classes[head], queue)
                if head in mod.imports:  # re-export via __init__
                    target = mod.imports[head]
                    continue
                sub = "%s.%s" % (target, head)
                if sub in self.modules:  # submodule attribute access
                    target = sub
                    continue
                return None
            if target in self.functions and not queue:
                return self.functions[target]
            if target in self.classes:
                return self._resolve_into_class(self.classes[target], queue)
            if "." in target:
                # ``module.attr`` where only a prefix names a module
                # (e.g. ``from repro.staticcheck import analyze_kernel``
                # binds the re-exported name to ``repro.staticcheck.
                # analyze_kernel``): peel the tail and retry the prefix.
                target, _, tail = target.rpartition(".")
                queue.insert(0, tail)
                continue
            return None

    def _resolve_into_class(
        self, cls: ClassInfo, rest: List[str]
    ) -> Optional[object]:
        if not rest:
            return cls
        if len(rest) == 1:
            return self.find_method(cls, rest[0])
        return None

    def find_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        """Resolve a method through the (indexed) base-class chain."""
        seen = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.base_names:
                resolved = self.resolve_name(current.module, base)
                if isinstance(resolved, ClassInfo):
                    queue.append(resolved)
        return None

"""Per-module summaries: the facts the whole-program pass links.

The project model (:mod:`repro.checks.project`) never holds parsed
trees for the whole repository — it holds one :class:`ModuleSummary`
per file, extracted in a single AST walk and serialisable to JSON so
the incremental lint cache (:mod:`repro.checks.cache`) can persist it.
A summary records exactly what the interprocedural rules consume:

* module-level import records (IMP001's cycle graph; deferred imports
  inside functions are the sanctioned cycle-breaker and are excluded);
* ``__all__`` export claims and every identifier the file references
  (DEAD001's liveness evidence — including identifier tokens inside
  short string constants, which is how the runner's by-name worker
  references like ``"repro.runner.testing:flaky_payload"`` count);
* one :class:`FunctionSummary` per module-level function and per
  method: seed parameters, entropy draws, best-effort call sites
  (RNG010's taint graph), calls nested in return expressions and
  non-JSON constructs returned (PROC010), circuit-switch mutations and
  which *parameters* they mutate (CHS010).

Call references are deliberately modest: ``abs:<dotted>`` when the
callee resolves through the file's imports, ``local:<name>`` for a bare
name, ``method:<attr>`` for an attribute call whose receiver is opaque
(``self.helper()``, ``plan.payload()``).  Linking them to functions is
the model's job; unresolvable calls stay unlinked and never produce
diagnostics — conservative by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .context import FileContext
from .rules.controlplane import _ALWAYS_FLAGGED, _CS_ONLY_FLAGGED, _looks_like_cs
from .rules.process import _non_json_nodes, _payload_expressions
from .rules.rng import _accepts_seed, _is_draw, _threads_seed_state

__all__ = [
    "CallSite",
    "DrawSite",
    "PayloadSite",
    "NonJsonReturn",
    "FunctionSummary",
    "ImportRecord",
    "ModuleSummary",
    "summarize",
]

#: Decorator names that register a class with the rule framework —
#: a registered rule class is reachable through the registry even when
#: nothing imports it by name.
_REGISTERING_DECORATORS = frozenset({"register", "register_project"})

#: Longest string constant mined for identifier tokens (liveness refs).
_MAX_REF_STRING = 200


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    ref: str  #: ``abs:…`` / ``local:…`` / ``method:…`` / ``""`` opaque
    lineno: int
    col: int
    threads_seed: bool  #: a seed/rng-named value appears among the args
    cs_arg_positions: tuple[int, ...]  #: positional args that look cs-shaped

    def to_json(self) -> dict[str, object]:
        return {
            "ref": self.ref,
            "lineno": self.lineno,
            "col": self.col,
            "threads_seed": self.threads_seed,
            "cs_arg_positions": list(self.cs_arg_positions),
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "CallSite":
        return cls(
            ref=str(data["ref"]),
            lineno=_i(data["lineno"]),
            col=_i(data["col"]),
            threads_seed=bool(data["threads_seed"]),
            cs_arg_positions=tuple(
                _i(p) for p in _l(data["cs_arg_positions"])
            ),
        )


@dataclass(frozen=True)
class DrawSite:
    """One direct entropy draw (``ensure_rng``/``default_rng``/``Random``)."""

    what: str
    lineno: int
    col: int
    threads_seed: bool

    def to_json(self) -> dict[str, object]:
        return {
            "what": self.what,
            "lineno": self.lineno,
            "col": self.col,
            "threads_seed": self.threads_seed,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "DrawSite":
        return cls(
            what=str(data["what"]),
            lineno=_i(data["lineno"]),
            col=_i(data["col"]),
            threads_seed=bool(data["threads_seed"]),
        )


@dataclass(frozen=True)
class PayloadSite:
    """One ``Task(..., payload)`` construction and the calls inside it."""

    lineno: int
    col: int
    call_refs: tuple[str, ...]

    def to_json(self) -> dict[str, object]:
        return {
            "lineno": self.lineno,
            "col": self.col,
            "call_refs": list(self.call_refs),
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "PayloadSite":
        return cls(
            lineno=_i(data["lineno"]),
            col=_i(data["col"]),
            call_refs=tuple(str(r) for r in _l(data["call_refs"])),
        )


@dataclass(frozen=True)
class NonJsonReturn:
    """A non-JSON-serialisable construct inside a ``return`` expression."""

    label: str
    lineno: int
    col: int

    def to_json(self) -> dict[str, object]:
        return {"label": self.label, "lineno": self.lineno, "col": self.col}

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "NonJsonReturn":
        return cls(
            label=str(data["label"]),
            lineno=_i(data["lineno"]),
            col=_i(data["col"]),
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the interprocedural rules know about one function."""

    qualname: str  #: ``fn`` or ``Class.fn``
    cls: str | None
    name: str
    lineno: int
    col: int
    is_public: bool
    accepts_seed: bool
    params: tuple[str, ...]
    draws: tuple[DrawSite, ...]
    calls: tuple[CallSite, ...]
    return_calls: tuple[CallSite, ...]
    nonjson_returns: tuple[NonJsonReturn, ...]
    payload_sites: tuple[PayloadSite, ...]
    mutated_params: tuple[str, ...]
    mutates_circuit: bool

    def to_json(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "cls": self.cls,
            "name": self.name,
            "lineno": self.lineno,
            "col": self.col,
            "is_public": self.is_public,
            "accepts_seed": self.accepts_seed,
            "params": list(self.params),
            "draws": [d.to_json() for d in self.draws],
            "calls": [c.to_json() for c in self.calls],
            "return_calls": [c.to_json() for c in self.return_calls],
            "nonjson_returns": [r.to_json() for r in self.nonjson_returns],
            "payload_sites": [p.to_json() for p in self.payload_sites],
            "mutated_params": list(self.mutated_params),
            "mutates_circuit": self.mutates_circuit,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "FunctionSummary":
        raw_cls = data["cls"]
        return cls(
            qualname=str(data["qualname"]),
            cls=None if raw_cls is None else str(raw_cls),
            name=str(data["name"]),
            lineno=_i(data["lineno"]),
            col=_i(data["col"]),
            is_public=bool(data["is_public"]),
            accepts_seed=bool(data["accepts_seed"]),
            params=tuple(str(p) for p in _l(data["params"])),
            draws=tuple(
                DrawSite.from_json(_d(d)) for d in _l(data["draws"])
            ),
            calls=tuple(
                CallSite.from_json(_d(c)) for c in _l(data["calls"])
            ),
            return_calls=tuple(
                CallSite.from_json(_d(c)) for c in _l(data["return_calls"])
            ),
            nonjson_returns=tuple(
                NonJsonReturn.from_json(_d(r))
                for r in _l(data["nonjson_returns"])
            ),
            payload_sites=tuple(
                PayloadSite.from_json(_d(p))
                for p in _l(data["payload_sites"])
            ),
            mutated_params=tuple(
                str(p) for p in _l(data["mutated_params"])
            ),
            mutates_circuit=bool(data["mutates_circuit"]),
        )


@dataclass(frozen=True)
class ImportRecord:
    """One module-level import binding, as absolute dotted candidates.

    ``target`` is the most specific candidate (``base.name`` for a
    ``from base import name``), ``fallback`` the containing module
    (``base``), empty when there is none.  Linking picks the longest
    candidate that names a known project module.
    """

    target: str
    fallback: str
    lineno: int

    def to_json(self) -> dict[str, object]:
        return {
            "target": self.target,
            "fallback": self.fallback,
            "lineno": self.lineno,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "ImportRecord":
        return cls(
            target=str(data["target"]),
            fallback=str(data["fallback"]),
            lineno=_i(data["lineno"]),
        )


@dataclass
class ModuleSummary:
    """The cached, linkable digest of one source file."""

    path: str
    module: str | None
    category: str | None
    is_package: bool
    imports: tuple[ImportRecord, ...] = ()
    exports: tuple[tuple[str, int], ...] = ()
    has_all: bool = False
    toplevel_bound: tuple[str, ...] = ()
    self_registering: tuple[str, ...] = ()
    refs: frozenset[str] = frozenset()
    functions: tuple[FunctionSummary, ...] = ()
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)
    syntax_error: bool = False

    def is_suppressed(
        self, line: int, code: str, end_line: int | None = None
    ) -> bool:
        """Same contract as :meth:`FileContext.is_suppressed`."""
        wanted = code.upper()
        for candidate in range(line, (end_line or line) + 1):
            codes = self.noqa.get(candidate)
            if codes is not None and (wanted in codes or "*" in codes):
                return True
        return False

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "module": self.module,
            "category": self.category,
            "is_package": self.is_package,
            "imports": [imp.to_json() for imp in self.imports],
            "exports": [[name, lineno] for name, lineno in self.exports],
            "has_all": self.has_all,
            "toplevel_bound": list(self.toplevel_bound),
            "self_registering": list(self.self_registering),
            "refs": sorted(self.refs),
            "functions": [fn.to_json() for fn in self.functions],
            "noqa": {
                str(line): sorted(codes)
                for line, codes in sorted(self.noqa.items())
            },
            "syntax_error": self.syntax_error,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "ModuleSummary":
        raw_module = data["module"]
        raw_category = data["category"]
        raw_noqa = _d(data["noqa"])
        return cls(
            path=str(data["path"]),
            module=None if raw_module is None else str(raw_module),
            category=None if raw_category is None else str(raw_category),
            is_package=bool(data["is_package"]),
            imports=tuple(
                ImportRecord.from_json(_d(imp)) for imp in _l(data["imports"])
            ),
            exports=tuple(
                (str(_l(entry)[0]), _i(_l(entry)[1]))
                for entry in _l(data["exports"])
            ),
            has_all=bool(data["has_all"]),
            toplevel_bound=tuple(
                str(n) for n in _l(data["toplevel_bound"])
            ),
            self_registering=tuple(
                str(n) for n in _l(data["self_registering"])
            ),
            refs=frozenset(str(r) for r in _l(data["refs"])),
            functions=tuple(
                FunctionSummary.from_json(_d(fn))
                for fn in _l(data["functions"])
            ),
            noqa={
                int(line): frozenset(str(c) for c in _l(codes))
                for line, codes in raw_noqa.items()
            },
            syntax_error=bool(data["syntax_error"]),
        )


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def summarize(ctx: FileContext) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed file."""
    tree = ctx.tree
    return ModuleSummary(
        path=ctx.path,
        module=ctx.module,
        category=ctx.category,
        is_package=ctx.path.endswith("__init__.py"),
        imports=tuple(
            _iter_import_records(
                tree, ctx.module, ctx.path.endswith("__init__.py")
            )
        ),
        exports=tuple(_collect_exports(tree)),
        has_all=any(
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            for node in tree.body
        ),
        toplevel_bound=tuple(sorted(_toplevel_bound_names(tree))),
        self_registering=tuple(sorted(_self_registering_classes(tree))),
        refs=frozenset(_collect_refs(tree)),
        functions=tuple(_summarize_functions(ctx)),
        noqa=dict(ctx.noqa),
    )


def syntax_error_summary(
    path: str, module: str | None, category: str | None
) -> ModuleSummary:
    """A stub summary for a file the parser rejected — cached so warm
    runs do not re-parse a file that is known broken."""
    return ModuleSummary(
        path=path,
        module=module,
        category=category,
        is_package=path.endswith("__init__.py"),
        syntax_error=True,
    )


def _iter_import_records(
    tree: ast.Module, module: str | None, is_package: bool
) -> Iterator[ImportRecord]:
    """Module-level imports only — a deferred import inside a function
    is the sanctioned way to break a cycle and never feeds IMP001."""
    for stmt in _toplevel_statements(tree):
        if isinstance(stmt, ast.Import):
            for item in stmt.names:
                yield ImportRecord(
                    target=item.name, fallback="", lineno=stmt.lineno
                )
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                base = _resolve_relative_base(
                    base, stmt.level, module, is_package
                )
            for item in stmt.names:
                if item.name == "*":
                    yield ImportRecord(
                        target=base, fallback="", lineno=stmt.lineno
                    )
                    continue
                target = f"{base}.{item.name}" if base else item.name
                yield ImportRecord(
                    target=target, fallback=base, lineno=stmt.lineno
                )


def _toplevel_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-body statements, descending into top-level ``try``/``if``
    blocks except ``if TYPE_CHECKING`` (typing-only imports cannot
    create runtime cycles)."""
    stack: list[ast.stmt] = list(reversed(tree.body))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, ast.If):
            if _mentions_type_checking(stmt.test):
                stack.extend(reversed(stmt.orelse))
                continue
            stack.extend(reversed(stmt.body + stmt.orelse))
        elif isinstance(stmt, ast.Try):
            handler_bodies = [s for h in stmt.handlers for s in h.body]
            stack.extend(
                reversed(
                    stmt.body + handler_bodies + stmt.orelse + stmt.finalbody
                )
            )
        else:
            yield stmt


def _mentions_type_checking(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            return True
    return False


def _resolve_relative_base(
    base: str, level: int, module: str | None, is_package: bool
) -> str:
    """Absolute form of a relative import.

    Inside a package ``__init__`` the dotted module name *is* the
    package, so ``from . import x`` (level 1) resolves against the
    module name itself; in a plain module, level 1 strips the final
    component first.
    """
    if module is None:
        return base
    package = module.split(".")
    drop = level - 1 if is_package else level
    package = package[: len(package) - drop] if drop <= len(package) else []
    prefix = ".".join(package)
    if prefix and base:
        return f"{prefix}.{base}"
    return prefix or base


def _collect_exports(tree: ast.Module) -> Iterator[tuple[str, int]]:
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for element in stmt.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    yield (element.value, element.lineno)


def _toplevel_bound_names(tree: ast.Module) -> set[str]:
    bound: set[str] = set()
    for stmt in _toplevel_statements(tree):
        if isinstance(stmt, ast.Import):
            for item in stmt.names:
                bound.add(item.asname or item.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for item in stmt.names:
                bound.add(item.asname or item.name)
    return bound


def _self_registering_classes(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for decorator in stmt.decorator_list:
            node = (
                decorator.func
                if isinstance(decorator, ast.Call)
                else decorator
            )
            tail = (
                node.attr
                if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else ""
            )
            if tail in _REGISTERING_DECORATORS:
                names.add(stmt.name)
    return names


def _collect_refs(tree: ast.Module) -> set[str]:
    import re as _re

    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Import):
            for item in node.names:
                refs.update(item.name.split("."))
                if item.asname:
                    refs.add(item.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                refs.update(node.module.split("."))
            for item in node.names:
                refs.add(item.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) <= _MAX_REF_STRING:
                refs.update(
                    _re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value)
                )
    return refs


def _summarize_functions(ctx: FileContext) -> Iterator[FunctionSummary]:
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _summarize_function(ctx, stmt, cls=None)
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield _summarize_function(ctx, member, cls=stmt.name)


def _summarize_function(
    ctx: FileContext,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
) -> FunctionSummary:
    params = tuple(
        arg.arg
        for arg in [
            *fn.args.posonlyargs,
            *fn.args.args,
        ]
    )
    draws: list[DrawSite] = []
    calls: list[CallSite] = []
    mutated: set[str] = set()
    mutates_circuit = False
    payload_sites: list[PayloadSite] = []

    return_nodes: set[int] = set()
    nonjson: list[NonJsonReturn] = []
    return_calls: list[CallSite] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            for offender, label in _non_json_nodes(node.value):
                nonjson.append(
                    NonJsonReturn(
                        label=label,
                        lineno=offender.lineno,
                        col=offender.col_offset + 1,
                    )
                )
            for call in ast.walk(node.value):
                if isinstance(call, ast.Call):
                    return_nodes.add(id(call))

    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        site = _call_site(ctx, node)
        calls.append(site)
        if id(node) in return_nodes:
            return_calls.append(site)
        if _is_draw(ctx, node):
            draws.append(
                DrawSite(
                    what=ctx.resolve(node.func) or "",
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    threads_seed=_threads_seed_state(node),
                )
            )
        func = node.func
        if isinstance(func, ast.Attribute):
            is_mutation = func.attr in _ALWAYS_FLAGGED or (
                func.attr in _CS_ONLY_FLAGGED and _looks_like_cs(func.value)
            )
            if is_mutation:
                mutates_circuit = True
            if func.attr in _ALWAYS_FLAGGED | _CS_ONLY_FLAGGED:
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id in params:
                    mutated.add(receiver.id)
                    mutates_circuit = True
        for payload in _payload_expressions(node):
            refs = tuple(
                _call_site(ctx, inner).ref
                for inner in ast.walk(payload)
                if isinstance(inner, ast.Call)
            )
            payload_sites.append(
                PayloadSite(
                    lineno=payload.lineno,
                    col=payload.col_offset + 1,
                    call_refs=tuple(r for r in refs if r),
                )
            )

    dunder = fn.name.startswith("__") and fn.name.endswith("__")
    return FunctionSummary(
        qualname=f"{cls}.{fn.name}" if cls else fn.name,
        cls=cls,
        name=fn.name,
        lineno=fn.lineno,
        col=fn.col_offset + 1,
        is_public=dunder or not fn.name.startswith("_"),
        accepts_seed=_accepts_seed(fn),
        params=params,
        draws=tuple(draws),
        calls=tuple(calls),
        return_calls=tuple(return_calls),
        nonjson_returns=tuple(nonjson),
        payload_sites=tuple(payload_sites),
        mutated_params=tuple(sorted(mutated)),
        mutates_circuit=mutates_circuit,
    )


def _call_site(ctx: FileContext, node: ast.Call) -> CallSite:
    resolved = ctx.resolve(node.func)
    if resolved is not None:
        ref = f"abs:{resolved}"
    elif isinstance(node.func, ast.Name):
        ref = f"local:{node.func.id}"
    elif isinstance(node.func, ast.Attribute):
        ref = f"method:{node.func.attr}"
    else:
        ref = ""
    cs_positions = tuple(
        index
        for index, arg in enumerate(node.args)
        if not isinstance(arg, ast.Starred) and _looks_like_cs(arg)
    )
    return CallSite(
        ref=ref,
        lineno=node.lineno,
        col=node.col_offset + 1,
        threads_seed=_threads_seed_state(node),
        cs_arg_positions=cs_positions,
    )


# ----------------------------------------------------------------------
# JSON-shape narrowing helpers (cache entries arrive untyped)
# ----------------------------------------------------------------------


def _i(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return int(value)


def _l(value: object) -> list[object]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


def _d(value: object) -> dict[str, object]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value

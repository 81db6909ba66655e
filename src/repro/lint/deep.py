"""Interprocedural (``--deep``) passes over the project call graph.

Four analyses run on the :class:`~repro.lint.callgraph.ProjectModel`:

**Seed taint (deep L3).**  A hardcoded seed is just as replay-breaking
when it is laundered through a helper: ``_mk_rng(12345)`` where
``_mk_rng`` forwards its argument into ``default_rng``.  The pass
computes, by fixpoint over the call graph, the set of *seed-forwarding
parameters* -- parameters whose value flows (through local assignments
and further calls) into an RNG-constructor sink -- then flags every call
site that feeds a forwarding parameter a literal constant (laundered
hardcoded seed) or wall-clock/OS-entropy material.

**Message-size inference (deep L5).**  Wrappers around ``Message`` /
``VecOutbox`` constructors hide the declared ``size_bits`` from the
per-file rule.  The pass computes *size-forwarding parameters* the same
way and evaluates each wrapper call site with its literal arguments: a
0-bit declaration shipped with a real payload, or a constant size above
the configured bandwidth, is flagged at the call site -- where the lie
is written.

**L7 determinism.**  The scope is the *callback closure*: every per-node
callback plus every project function reachable from one.  Within it the
pass flags iteration over statically-recognized unordered ``set``
expressions (hash-order-dependent message/merge order), ``id()``-derived
values (process-dependent keys and sort orders), unordered containers
used as message payloads, and -- in reachable *helpers*, where per-file
L4 cannot see -- wall-clock/OS-entropy reads.  These are exactly the
properties the deterministic broadcast detectors (Korhonen--Rybicki,
Fraigniaud et al.) require to hold.

**L8 concurrency.**  The scope is the *pool closure*: functions shipped
to a process pool (first argument of ``<executor>.submit``/``.map``) and
everything they call.  The pass flags reads and writes of mutable
module-level globals inside that closure (fork-shared state that
silently diverges between parent and workers), non-``frozen`` dataclass
instances handed across the pool boundary at a submit site, and pooled
functions returning non-``frozen`` dataclasses.  It is the static twin
of the runtime sanitizer's pool-crossing guard
(:func:`repro.congest.sanitizer.check_pool_crossing`).

The pass also enforces the serving layer's state rule: modules under
``repro/serve`` may not bind mutable values at module scope *at all*
(not merely inside pooled closures).  The server handles requests from
event-loop tasks and engine threads simultaneously; its design keeps
every piece of mutable state on the engine core or a server/controller
instance where locking is explicit, so a module-level dict or list there
is a latent cross-request race even before any pool is involved.

Every claim is grounded in a resolved call-graph edge; anything dynamic
resolves to nothing and is never guessed at.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CallSite, FunctionInfo, ProjectModel
from .findings import LintFinding, Severity
from .rules import _is_mutable_value
from .visitor import ModuleModel

__all__ = ["deep_findings"]

#: RNG-constructor sinks for the seed-taint pass: dotted module path of
#: callables whose argument becomes (or seeds) a generator.
_SEED_SINKS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.seed",
        "random.Random",
        "random.seed",
    }
)

#: Wall-clock / OS-entropy sources (mirrors rule L4's tables).
_ENTROPY_PREFIXES = ("time", "uuid", "secrets")
_ENTROPY_EXACT = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_MESSAGE_WRAPPED = frozenset({"of_bits", "of_ints", "of_ids", "of_bitmap", "of_record"})


def _names_in(expr: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _is_entropy_call(model: ModuleModel, expr: ast.AST) -> bool:
    """``time.time()`` / ``os.urandom(8)`` / ... used as a value."""
    if not isinstance(expr, ast.Call):
        return False
    path = model.expr_module_path(expr.func)
    if path is None:
        return False
    return path in _ENTROPY_EXACT or any(
        path == p or path.startswith(p + ".") for p in _ENTROPY_PREFIXES
    )


def _literal_int(expr: Optional[ast.AST]) -> Optional[int]:
    if (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, int)
        and not isinstance(expr.value, bool)
    ):
        return expr.value
    return None


def _payload_statically_empty(expr: Optional[ast.AST]) -> bool:
    if expr is None:
        return True
    if isinstance(expr, ast.Constant):
        return expr.value is None or expr.value in ("", b"", 0, False)
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return len(expr.elts) == 0
    if isinstance(expr, ast.Dict):
        return len(expr.keys) == 0
    return False


# ----------------------------------------------------------------------
# local dataflow: which names inside a function carry a parameter's value
# ----------------------------------------------------------------------


def _param_taint(info: FunctionInfo) -> Dict[str, Set[str]]:
    """``local name -> set of parameter names whose value it may carry``.

    Parameters taint themselves; a simple assignment whose right side
    mentions a tainted name taints its target with the union of origins.
    Two passes over the body in source order make loop-carried chains
    converge for the shapes that occur in practice.
    """
    taint: Dict[str, Set[str]] = {p: {p} for p in info.param_names()}
    stmts = [
        n
        for n in ast.walk(info.node)
        if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    stmts.sort(key=lambda n: (n.lineno, n.col_offset))
    for _ in range(2):
        for stmt in stmts:
            value = stmt.value
            if value is None:
                continue
            origins: Set[str] = set()
            for name in _names_in(value):
                origins |= taint.get(name, set())
            if not origins:
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for t in targets:
                if isinstance(t, ast.Name):
                    taint.setdefault(t.id, set())
                    taint[t.id] |= origins
    return taint


def _map_actuals(
    callee: FunctionInfo, call: ast.Call
) -> Dict[str, ast.expr]:
    """``callee parameter name -> actual argument expression`` at a site."""
    out: Dict[str, ast.expr] = {}
    positional = callee.positional_params()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(positional):
            out[positional[i]] = arg
    for kw in call.keywords:
        if kw.arg is not None:
            out[kw.arg] = kw.value
    return out


class _Pass:
    """Shared plumbing: finding construction over project functions."""

    def __init__(self, project: ProjectModel, bandwidth: Optional[int]):
        self.project = project
        self.bandwidth = bandwidth
        self.findings: List[LintFinding] = []

    def add(
        self,
        rule_id: str,
        info: FunctionInfo,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(
            LintFinding(
                path=info.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule_id,
                severity=severity,
                message=message,
                symbol=info.display,
            )
        )


# ----------------------------------------------------------------------
# deep L3: seed taint
# ----------------------------------------------------------------------


class _SeedTaintPass(_Pass):
    def run(self) -> None:
        forwarding = self._forwarding_params()
        for caller, sites in self.project.graph.calls.items():
            caller_info = self.project.functions[caller]
            model = self.project.modules[caller_info.module]
            for site in sites:
                if site.is_reference or not isinstance(site.node, ast.Call):
                    continue
                callee = self.project.functions.get(site.callee)
                if callee is None or site.callee not in forwarding:
                    continue
                actuals = _map_actuals(callee, site.node)
                for param in forwarding[site.callee]:
                    actual = actuals.get(param)
                    if actual is None:
                        continue
                    if _literal_int(actual) is not None or (
                        isinstance(actual, ast.Constant)
                        and isinstance(actual.value, float)
                    ):
                        self.add(
                            "L3",
                            caller_info,
                            site.node,
                            f"hardcoded seed {ast.unparse(actual)} laundered "
                            f"through {callee.display}(): parameter "
                            f"'{param}' flows into an RNG constructor, so "
                            "this call pins the generator exactly like "
                            "default_rng(<literal>) would; thread the seed "
                            "from the policy / caller instead",
                        )
                    elif _is_entropy_call(model, actual):
                        self.add(
                            "L3",
                            caller_info,
                            site.node,
                            f"wall-clock/OS entropy used as seed material "
                            f"for {callee.display}(): parameter '{param}' "
                            "flows into an RNG constructor, so runs are "
                            "not replayable from the master seed",
                        )

    def _forwarding_params(self) -> Dict[str, Set[str]]:
        """Fixpoint: parameters whose value reaches an RNG sink."""
        forwarding: Dict[str, Set[str]] = {}
        taints: Dict[str, Dict[str, Set[str]]] = {}
        for qual, info in self.project.functions.items():
            taints[qual] = _param_taint(info)
            model = self.project.modules[info.module]
            hit: Set[str] = set()
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                path = model.expr_module_path(node.func)
                if path not in _SEED_SINKS:
                    continue
                seed_args: List[ast.expr] = list(node.args[:1])
                for kw in node.keywords:
                    if kw.arg in (None, "seed", "a", "x"):
                        seed_args.append(kw.value)
                for arg in seed_args:
                    for name in _names_in(arg):
                        hit |= taints[qual].get(name, set())
            if hit:
                forwarding[qual] = hit

        changed = True
        while changed:
            changed = False
            for caller, sites in self.project.graph.calls.items():
                caller_taint = taints.get(caller, {})
                for site in sites:
                    if site.is_reference or not isinstance(site.node, ast.Call):
                        continue
                    callee = self.project.functions.get(site.callee)
                    if callee is None or site.callee not in forwarding:
                        continue
                    actuals = _map_actuals(callee, site.node)
                    for param in forwarding[site.callee]:
                        actual = actuals.get(param)
                        if actual is None:
                            continue
                        origins: Set[str] = set()
                        for name in _names_in(actual):
                            origins |= caller_taint.get(name, set())
                        caller_params = set(
                            self.project.functions[caller].param_names()
                        )
                        new = origins & caller_params
                        if new - forwarding.get(caller, set()):
                            forwarding.setdefault(caller, set())
                            forwarding[caller] |= new
                            changed = True
        return forwarding


# ----------------------------------------------------------------------
# deep L5: message sizes through wrappers
# ----------------------------------------------------------------------


class _Template:
    """A wrapper's forwarded message-size contract."""

    def __init__(
        self,
        size_param: str,
        payload_param: Optional[str],
        payload_empty_inside: bool,
        constructor: str,
    ):
        self.size_param = size_param
        self.payload_param = payload_param
        self.payload_empty_inside = payload_empty_inside
        self.constructor = constructor


class _MessageSizePass(_Pass):
    def run(self) -> None:
        templates = self._templates()
        for caller, sites in self.project.graph.calls.items():
            caller_info = self.project.functions[caller]
            for site in sites:
                if site.is_reference or not isinstance(site.node, ast.Call):
                    continue
                for tpl in templates.get(site.callee, []):
                    callee = self.project.functions[site.callee]
                    actuals = _map_actuals(callee, site.node)
                    size = _literal_int(actuals.get(tpl.size_param))
                    if size is None:
                        continue
                    if size == 0:
                        if tpl.payload_param is not None:
                            payload = actuals.get(tpl.payload_param)
                            empty = _payload_statically_empty(payload)
                        else:
                            empty = tpl.payload_empty_inside
                        if not empty:
                            self.add(
                                "L5",
                                caller_info,
                                site.node,
                                f"0-bit message laundered through "
                                f"{callee.display}(): the declared "
                                f"size_bits reaches {tpl.constructor} "
                                "while a real payload ships with it; "
                                "free information violates the "
                                "bit-accounting contract",
                            )
                    elif self.bandwidth is not None and size > self.bandwidth:
                        self.add(
                            "L5",
                            caller_info,
                            site.node,
                            f"constant {size}-bit message declared through "
                            f"{callee.display}() exceeds the configured "
                            f"bandwidth B={self.bandwidth}; chunk it over "
                            "rounds",
                        )

    def _templates(self) -> Dict[str, List[_Template]]:
        """Fixpoint: wrappers whose parameter is a message's size_bits."""
        templates: Dict[str, List[_Template]] = {}
        for qual, info in self.project.functions.items():
            model = self.project.modules[info.module]
            params = set(info.param_names())
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                size_expr, payload_expr, ctor = self._constructor_parts(
                    model, node
                )
                if ctor is None:
                    continue
                if not (
                    isinstance(size_expr, ast.Name) and size_expr.id in params
                ):
                    continue
                payload_param = (
                    payload_expr.id
                    if isinstance(payload_expr, ast.Name)
                    and payload_expr.id in params
                    else None
                )
                templates.setdefault(qual, []).append(
                    _Template(
                        size_param=size_expr.id,
                        payload_param=payload_param,
                        payload_empty_inside=_payload_statically_empty(
                            payload_expr
                        )
                        if payload_param is None
                        else True,
                        constructor=ctor,
                    )
                )

        changed = True
        while changed:
            changed = False
            for caller, sites in self.project.graph.calls.items():
                caller_info = self.project.functions[caller]
                caller_params = set(caller_info.param_names())
                for site in sites:
                    if site.is_reference or not isinstance(site.node, ast.Call):
                        continue
                    for tpl in templates.get(site.callee, []):
                        callee = self.project.functions[site.callee]
                        actuals = _map_actuals(callee, site.node)
                        size_actual = actuals.get(tpl.size_param)
                        if not (
                            isinstance(size_actual, ast.Name)
                            and size_actual.id in caller_params
                        ):
                            continue
                        payload_actual = (
                            actuals.get(tpl.payload_param)
                            if tpl.payload_param is not None
                            else None
                        )
                        lifted = _Template(
                            size_param=size_actual.id,
                            payload_param=(
                                payload_actual.id
                                if isinstance(payload_actual, ast.Name)
                                and payload_actual.id in caller_params
                                else None
                            ),
                            payload_empty_inside=tpl.payload_empty_inside
                            if tpl.payload_param is None
                            else _payload_statically_empty(payload_actual),
                            constructor=tpl.constructor,
                        )
                        have = templates.get(caller, [])
                        if not any(
                            t.size_param == lifted.size_param
                            and t.constructor == lifted.constructor
                            for t in have
                        ):
                            templates.setdefault(caller, []).append(lifted)
                            changed = True
        return templates

    @staticmethod
    def _constructor_parts(
        model: ModuleModel, call: ast.Call
    ) -> Tuple[Optional[ast.expr], Optional[ast.expr], Optional[str]]:
        """(size_expr, payload_expr, constructor name) of a message call."""
        fn = call.func
        kwargs: Dict[str, ast.expr] = {
            kw.arg: kw.value for kw in call.keywords if kw.arg is not None
        }
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in _MESSAGE_WRAPPED
            and isinstance(fn.value, ast.Name)
            and model.original_name(fn.value.id) == "Message"
        ):
            if fn.attr == "of_record":
                payload = call.args[0] if call.args else kwargs.get("payload")
                size = (
                    call.args[1]
                    if len(call.args) > 1
                    else kwargs.get("size_bits")
                )
                return size, payload, "Message.of_record"
            return None, None, None
        if isinstance(fn, ast.Name):
            original = model.original_name(fn.id)
            if original == "Message":
                payload = call.args[0] if call.args else kwargs.get("payload")
                size = (
                    call.args[1]
                    if len(call.args) > 1
                    else kwargs.get("size_bits")
                )
                return size, payload, "Message"
            if original == "VecOutbox":
                payload = (
                    call.args[1] if len(call.args) > 1 else kwargs.get("payload")
                )
                size = (
                    call.args[2]
                    if len(call.args) > 2
                    else kwargs.get("size_bits")
                )
                return size, payload, "VecOutbox"
        return None, None, None


# ----------------------------------------------------------------------
# L7: determinism
# ----------------------------------------------------------------------


class _DeterminismPass(_Pass):
    def run(self) -> None:
        closure = self.project.callback_closure()
        for qual in sorted(closure):
            info = self.project.functions.get(qual)
            if info is None:
                continue
            model = self.project.modules[info.module]
            set_locals = self._set_bound_locals(info)
            seen: Set[Tuple[int, int]] = set()
            for node in ast.walk(info.node):
                self._check_iteration(info, node, set_locals, seen)
                self._check_id_call(info, node, seen)
                self._check_set_payload(info, model, node, set_locals, seen)
                if not info.is_callback:
                    self._check_entropy(info, model, node, seen)

    # -- statically-recognized unordered set expressions ---------------
    def _set_bound_locals(self, info: FunctionInfo) -> Set[str]:
        """Locals assigned exactly once, from a set expression."""
        counts: Dict[str, int] = {}
        values: Dict[str, ast.expr] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name):
                    counts[t.id] = counts.get(t.id, 0) + 1
                    values[t.id] = node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                t2 = node.target
                if isinstance(t2, ast.Name):
                    counts[t2.id] = counts.get(t2.id, 0) + 1
        return {
            name
            for name, n in counts.items()
            if n == 1 and name in values and self._is_set_expr(values[name], set())
        }

    def _is_set_expr(self, expr: ast.AST, set_locals: Set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in set_locals
        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(fn.value, set_locals)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(expr.left, set_locals) and self._is_set_expr(
                expr.right, set_locals
            )
        return False

    def _check_iteration(
        self,
        info: FunctionInfo,
        node: ast.AST,
        set_locals: Set[str],
        seen: Set[Tuple[int, int]],
    ) -> None:
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(g.iter for g in node.generators)
        for it in iters:
            if not self._is_set_expr(it, set_locals):
                continue
            key = (it.lineno, it.col_offset)
            if key in seen:
                continue
            seen.add(key)
            self.add(
                "L7",
                info,
                it,
                "iteration over an unordered set: the visit order is "
                "hash-dependent, so any message, merge, or tie-break it "
                "feeds varies across processes and Python builds; iterate "
                "sorted(...) (or an explicitly ordered container) instead",
            )

    def _check_id_call(
        self, info: FunctionInfo, node: ast.AST, seen: Set[Tuple[int, int]]
    ) -> None:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            return
        key = (node.lineno, node.col_offset)
        if key in seen:
            return
        seen.add(key)
        self.add(
            "L7",
            info,
            node,
            "id() value used in per-node logic: object addresses differ "
            "across processes and runs, so id()-keyed containers and "
            "id()-based ordering are nondeterministic; key on node ids or "
            "stable payload values instead",
        )

    def _check_set_payload(
        self,
        info: FunctionInfo,
        model: ModuleModel,
        node: ast.AST,
        set_locals: Set[str],
        seen: Set[Tuple[int, int]],
    ) -> None:
        if not isinstance(node, ast.Call):
            return
        payload = self._message_payload(model, node)
        if payload is None or not self._is_set_expr(payload, set_locals):
            return
        key = (payload.lineno, payload.col_offset)
        if key in seen:
            return
        seen.add(key)
        self.add(
            "L7",
            info,
            node,
            "message payload is an unordered set: its serialization and "
            "receiver-side iteration order are hash-dependent; send a "
            "sorted tuple so the wire format is deterministic",
        )

    @staticmethod
    def _message_payload(
        model: ModuleModel, call: ast.Call
    ) -> Optional[ast.expr]:
        fn = call.func
        kwargs: Dict[str, ast.expr] = {
            kw.arg: kw.value for kw in call.keywords if kw.arg is not None
        }
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in _MESSAGE_WRAPPED
            and isinstance(fn.value, ast.Name)
            and model.original_name(fn.value.id) == "Message"
        ):
            if call.args:
                return call.args[0]
            return kwargs.get("payload") or kwargs.get("bits") or kwargs.get(
                "values"
            ) or kwargs.get("ids")
        if isinstance(fn, ast.Name) and model.original_name(fn.id) == "Message":
            return call.args[0] if call.args else kwargs.get("payload")
        return None

    def _check_entropy(
        self,
        info: FunctionInfo,
        model: ModuleModel,
        node: ast.AST,
        seen: Set[Tuple[int, int]],
    ) -> None:
        """Wall clock / OS entropy in a callback-reachable helper.

        Inside callback methods proper this is per-file L4 territory; in
        helpers only the call graph can see it, and the influence on
        outcomes is the determinism property L7 owns.  Entropy reads are
        always attribute accesses (``time.time``, ``os.urandom``), so
        only ``ast.Attribute`` is considered -- looking at bare names too
        would double-report the ``time`` inside ``time.time``."""
        if not isinstance(node, ast.Attribute):
            return
        path = model.expr_module_path(node)
        if path is None:
            return
        bad = path in _ENTROPY_EXACT or any(
            path == p or path.startswith(p + ".") for p in _ENTROPY_PREFIXES
        )
        if not bad:
            return
        key = (node.lineno, node.col_offset)
        if key in seen:
            return
        seen.add(key)
        self.add(
            "L7",
            info,
            node,
            f"wall-clock/OS entropy ({path}) in a helper reachable from a "
            "per-node callback: outcomes influenced by it are not "
            "replayable from the master seed",
        )


# ----------------------------------------------------------------------
# L8: concurrency / pool safety
# ----------------------------------------------------------------------


#: Serving-layer homes (path fragments, / separated): modules here must
#: keep mutable state on the engine core or a server/controller instance,
#: never at module scope -- requests touch them from event-loop tasks and
#: engine threads at once.
_SERVE_HOMES = ("repro/serve",)


class _ConcurrencyPass(_Pass):
    def run(self) -> None:
        roots = self.project.pooled_roots()
        closure = self.project.pool_closure()
        mutable_globals = self._module_mutable_globals()
        self._check_serve_module_state(mutable_globals)
        for qual in sorted(closure):
            info = self.project.functions.get(qual)
            if info is None:
                continue
            self._check_global_access(info, mutable_globals.get(info.module, {}))
            self._check_returns(info)
        for target, site in sorted(roots.items()):
            self._check_submit_site(site)

    def _check_serve_module_state(
        self, mutable_globals: Dict[str, Dict[str, int]]
    ) -> None:
        """Serving modules may not bind mutable values at module scope."""
        for mod in sorted(mutable_globals):
            path = self.project.module_paths.get(mod, "")
            norm = path.replace("\\", "/")
            if not any(home in norm for home in _SERVE_HOMES):
                continue
            for name, lineno in sorted(
                mutable_globals[mod].items(), key=lambda kv: kv[1]
            ):
                if name.startswith("__") and name.endswith("__"):
                    continue  # export lists and other module metadata
                self.findings.append(
                    LintFinding(
                        path=path,
                        line=lineno,
                        col=0,
                        rule_id="L8",
                        severity=Severity.ERROR,
                        message=(
                            f"serving module binds mutable module-level "
                            f"global '{name}': the server touches state "
                            "from event-loop tasks and engine threads at "
                            "once, so mutable server state must live on "
                            "the engine core or a server/controller "
                            "instance (with explicit locking), never at "
                            "module scope"
                        ),
                        symbol="<module>",
                    )
                )

    def _module_mutable_globals(self) -> Dict[str, Dict[str, int]]:
        """Per module: names bound at module level to mutable values."""
        out: Dict[str, Dict[str, int]] = {}
        for mod, model in self.project.modules.items():
            bindings: Dict[str, int] = {}
            for stmt in model.tree.body:
                if isinstance(stmt, ast.Assign):
                    value, targets = stmt.value, stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value, targets = stmt.value, [stmt.target]
                else:
                    continue
                if not _is_mutable_value(value):
                    continue
                for t in targets:
                    if isinstance(t, ast.Name):
                        bindings[t.id] = stmt.lineno
            if bindings:
                out[mod] = bindings
        return out

    def _check_global_access(
        self, info: FunctionInfo, mutable_globals: Dict[str, int]
    ) -> None:
        if not mutable_globals:
            return
        local_names = {
            t.id
            for n in ast.walk(info.node)
            if isinstance(n, ast.Assign)
            for t in n.targets
            if isinstance(t, ast.Name)
        } | set(info.param_names())
        declared_global = {
            name
            for n in ast.walk(info.node)
            if isinstance(n, ast.Global)
            for name in n.names
        }
        shadowed = local_names - declared_global
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Name):
                continue
            if node.id not in mutable_globals or node.id in shadowed:
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            access = (
                "writes" if isinstance(node.ctx, (ast.Store, ast.Del)) else "reads"
            )
            self.add(
                "L8",
                info,
                node,
                f"pooled function {access} mutable module-level global "
                f"'{node.id}' (bound at module scope, line "
                f"{mutable_globals[node.id]}): state inherited at fork "
                "silently diverges between parent and workers and is "
                "never merged back; pass state through the task spec or "
                "keep it explicitly worker-local",
            )

    def _check_returns(self, info: FunctionInfo) -> None:
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            cls = self._nonfrozen_dataclass_ctor(info, node.value)
            if cls is not None:
                self.add(
                    "L8",
                    info,
                    node,
                    f"pooled function returns non-frozen dataclass "
                    f"'{cls}': results crossing the pool boundary must be "
                    "immutable, or a post-merge mutation silently forks "
                    "parent and worker views",
                )

    def _check_submit_site(self, site: CallSite) -> None:
        caller_info = self.project.functions.get(site.caller)
        if caller_info is None or not isinstance(site.node, ast.Call):
            return
        for arg in list(site.node.args[1:]) + [
            kw.value for kw in site.node.keywords
        ]:
            cls = self._nonfrozen_dataclass_ctor(caller_info, arg)
            if cls is not None:
                self.add(
                    "L8",
                    caller_info,
                    arg,
                    f"non-frozen dataclass '{cls}' handed across the pool "
                    "boundary: the worker gets a pickled copy, so any "
                    "mutation on either side silently diverges; freeze "
                    "the dataclass (frozen=True) or ship plain data",
                )

    def _nonfrozen_dataclass_ctor(
        self, info: FunctionInfo, expr: ast.AST
    ) -> Optional[str]:
        if not isinstance(expr, ast.Call):
            return None
        model = self.project.modules[info.module]
        name: Optional[str] = None
        if isinstance(expr.func, ast.Name):
            name = expr.func.id
        elif isinstance(expr.func, ast.Attribute):
            name = expr.func.attr
        if name is None:
            return None
        qual = self.project.resolve_class_name(model, info.module, name)
        if qual is None:
            return None
        cinfo = self.project.classes[qual]
        if cinfo.is_dataclass and not cinfo.dataclass_frozen:
            return cinfo.node.name
        return None


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_PASSES = (_SeedTaintPass, _MessageSizePass, _DeterminismPass, _ConcurrencyPass)


def deep_findings(
    project: ProjectModel,
    bandwidth: Optional[int] = None,
    include: Optional[Sequence[str]] = None,
) -> List[LintFinding]:
    """All interprocedural findings over ``project``.

    ``include`` restricts to a subset of rule ids (same semantics as
    :func:`repro.lint.rules.build_rules`); suppression and per-file
    deduplication are the runner's job.
    """
    wanted = (
        None
        if include is None
        else {r.strip().upper() for r in include if r.strip()}
    )
    findings: List[LintFinding] = []
    for pass_cls in _PASSES:
        p = pass_cls(project, bandwidth)
        p.run()
        findings.extend(p.findings)
    if wanted is not None:
        findings = [f for f in findings if f.rule_id in wanted]
    return findings

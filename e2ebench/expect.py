"""The oracle: what each request should get back, computed through the
library on a path other than the daemon's.

For every program the oracle runs the front end itself, then asks the
paper's denotational semantics (``repro.core.denote``) for the
program's meaning:

* a value must come back *equal* (rendered the same way);
* an exceptional answer must be a *member* of the denoted exception
  set (Sections 4.1-4.3: the daemon's strategy picks one member);
* an ``IO`` program's permitted results come from the Section 4.4
  transition system (``repro.io.transition.enumerate_outcomes``), so
  ``catchEval``/``catchIO`` handlers are checked against the semantics
  too.

Where the denotation does not terminate within its fuel (it returns
the bottom set), the oracle falls back to a cold ``ast`` machine — a
different evaluator and a different heap from the daemon's warm fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

#: Denotational fuel per program.  Generous: the heavy pool's programs
#: take ~10^5 denotation steps.
DENOTE_FUEL = 3_000_000


@dataclass(frozen=True)
class Expected:
    """The set of answers the semantics permits for one request.

    ``values`` lists the permitted renderings of a value and ``excs``
    the permitted exception names (``any_sync``: every synchronous
    exception is permitted).  ``kind`` names the class: ``value``,
    ``exceptional``, ``parse-error``, ``type-error`` or ``unbound`` (an
    unbound name the daemon may either reject or drop the connection
    on).  ``via`` names the path that computed it.
    """

    kind: str
    values: FrozenSet[str] = frozenset()
    excs: FrozenSet[str] = frozenset()
    any_sync: bool = False
    via: str = "denote"


class Oracle:
    """Computes and memoises :class:`Expected` answers per request."""

    def __init__(self) -> None:
        self._memo: Dict[tuple, Expected] = {}
        self._type_env = None

    def expect(self, expr_source: str, typecheck: bool = False) -> Expected:
        key = (expr_source, typecheck)
        if key not in self._memo:
            self._memo[key] = self._expect(expr_source, typecheck)
        return self._memo[key]

    def _prelude_types(self):
        if self._type_env is None:
            from repro.api import prelude_type_env

            self._type_env = prelude_type_env()
        return self._type_env

    def _expect(self, source: str, typecheck: bool) -> Expected:
        from repro.api import compile_expr
        from repro.core.denote import DenoteContext, InternalError, denote
        from repro.prelude.loader import denote_env

        try:
            expr = compile_expr(source)
        except Exception:  # the daemon's front end maps any failure here
            return Expected("parse-error", via="parser")
        if typecheck:
            from repro.types.infer import TypeError_, infer_expr

            env, adts = self._prelude_types()
            try:
                infer_expr(expr, env, adts)
            except TypeError_:
                return Expected("type-error", via="typecheck")
        ctx = DenoteContext(fuel=DENOTE_FUEL)
        try:
            meaning = denote(expr, denote_env(ctx), ctx)
            expected = _from_denotation(meaning)
        except InternalError as err:
            if "unbound variable" in str(err):
                return Expected("unbound", via="denote")
            raise
        if expected is None:
            return _from_machine(source)
        return expected


def _from_denotation(meaning) -> Optional[Expected]:
    """The permitted answers, or None when the denotation ran out of
    fuel somewhere (then the machine decides)."""
    from repro.core.domains import Bad, IOVal, Ok, is_bottom
    from repro.core.render import show_semval
    from repro.io.transition import enumerate_outcomes

    if is_bottom(meaning):
        return None
    if isinstance(meaning, Bad):
        return Expected(
            "exceptional",
            excs=frozenset(m.name for m in meaning.excs.members),
            any_sync=meaning.excs.all_synchronous,
        )
    assert isinstance(meaning, Ok)
    if isinstance(meaning.value, IOVal):
        values, excs = set(), set()
        for result in enumerate_outcomes(meaning):
            if result.kind == "ok" and not result.fictitious:
                values.add(result.detail)
            elif result.kind == "uncaught" and not result.fictitious:
                excs.add(result.detail.split()[0])
            else:
                return None
        kind = "value" if values else "exceptional"
        return Expected(
            kind, values=frozenset(values), excs=frozenset(excs), via="io-lts"
        )
    rendered = show_semval(meaning)
    if "<Bad" in rendered or "..." in rendered:
        return None
    return Expected("value", values=frozenset([rendered]), via="denote")


def _from_machine(source: str) -> Expected:
    """Fallback: a cold ``ast`` machine with a freshly built prelude."""
    from repro.api import compile_expr
    from repro.io.run import IOExecutor
    from repro.machine.eval import Machine
    from repro.machine.heap import AsyncInterrupt, Cell, ObjRaise
    from repro.machine.observe import show_value
    from repro.machine.values import VIO
    from repro.prelude.loader import machine_env

    machine = Machine(backend="ast", fuel=8_000_000)
    env = machine_env(machine)
    try:
        value = machine.eval(compile_expr(source), env)
    except (ObjRaise, AsyncInterrupt) as err:
        return Expected("exceptional", excs=frozenset([err.exc.name]), via="ast")
    if isinstance(value, VIO):
        result = IOExecutor(machine=machine).run_cell(Cell.ready(value))
        if result.status == "ok":
            rendered = "()" if result.value is None else show_value(result.value, machine)
            return Expected("value", values=frozenset([rendered]), via="ast")
        if result.status == "exception":
            return Expected("exceptional", excs=frozenset([result.exc.name]), via="ast")
        raise RuntimeError(f"oracle: {source!r} diverged on the ast machine")
    return Expected("value", values=frozenset([show_value(value, machine)]), via="ast")


# -- checking answers -----------------------------------------------------


def outcome_class(status: Optional[int], body: Optional[dict]) -> str:
    """The traffic report's class for one answer."""
    if body is None:
        return "dropped"
    kind = body.get("status")
    if status == 200 and kind in ("value", "exceptional"):
        return kind
    if kind == "error" and body.get("reason") in ("parse-error", "type-error"):
        return body["reason"]
    return "other"


def check(
    expected: Expected, status: Optional[int], body: Optional[dict]
) -> Optional[str]:
    """None when the answer is one the semantics permits, else the
    failure class: ``dropped`` (connection closed without a response),
    ``unexpected-status``, ``wrong-value`` or ``wrong-exception``."""
    got = outcome_class(status, body)
    if expected.kind == "unbound":
        # Today the daemon drops the connection (the machine's
        # MachineError escapes the service); a structured error
        # response is the fix, and is accepted too.
        if got == "dropped" or (body is not None and body.get("status") == "error"):
            return None
        return "unexpected-status"
    if got == "dropped":
        return "dropped"
    if expected.kind in ("parse-error", "type-error"):
        return None if got == expected.kind else "unexpected-status"
    if got == "value" and expected.values:
        return None if body.get("value") in expected.values else "wrong-value"
    if got == "exceptional" and (expected.excs or expected.any_sync):
        if body.get("exc") in expected.excs:
            return None
        if expected.any_sync and body.get("synchronous"):
            return None
        return "wrong-exception"
    return "unexpected-status"


@dataclass
class Tally:
    """Failure and outcome counts over one run's answers."""

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)

    def add(self, expected: Expected, status, body) -> None:
        self.attempted += 1
        cls = outcome_class(status, body)
        self.outcomes[cls] = self.outcomes.get(cls, 0) + 1
        failure = check(expected, status, body)
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

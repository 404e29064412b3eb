"""The oracle on one program of each outcome class."""

import expect
import pytest
from expect import Oracle, check


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def ok(value):
    return {"status": "value", "value": value}


def exc(name, synchronous=True):
    return {"status": "exceptional", "exc": name, "synchronous": synchronous}


def error(reason):
    return {"status": "error", "reason": reason}


def test_value_must_be_equal(oracle):
    e = oracle.expect("1 + 2 * 3")
    assert (e.kind, e.via, e.values) == ("value", "denote", {"7"})
    assert check(e, 200, ok("7")) is None
    assert check(e, 200, ok("8")) == "wrong-value"
    assert check(e, 200, exc("DivideByZero")) == "unexpected-status"
    assert check(e, None, None) == "dropped"


def test_list_values_render_like_the_daemon(oracle):
    assert oracle.expect("reverse [1, 2, 3]").values == {"[3, 2, 1]"}


def test_exception_must_be_a_member_of_the_denoted_set(oracle):
    e = oracle.expect('(1 `div` 0) + error "Urk"')
    assert e.kind == "exceptional"
    assert e.excs == {"DivideByZero", "UserError"}
    assert check(e, 200, exc("DivideByZero")) is None
    assert check(e, 200, exc("UserError")) is None
    assert check(e, 200, exc("Overflow")) == "wrong-exception"
    assert check(e, 200, ok("0")) == "unexpected-status"


def test_caught_raise_goes_through_the_io_semantics(oracle):
    e = oracle.expect("catchEval (1 `div` 0) (\\e -> 7)")
    assert (e.kind, e.via, e.values) == ("value", "io-lts", {"7"})
    assert check(e, 200, ok("7")) is None


def test_parse_error(oracle):
    e = oracle.expect("let { = ")
    assert e.kind == "parse-error"
    assert check(e, 400, error("parse-error")) is None
    assert check(e, 200, ok("1")) == "unexpected-status"


def test_type_error_only_when_typechecked(oracle):
    assert oracle.expect("1 + True", typecheck=True).kind == "type-error"
    assert check(
        oracle.expect("1 + True", typecheck=True), 400, error("type-error")
    ) is None
    assert oracle.expect("1 + 2", typecheck=True).kind == "value"


def test_unbound_name_may_drop_or_reject(oracle):
    e = oracle.expect("undefinedName + 1")
    assert e.kind == "unbound"
    assert check(e, None, None) is None
    assert check(e, 400, error("unbound-variable")) is None
    assert check(e, 200, ok("1")) == "unexpected-status"


def test_machine_fallback_when_the_denotation_runs_out(monkeypatch):
    monkeypatch.setattr(expect, "DENOTE_FUEL", 50)
    e = Oracle().expect("sum (enumFromTo 1 100)")
    assert (e.kind, e.via, e.values) == ("value", "ast", {"5050"})


def test_tally_counts_failure_classes(oracle):
    tally = expect.Tally()
    e = oracle.expect("1 + 1")
    tally.add(e, 200, ok("2"))
    tally.add(e, 200, ok("3"))
    tally.add(e, None, None)
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.failures == {"wrong-value": 1, "dropped": 1}
    assert tally.outcomes == {"value": 2, "dropped": 1}

"""Bundled simplex vs oracles, statuses, bounds, backends, interchange dump."""
from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cacherec import Scenario, evaluate, simplex
from cacherec.lp import (LpProblem, build_session_lp, format_lp, parse_lp, parse_solution_text,
                         recover_policy)
from cacherec.simplex import solve
from _oracles import vertex_optimum
from conftest import random_box_lp


def make_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = sparse.csr_matrix(np.asarray(a_ub, dtype=float) if a_ub is not None else (0, n))
    a_eq = sparse.csr_matrix(np.asarray(a_eq, dtype=float) if a_eq is not None else (0, n))
    return LpProblem(
        c=c, a_eq=a_eq, b_eq=np.asarray(b_eq if b_eq is not None else [], dtype=float),
        a_ub=a_ub, b_ub=np.asarray(b_ub if b_ub is not None else [], dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        var_names=[f"x{i}" for i in range(n)])


class TestBasics:
    def test_min_x_above_one(self):
        sol = solve(make_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0]), method="dense")
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)

    def test_native_upper_bounds_no_rows(self):
        sol = solve(make_lp([-1.0, -2.0], ub=[0.7, 0.4]), method="dense")
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.7, 0.4])

    def test_bounds_with_coupling_row(self):
        sol = solve(make_lp([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[0.9], ub=[0.7, 0.4]),
                    method="dense")
        assert np.allclose(sol.x, [0.5, 0.4])

    def test_infeasible_contradictory_rows(self):
        prob = make_lp([0.0], a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])
        sol = solve(prob, method="dense")
        assert sol.status == "infeasible"
        assert "tightest row" in sol.message

    def test_unbounded(self):
        sol = solve(make_lp([-1.0]), method="dense")
        assert sol.status == "unbounded"

    def test_iteration_limit_status(self, monkeypatch):
        monkeypatch.setattr(simplex, "_PIVOTS_PER_DIM", 0)
        prob = random_box_lp(np.random.default_rng(5), n_vars=5)
        sol = solve(prob, method="dense")
        assert sol.status == "iteration-limit"

    def test_session_lp_two_state(self):
        # only one feasible policy exists, so the LP value is forced
        s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=0.5, n=1, q=0.0)
        sol = solve(build_session_lp(s), method="dense")
        assert sol.status == "optimal"
        assert (1 - s.alpha) * sol.objective == pytest.approx(0.5)

    def test_cycling_guard(self):
        # classic cycling instance for the most-negative-cost rule
        prob = make_lp(
            [-0.75, 150.0, -0.02, 6.0],
            a_ub=[[0.25, -60.0, -0.04, 9.0],
                  [0.5, -90.0, -0.02, 3.0],
                  [0.0, 0.0, 1.0, 0.0]],
            b_ub=[0.0, 0.0, 1.0])
        sol = solve(prob, method="dense")
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05)


class TestAgainstOracles:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            prob = random_box_lp(rng)
            sol = solve(prob, method="dense")
            status, _, obj = vertex_optimum(prob)
            assert sol.status == status == "optimal"
            assert sol.objective == pytest.approx(obj, abs=1e-9)
            assert sol.max_residual <= 1e-8

    def test_highs_agrees_with_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            prob = random_box_lp(rng)
            a = solve(prob, method="dense")
            b = solve(prob, method="highs")
            assert a.status == b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, abs=1e-8)

    def test_highs_detects_infeasible(self):
        prob = make_lp([0.0], a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])
        assert solve(prob, method="highs").status == "infeasible"

    def test_fuzz_against_highs_on_degenerate_lps(self):
        # fixed variables, negative bounds, redundant equalities, tight rows
        rng = np.random.default_rng(12345)
        for trial in range(100):
            n = int(rng.integers(1, 7))
            mu = int(rng.integers(0, 4))
            me = int(rng.integers(0, min(3, n) + 1))
            lb = rng.choice([-1.0, 0.0, 0.5], size=n)
            ub = lb + rng.choice([0.0, 0.7, 2.0, np.inf], size=n, p=[0.1, 0.3, 0.4, 0.2])
            x0 = np.where(np.isfinite(ub), (lb + np.minimum(ub, lb + 1)) / 2, lb + 0.3)
            a_ub = rng.integers(-2, 3, size=(mu, n)).astype(float)
            b_ub = a_ub @ x0 + rng.choice([0.0, 0.3, 1.0], size=mu)
            a_eq = rng.integers(-2, 3, size=(me, n)).astype(float)
            if me >= 2 and rng.random() < 0.4:
                a_eq[me - 1] = a_eq[0]
            prob = make_lp(rng.integers(-3, 4, size=n).astype(float),
                           a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=a_eq @ x0,
                           lb=lb, ub=ub)
            d = solve(prob, method="dense")
            h = solve(prob, method="highs")
            assert d.status == h.status, f"trial {trial}: {d.status} vs {h.status}"
            if d.status == "optimal":
                assert d.objective == pytest.approx(h.objective, abs=1e-7), f"trial {trial}"
                assert d.max_residual <= 1e-7, f"trial {trial}"


class TestDeterminism:
    def test_identical_reruns(self):
        prob = random_box_lp(np.random.default_rng(3))
        a = solve(prob, method="dense")
        b = solve(prob, method="dense")
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_objective_scaling_keeps_argmin(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            prob = random_box_lp(rng)
            base = solve(prob, method="dense")
            scaled_prob = LpProblem(
                c=2.5 * prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq, a_ub=prob.a_ub,
                b_ub=prob.b_ub, lb=prob.lb, ub=prob.ub, var_names=prob.var_names)
            scaled = solve(scaled_prob, method="dense")
            assert np.array_equal(base.x, scaled.x)


class TestInterchange:
    def test_dump_parse_round_trip(self):
        prob = random_box_lp(np.random.default_rng(17))
        back = parse_lp(format_lp(prob))
        assert back.var_names == prob.var_names
        assert np.array_equal(back.c, prob.c)
        assert np.array_equal(back.b_eq, prob.b_eq)
        assert np.array_equal(back.b_ub, prob.b_ub)
        assert np.array_equal(back.lb, prob.lb)
        assert np.array_equal(back.ub, prob.ub)
        assert (back.a_ub != prob.a_ub).nnz == 0
        assert (back.a_eq != prob.a_eq).nnz == 0
        a = solve(prob, method="dense")
        b = solve(back, method="dense")
        assert a.objective == pytest.approx(b.objective, abs=1e-12)

    def test_external_solver_hook(self, tmp_path):
        stub = tmp_path / "stub_solver.py"
        stub.write_text(
            "import sys\n"
            "from cacherec.lp import parse_lp\n"
            "from cacherec.simplex import solve\n"
            "prob = parse_lp(open(sys.argv[1]).read())\n"
            "sol = solve(prob, method='dense')\n"
            "with open(sys.argv[2], 'w') as fh:\n"
            "    fh.write(f'status={sol.status}\\n')\n"
            "    fh.write(f'objective={float(sol.objective)!r}\\n')\n"
            "    for name, val in zip(prob.var_names, sol.x):\n"
            "        fh.write(f'{name}={float(val)!r}\\n')\n")
        prob = random_box_lp(np.random.default_rng(23))
        want = solve(prob, method="dense")
        got = solve(prob, method="external",
                    external_cmd=f"{sys.executable} {stub} {{lp}} {{out}}")
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, abs=1e-10)
        assert np.allclose(got.x, want.x, atol=1e-10)

    def test_external_failure_reported(self):
        prob = random_box_lp(np.random.default_rng(29))
        got = solve(prob, method="external", external_cmd="false")
        assert got.status == "error"

    def test_external_non_finite_output_reported(self, tmp_path):
        stub = tmp_path / "nan_solver.py"
        stub.write_text("import sys\n"
                        "open(sys.argv[2], 'w').write('status=optimal\\nx0=nan\\n')\n")
        prob = random_box_lp(np.random.default_rng(31))
        got = solve(prob, method="external",
                    external_cmd=f"{sys.executable} {stub} {{lp}} {{out}}")
        assert got.status == "error"
        assert "line 2: x0 is not finite" in got.message

    def test_session_lp_round_trips_through_dump(self):
        s = Scenario(u=[[0, 1, 0.5], [1, 0, 0.2], [0.5, 0.2, 0]],
                     c=[0, 1, 1], p0=[0.2, 0.3, 0.5], alpha=0.6, n=1, q=0.5)
        prob = build_session_lp(s)
        back = parse_lp(format_lp(prob))
        sol = solve(back, method="dense")
        rec = recover_policy(sol, s, problem=back)
        assert evaluate(rec.policy, s).ltec == pytest.approx(
            (1 - s.alpha) * rec.objective_value, rel=1e-8)


DUMP = "\n".join([
    "# cacherec lp dump v1", "problem tiny", "minimize",
    "var x obj 1.0 lb 0.0 ub 1.0",
    "var y obj 2.0 lb 0.0 ub inf",
    "eq budget rhs 1.0 : x 1.0 y 1.0",
    "le cap rhs 0.5 : y 1.0",
    "end"]) + "\n"


def with_line(lineno: int, text: str) -> str:
    lines = DUMP.splitlines()
    lines[lineno - 1] = text
    return "\n".join(lines) + "\n"


class TestParseErrors:
    def test_reference_dump_parses(self):
        prob = parse_lp(DUMP)
        assert prob.var_names == ["x", "y"] and prob.ub[1] == np.inf

    def test_short_var_line(self):
        with pytest.raises(ValueError, match=r"line 4: expected 'var"):
            parse_lp(with_line(4, "var x obj 1"))

    def test_undeclared_variable_in_row(self):
        with pytest.raises(ValueError, match=r"line 6: .*undeclared variable 'z'"):
            parse_lp(with_line(6, "eq budget rhs 1.0 : x 1.0 z 1.0"))

    def test_row_without_rhs(self):
        with pytest.raises(ValueError, match=r"line 6: expected 'eq <name> rhs"):
            parse_lp(with_line(6, "eq r : x 1"))

    def test_bad_number_and_bounds(self):
        with pytest.raises(ValueError, match=r"line 7: could not convert .*'two'"):
            parse_lp(with_line(7, "le cap rhs 0.5 : y two"))
        with pytest.raises(ValueError, match=r"line 7: NaN in row 'cap'"):
            parse_lp(with_line(7, "le cap rhs nan : y 1.0"))
        with pytest.raises(ValueError, match=r"line 4: need .* lb <= ub"):
            parse_lp(with_line(4, "var x obj 1.0 lb 2.0 ub 1.0"))
        with pytest.raises(ValueError, match=r"line 5: variable 'x' declared twice"):
            parse_lp(with_line(5, "var x obj 1.0 lb 0.0 ub 1.0"))


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 4))
    lb = np.array(draw(st.lists(st.sampled_from([0.0, -1.0, -np.inf]), min_size=n, max_size=n)))
    ub = np.array(draw(st.lists(st.sampled_from([1.0, 2.5, np.inf]), min_size=n, max_size=n)))

    def block():
        m = draw(st.integers(0, 3))
        vals = draw(st.lists(st.one_of(st.just(0.0), finite), min_size=m * n, max_size=m * n))
        rhs = draw(st.lists(finite, min_size=m, max_size=m))
        return sparse.csr_matrix(np.reshape(vals, (m, n))), np.array(rhs, dtype=float)

    a_eq, b_eq = block()
    a_ub, b_ub = block()
    c = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lb=lb, ub=ub,
                     var_names=[f"v{i}" for i in range(n)], name="drawn")


MUTANTS = ["", "x", "v0", ":", "rhs", "obj", "var", "eq", "le", "end", "nan", "inf",
           "-inf", "1e999", "-1", "2.5"]


@given(lp_problems(), st.lists(st.tuples(st.sampled_from(["drop", "dup", "token"]),
                                         st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                         st.sampled_from(MUTANTS)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_dump_round_trips_or_raises_value_error(prob, mutations):
    text = format_lp(prob)
    back = parse_lp(text)
    assert back.name == prob.name and back.var_names == prob.var_names
    assert back.eq_names == prob.eq_names and back.ub_names == prob.ub_names
    for field in ("c", "b_eq", "b_ub", "lb", "ub"):
        assert np.array_equal(getattr(back, field), getattr(prob, field)), field
    assert (back.a_eq != prob.a_eq).nnz == 0 and (back.a_ub != prob.a_ub).nnz == 0

    lines = text.splitlines()
    for op, at, pos, token in mutations:
        i = at % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            toks = lines[i].split() or [""]
            toks[pos % len(toks)] = token
            lines[i] = " ".join(toks)
        if not lines:
            break
    try:
        parse_lp("\n".join(lines))
    except ValueError:
        pass


class TestParseSolutionText:
    PROB = parse_lp(DUMP)

    def test_reads_values_status_and_objective(self):
        status, x, objective = parse_solution_text(
            "# comment\nstatus=optimal\nobjective=1.5\ny=0.25\n", self.PROB)
        assert status == "optimal" and objective == 1.5
        assert x.tolist() == [0.0, 0.25]  # x missing: its lower bound

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match=r"line 2: x is not finite"):
            parse_solution_text(f"status=optimal\nx={value}\n", self.PROB)
        with pytest.raises(ValueError, match=r"line 1: objective is not finite"):
            parse_solution_text(f"objective={value}\nx=1\n", self.PROB)

    def test_malformed_lines_name_the_line(self):
        with pytest.raises(ValueError, match=r"line 2: could not convert .*'abc'"):
            parse_solution_text("x=1\nobjective=abc\n", self.PROB)
        with pytest.raises(ValueError, match=r"line 1: could not convert .*'one'"):
            parse_solution_text("y=one\n", self.PROB)
        with pytest.raises(ValueError, match=r"line 3: unknown variable 'z'"):
            parse_solution_text("x=1\n\nz=2\n", self.PROB)
        with pytest.raises(ValueError, match=r"line 1: expected name=value"):
            parse_solution_text("x 1\n", self.PROB)


SOLUTION_MUTANTS = ["", "=", "x", "v0", "v0=", "=1", "status", "objective", "nan", "inf",
                    "-inf", "1e999", "abc", "2.5", "-1", "#"]


@given(lp_problems(), st.data(),
       st.lists(st.tuples(st.sampled_from(["drop", "dup", "line", "key", "value"]),
                          st.integers(0, 10 ** 6), st.sampled_from(SOLUTION_MUTANTS)),
                max_size=3))
@settings(max_examples=200, deadline=None)
def test_solution_round_trips_or_raises_value_error(prob, data, mutations):
    x = data.draw(st.lists(finite, min_size=prob.n_vars, max_size=prob.n_vars))
    objective = data.draw(st.one_of(st.none(), finite))
    status = data.draw(st.one_of(st.none(), st.sampled_from(["optimal", "infeasible"])))
    lines = [] if status is None else [f"status={status}"]
    if objective is not None:
        lines.append(f"objective={objective!r}")
    lines += [f"{name}={val!r}" for name, val in zip(prob.var_names, x)]
    got_status, got_x, got_objective = parse_solution_text("\n".join(lines), prob)
    assert got_status == (status or "optimal")
    assert got_x.tolist() == x and got_objective == objective

    for op, at, token in mutations:
        if not lines:
            break
        i = at % len(lines)
        key, _, val = lines[i].partition("=")
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "line":
            lines[i] = token
        elif op == "key":
            lines[i] = f"{token}={val}"
        else:
            lines[i] = f"{key}={token}"
    try:
        _, got_x, got_objective = parse_solution_text("\n".join(lines), prob)
    except ValueError:
        return
    assert np.all(np.isfinite(got_x))
    assert got_objective is None or np.isfinite(got_objective)

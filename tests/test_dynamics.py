"""Relative-form dynamics: right-hand sides and RK4 integration."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (coupled_system, euclid_lagrangian, euclid_system,
                     quartic_lagrangian, reference_csv, scaled_momentum_force)
from nslab import (CotangentState, ForceField, HamiltonianModel,
                   LagrangianModel, NewtonianSystem, TangentState,
                   integrate, integrate_batch, legendre)
from nslab import dynamics
from nslab.cli import main
from nslab.dynamics import rhs_p_array, rhs_v_array, write_csv
from nslab.errors import DegenerateOmega, ValidationError


class TestRhsMomentum:
    def test_unit_momentum(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, dp, _ = rhs_p_array(sys0, np.array([0.3, -0.1]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(dx, [1.0, 0.0])
        np.testing.assert_allclose(dp, [0.0, 0.0])

    def test_scaling_by_denominator(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, _, _ = rhs_p_array(sys0, np.zeros(2), np.array([2.0, 0.0]))
        np.testing.assert_allclose(dx, [0.5, 0.0])

    def test_force_enters_directly(self):
        sysf = euclid_system(2, scaled_momentum_force(2))
        _, dp, _ = rhs_p_array(sysf, np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(dp, [0.1, 0.0])

    def test_degenerate_omega(self):
        sys0 = euclid_system(2, ["0", "0"])
        with pytest.raises(DegenerateOmega):
            rhs_p_array(sys0, np.zeros(2), np.zeros(2))


class TestRhsVelocity:
    def test_euclid(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, dv = rhs_v_array(sys0, np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(dx, [1.0, 0.0])
        np.testing.assert_allclose(dv, [0.0, 0.0])

    def test_potential_gives_scaled_gradient_force(self):
        lag = LagrangianModel(2, "0.5*(v1^2+v2^2) - (0.4*x1^2 + sin(x2))")
        system = NewtonianSystem(HamiltonianModel(lag.n, lag),
                                 ForceField.zero(2))
        x = np.array([0.5, 0.2])
        v = np.array([1.0, -0.5])
        _, dv = rhs_v_array(system, x, v)
        grad_u = np.array([0.8 * x[0], np.cos(x[1])])
        omega = float(v @ v)
        np.testing.assert_allclose(dv, -grad_u / omega, atol=1e-12)

    def test_conjugate_to_momentum_form(self):
        system = coupled_system()
        lag = system.lagrangian
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=2)
            v = rng.normal(size=2) + 0.8
            dx_v, dv = rhs_v_array(system, x, v)
            p = lag.lv(x, v)
            dx_p, dp, _ = rhs_p_array(system, x, p)
            np.testing.assert_allclose(dx_v, dx_p, atol=1e-9)
            # chain rule: dp = Lvx dx + Lvv dv along the motion
            dp_from_v = lag.lvx(x, v) @ dx_v + lag.lvv(x, v) @ dv
            np.testing.assert_allclose(dp_from_v, dp, atol=1e-9)


class TestIntegrate:
    def test_straight_line(self):
        sys0 = euclid_system(2, ["0", "0"])
        tr = integrate(sys0, CotangentState(np.zeros(2), np.array([1.0, 0.0])), 1.0, 1e-3)
        np.testing.assert_allclose(tr.xs[-1], [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(tr.fibers[-1], [1.0, 0.0], atol=1e-12)

    def test_energy_conserved_without_force(self):
        lag = LagrangianModel(2, "0.5*(v1^2+v2^2) - (0.3*sin(x1) + 0.2*x2^2)")
        H = HamiltonianModel(lag.n, lag)
        system = NewtonianSystem(H, ForceField.zero(2))
        tr = integrate(system, CotangentState(np.array([0.1, 0.2]), np.array([1.0, 0.5])),
                       1.0, 1e-3)
        values = [H.partials(x, p, order=0).value
                  for x, p in zip(tr.xs[::100], tr.fibers[::100])]
        assert max(abs(v - values[0]) for v in values) <= 1e-10

    def test_representation_consistency(self):
        for lag in (euclid_lagrangian(2), quartic_lagrangian(2)):
            for force in (["0", "0"], scaled_momentum_force(2)):
                system = NewtonianSystem(HamiltonianModel(lag.n, lag),
                                         ForceField(2, force))
                x0 = np.array([0.0, 0.1])
                v0 = np.array([1.2, -0.3])
                trv = integrate(system, TangentState(x0, v0), 1.0, 1e-3)
                trp = integrate(system, legendre(lag, TangentState(x0, v0)), 1.0, 1e-3)
                worst = 0.0
                for k in range(0, len(trv.t), 50):
                    pk = lag.lv(trv.xs[k], trv.fibers[k])
                    worst = max(worst, np.abs(pk - trp.fibers[k]).max(),
                                np.abs(trv.xs[k] - trp.xs[k]).max())
                assert worst <= 1e-6

    def test_time_reversal(self):
        sys0 = euclid_system(2, ["0", "0"])
        start = CotangentState(np.array([0.2, -0.4]), np.array([0.8, 0.6]))
        fwd = integrate(sys0, start, 1.0, 1e-3)
        back = integrate(sys0, CotangentState(fwd.xs[-1], -fwd.fibers[-1]), 1.0, 1e-3)
        np.testing.assert_allclose(back.xs[-1], start.x, atol=1e-9)
        np.testing.assert_allclose(-back.fibers[-1], start.p, atol=1e-9)

    def test_halving_step_shrinks_error_sixteen_fold(self):
        system = coupled_system()
        start = CotangentState(np.array([0.1, -0.2]), np.array([1.1, 0.6]))
        ref = integrate(system, start, 1.0, 1.0 / 3200).xs[-1]
        e1 = np.abs(integrate(system, start, 1.0, 0.02).xs[-1] - ref).max()
        e2 = np.abs(integrate(system, start, 1.0, 0.01).xs[-1] - ref).max()
        assert 12.0 <= e1 / e2 <= 20.0

    def test_rhs_errors_carry_time(self):
        # force drives the momentum through zero: omega degenerates mid-run
        system = euclid_system(2, ["0-1", "0"])
        with pytest.raises(DegenerateOmega) as err:
            integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.0])),
                      3.0, 1e-2)
        assert "t=" in str(err.value)

    def test_step_validation(self):
        sys0 = euclid_system(2, ["0", "0"])
        with pytest.raises(ValidationError):
            integrate(sys0, CotangentState(np.zeros(2), np.ones(2)), 1.0, -1e-3)


class TestBatch:
    def test_matches_single_trajectories_bitwise(self):
        system = euclid_system(2, scaled_momentum_force(2))
        rng = np.random.default_rng(1)
        X0 = rng.normal(size=(5, 2))
        P0 = rng.normal(size=(5, 2)) + 0.5
        t, xs, ps = integrate_batch(system, X0, P0, 0.5, 1e-2)
        for b in range(5):
            tr = integrate(system, CotangentState(X0[b], P0[b]), 0.5, 1e-2)
            assert np.array_equal(tr.xs, xs[:, b])
            assert np.array_equal(tr.fibers, ps[:, b])


class TestCsvExport:
    @staticmethod
    def simulate(tmp_path, name, force, t_end):
        # trajectory.csv is written by the simulate subcommand through emit_csv
        doc = {"model": {"dimension": 2, "lagrangian": "0.5*(v1^2+v2^2)"}, "force": force,
               "run": {"t_end": t_end, "step": 1e-2, "init": {"x": [0, 0], "p": [1, 1]}}}
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "trajectory.csv").read_text(encoding="utf-8")

    def test_header_and_shape(self, tmp_path):
        sys0 = euclid_system(2, ["0", "0"])
        tr = integrate(sys0, CotangentState(np.zeros(2), np.ones(2)), 0.1, 1e-2)
        lines = self.simulate(tmp_path, "a", ["0", "0"], 0.1).strip().split("\n")
        assert lines[0] == "t,x1,x2,p1,p2"
        assert len(lines) == len(tr.t) + 1

    def test_deterministic_bytes(self, tmp_path):
        out = [self.simulate(tmp_path, name, scaled_momentum_force(2), 0.2) for name in "ab"]
        assert out[0] == out[1]


# floats whose text is easy to get wrong when cells share a formatted key:
# both zeros, subnormals, values near the limits of the range and near 1e16,
# where str switches to exponent form
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
           1e-300, -1e-300, 1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
           0.1, 1 / 3, 1.0, -1.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


# a column's cells by dtype: small pools besides the full ranges, so that
# values repeat within and across chunks, and the same value (3, 3.0) is
# written as an int64, a float64 and an object cell
CELLS = {"int": st.one_of(st.sampled_from([0, 1, -1, 3, 2**63 - 1, -2**63]),
                          st.integers(-2**63, 2**63 - 1)),
         "float": st.one_of(st.sampled_from([*SPECIAL, 3.0]), FLOATS),
         "object": st.one_of(st.just(""), st.sampled_from([3, 3.0]), FLOATS)}
DTYPES = {"int": np.int64, "float": np.float64, "object": object}


@st.composite
def csv_chunks(draw):
    """A header width and chunks of rows of that width.  Each chunk draws
    its own row count (0 too), its own dtype per column (int64, float64 or
    object) and its own split of the columns into blocks: a block is a run
    of adjacent columns of one dtype, 1-D if one column wide or 2-D, and a
    float block may be a transposed view."""
    width = draw(st.integers(1, 4))
    chunks = []
    for _ in range(draw(st.integers(0, 6))):
        rows = draw(st.integers(0, 6))
        kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
        cuts = [k for k in range(1, width) if kinds[k] != kinds[k - 1] or draw(st.booleans())]
        blocks = []
        for lo, hi in zip([0, *cuts], [*cuts, width]):
            kind = kinds[lo]
            cells = draw(st.lists(CELLS[kind], min_size=rows * (hi - lo),
                                  max_size=rows * (hi - lo)))
            block = np.array(cells, dtype=DTYPES[kind])
            if kind == "float" and draw(st.booleans()):
                block = block.reshape(hi - lo, rows).T
            else:
                block = block.reshape(rows, hi - lo)
            blocks.append(block[:, 0] if hi - lo == 1 and draw(st.booleans()) else block)
        chunks.append(blocks)
    return width, chunks


class TestWriteCsv:
    @pytest.mark.parametrize("chunk", [1, 3, 5, 4096])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_chunks())
    @example(case=(1, [[np.array([0.0, -0.0, 0.0, -0.0])]]))
    # one column written as int64, then float64 and object: 3, 3.0, 3
    @example(case=(1, [[np.array([3, 3])], [np.array([3.0])], [np.array([3], dtype=object)]]))
    def test_bytes_are_str_of_every_cell(self, tmp_path, chunk, case):
        width, chunks = case
        header = [f"c{k}" for k in range(width)]
        path = str(tmp_path / "out.csv")
        with mock.patch.object(dynamics, "CSV_CHUNK", chunk):
            write_csv(path, header, chunks)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == reference_csv(header, *chunks)
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_each_block_is_formatted_once_per_window(self, tmp_path):
        # 600 steps of 7 rows, as shift hands them over: a time repeated on
        # each row, the node indices, and two columns whose values recur
        # across steps
        values = np.linspace(-1.0, 1.0, 13)
        chunks = [[np.full(7, 0.001 * (k // 3)), np.arange(7),
                   values[(np.arange(14) + k) % 13].reshape(7, 2)] for k in range(600)]
        header = ["t", "node", "phi1", "phi2"]
        path = str(tmp_path / "out.csv")
        with mock.patch.object(dynamics, "_columns", wraps=dynamics._columns) as columns:
            write_csv(path, header, chunks)
        windows = -(-600 * 7 // dynamics.CSV_CHUNK)
        assert windows == 2 and columns.call_count == 3 * windows
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == reference_csv(header, *chunks)

    @staticmethod
    def failing_chunks():
        yield [np.arange(3.0)]
        raise RuntimeError("chunk failed")

    def test_a_failure_partway_leaves_neither_the_file_nor_a_part(self, tmp_path):
        path = str(tmp_path / "out.csv")
        with mock.patch.object(dynamics, "CSV_CHUNK", 1), \
                pytest.raises(RuntimeError, match="chunk failed"):
            write_csv(path, ["a"], self.failing_chunks())
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("header, chunks, match", [
        (["a"], [[np.arange(3.0)], [np.zeros((2, 2)), np.zeros(3)]], r"have \[2, 3\] rows"),
        (["a", "b", "c"], [[np.arange(3.0), np.zeros((3, 1))]], "2 columns, the header 3"),
    ], ids=["row-counts", "header-width"])
    def test_a_chunk_that_does_not_fit_raises_and_leaves_no_file(self, tmp_path, header,
                                                                 chunks, match):
        path = str(tmp_path / "out.csv")
        with pytest.raises(ValueError, match=match):
            write_csv(path, header, chunks)
        assert os.listdir(tmp_path) == []

    def test_a_failure_leaves_an_earlier_file_as_it_was(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a\n1.0\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="chunk failed"):
            write_csv(str(path), ["a"], self.failing_chunks())
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_text(encoding="utf-8") == "a\n1.0\n"

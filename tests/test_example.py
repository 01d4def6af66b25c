import itertools
import math
import random
import weakref

import numpy as np
import pytest

from skewchain import chains, cli, example
from skewchain.chains import (
    Reading,
    chain_stage,
    compute_chain,
    lattice_order,
    mixed_columns,
    optimize_batch,
    stage_from_frames,
    sum_transfer,
)
from skewchain.example import (
    CSV_HEADER,
    SweepTable,
    closed_forms,
    discrepancy_report,
    example_channels,
    rho_theta,
    sweep,
    write_discrepancy_csv,
    write_sweep_csv,
)
from skewchain.linalg import max_abs_each
from skewchain.objects import Convention, channel_stack, completeness_residual, density_stack
from skewchain.skew import frame_stack

FIELDS = CSV_HEADER.split(",")


def column(table, name):
    return table.columns[:, FIELDS.index(name)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRhoTheta:
    def test_midpoint_is_maximally_mixed(self):
        assert max_abs_each((rho_theta(0.5).rho - np.eye(4) / 4)[None])[0] == 0.0

    def test_endpoint_spectrum(self):
        for theta in (0.0, 1.0):
            eigs = np.linalg.eigvalsh(rho_theta(theta).rho)
            assert np.allclose(eigs, [0, 0, 0.5, 0.5], atol=1e-12)

    def test_off_diagonals(self):
        dm = rho_theta(0.75)
        assert dm.rho[0, 1] == pytest.approx(0.5 / 4)
        assert dm.rho[2, 3] == pytest.approx(0.5 / 4)
        assert dm.rho[0, 2] == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rho_theta(1.2)
        with pytest.raises(ValueError):
            rho_theta(-0.1)


class TestExampleChannels:
    def test_p_zero_first_operator_is_identity(self):
        n1, _ = example_channels(0.0, 0.5)
        assert max_abs_each((n1.operators[0] - np.eye(4))[None])[0] == 0.0
        assert max_abs_each(n1.operators[1][None])[0] == 0.0

    def test_q_one_first_operator(self):
        _, n2 = example_channels(0.5, 1.0)
        assert max_abs_each((n2.operators[0] - np.diag([0.0, 1.0, 0.0, 1.0]))[None])[0] == 0.0

    def test_row_sum_validation_at_interior_point(self):
        n1, n2 = example_channels(0.5, 0.5)
        assert completeness_residual(n1.operators, Convention.ROW_SUM) <= 1e-12
        assert completeness_residual(n2.operators, Convention.ROW_SUM) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            example_channels(1.5, 0.5)
        with pytest.raises(ValueError):
            example_channels(0.5, -0.5)

    def test_whole_unit_square_validates(self):
        for p in np.linspace(0, 1, 6):
            for q in np.linspace(0, 1, 6):
                example_channels(float(p), float(q))  # raises CompletenessError on failure


class TestClosedForms:
    def test_worked_point(self):
        forms = closed_forms(1.0, 0.5, 0.5)
        assert forms["eq20"] == pytest.approx(0.02144660940672623, abs=1e-12)
        assert forms["eq21"] == pytest.approx(0.5857864376269049, abs=1e-12)
        assert forms["eq22"] == pytest.approx(0.0031407832308854556, abs=1e-12)
        assert forms["eq23"] == pytest.approx(0.016870152862766035, abs=1e-12)
        assert forms["eq24"] == pytest.approx(0.015142074130636667, abs=1e-12)
        assert forms["eq25"] == pytest.approx(0.00763593008667648, abs=1e-12)

    def test_incoherent_point_vanishes(self):
        forms = closed_forms(0.5, 0.3, 0.8)
        for name in ("eq20", "eq21", "eq22", "eq23"):
            assert forms[name] == pytest.approx(0.0, abs=1e-15)

    def test_eq20_matches_pipeline_product_on_grid(self):
        for theta in (0.0, 0.2, 0.7, 1.0):
            for p in (0.0, 0.4, 1.0):
                for q in (0.1, 0.9):
                    rho = rho_theta(theta)
                    n1, n2 = example_channels(p, q)
                    stage = compute_chain(rho, n1, n2)
                    forms = closed_forms(theta, p, q)
                    assert stage.products[0] == pytest.approx(forms["eq20"], abs=1e-10)
                    assert stage.cross_terms[0] == pytest.approx(forms["eq22"], abs=1e-10)

    def test_eq21_is_twice_the_pipeline_sum(self):
        rho = rho_theta(1.0)
        n1, n2 = example_channels(0.5, 0.5)
        total = compute_chain(rho, n1, n2).sums[0]
        forms = closed_forms(1.0, 0.5, 0.5)
        assert total == pytest.approx(0.2928932188134524, abs=1e-12)
        assert forms["eq21"] == pytest.approx(2.0 * total, abs=1e-12)

    def test_eq23_matches_product_reading_s21(self):
        rho = rho_theta(0.9)
        n1, n2 = example_channels(0.3, 0.6)
        s21 = compute_chain(rho, n1, n2).lattices[Reading.PRODUCT][0, 0]
        forms = closed_forms(0.9, 0.3, 0.6)
        assert s21 == pytest.approx(forms["eq23"], abs=1e-10)


class TestSymmetries:
    def test_theta_reflection_invariance(self):
        for theta in (0.0, 0.15, 0.4):
            a = compute_chain(rho_theta(theta), *example_channels(0.35, 0.8))
            b = compute_chain(rho_theta(1.0 - theta), *example_channels(0.35, 0.8))
            for column in ("products", "sums", "cross_terms"):
                assert getattr(a, column)[0] == pytest.approx(getattr(b, column)[0], abs=1e-10)

    def test_pq_swap_invariance_of_product(self):
        # swapping (p, q) together with the channel roles fixes the product;
        # the cross term is not symmetric and must not be asserted here
        rho = rho_theta(1.0)
        n1a, n2a = example_channels(0.3, 0.7)
        n1b, n2b = example_channels(0.7, 0.3)
        a = compute_chain(rho, n1a, n2a)
        b = compute_chain(rho, n1b, n2b)
        assert a.products[0] == pytest.approx(b.products[0], abs=1e-10)


class TestSweep:
    def test_row_order_is_lexicographic(self):
        table = sweep([0.0, 1.0, 0.5], [0.2, 0.8], [0.1], t_grid=[0.0, 1.0])
        keys = [tuple(row) for row in table.columns[:, :4].tolist()]
        assert keys == sorted(keys)
        assert len(table) == 3 * 2 * 1 * 2

    def test_single_point_matches_direct_computation(self):
        table = sweep([1.0], [0.5], [0.5])
        assert len(table) == 1
        row = dict(zip(FIELDS, table.columns[0].tolist()))
        assert row["product"] == pytest.approx(0.02144660940672623, abs=1e-12)
        assert row["lemma1"] == pytest.approx(0.0031407832308854556, abs=1e-12)
        assert row["perm_opt"] >= row["S21"] - 1e-12
        assert table.hard_failures() == 0

    def test_theta_midpoint_row_is_all_zero(self):
        table = sweep([0.5], [0.5], [0.5])
        row = dict(zip(FIELDS, table.columns[0].tolist()))
        assert row["product"] == 0.0
        assert row["sum"] == 0.0
        assert row["perm_opt"] == 0.0
        assert table.hard_failures() == 0

    def test_theta_curve_extremes(self):
        thetas = [i / 10 for i in range(11)]
        table = sweep(thetas, [0.5], [0.5])
        products = dict(zip(column(table, "theta").tolist(), column(table, "product").tolist()))
        sums = dict(zip(column(table, "theta").tolist(), column(table, "sum").tolist()))
        assert products[0.5] == 0.0 and sums[0.5] == 0.0
        assert max(products.values()) == pytest.approx(products[0.0], abs=1e-12)
        assert max(products.values()) == pytest.approx(products[1.0], abs=1e-12)

    def test_hard_invariants_hold_on_coarse_grid(self):
        grid = [i / 4 for i in range(5)]
        table = sweep([1.0], grid, grid)
        assert table.hard_failures(tol=1e-9) == 0

    def test_rows_satisfy_full_verification(self):
        from skewchain.chains import HARD_CHECK_NAMES, verdict_columns

        table = sweep([0.0, 0.7, 1.0], [0.3, 1.0], [0.0, 0.6])
        for theta, p, q in table.columns[:, :3].tolist():
            n1, n2 = example_channels(p, q)
            verdict = verdict_columns(compute_chain(rho_theta(theta), n1, n2), 1e-9)
            failed = {name for name, ok in zip(verdict.names, verdict.passed[0]) if not ok}
            assert not failed & set(HARD_CHECK_NAMES), failed

    def test_rejects_empty_or_out_of_range(self):
        with pytest.raises(ValueError):
            sweep([], [0.5], [0.5])
        with pytest.raises(ValueError):
            sweep([1.5], [0.5], [0.5])


class TestSweepCsv:
    def test_header_and_roundtrip(self, tmp_path):
        table = sweep([1.0], [0.0, 0.5], [0.5], t_grid=[1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(table)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_HEADER.split(","))
            [float(f) for f in fields]  # every field parses as a number

    def test_twelve_significant_digits(self, tmp_path):
        table = sweep([1.0], [0.5], [0.5])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        row = path.read_text().splitlines()[1].split(",")
        product = float(row[CSV_HEADER.split(",").index("product")])
        assert product == pytest.approx(0.02144660940672623, abs=1e-11)

    def test_deterministic_bytes(self, tmp_path):
        table1 = sweep([1.0], [0.0, 1.0], [0.5])
        table2 = sweep([1.0], [0.0, 1.0], [0.5])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(table1, p1)
        write_sweep_csv(table2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDiscrepancyReport:
    def test_structure_and_ratios(self):
        grid = [(t, p, q) for t in (0.0, 0.3, 1.0) for p in (0.2, 0.8) for q in (0.4, 0.9)]
        report = discrepancy_report(grid)
        assert report.numeric.shape == (len(grid), 6)
        # eq20/eq22/eq23 agree with the pipeline, eq21 runs at exactly twice it
        assert report.fitted_ratios["eq20"] == pytest.approx(1.0, abs=1e-9)
        assert report.fitted_ratios["eq22"] == pytest.approx(1.0, abs=1e-9)
        assert report.fitted_ratios["eq23"] == pytest.approx(1.0, abs=1e-9)
        assert report.fitted_ratios["eq21"] == pytest.approx(2.0, abs=1e-9)
        # eq24/eq25 are not a constant multiple of the pipeline values
        assert "eq24" not in report.fitted_ratios
        assert "eq25" not in report.fitted_ratios

    def test_eq20_deviation_small_everywhere(self):
        grid = [(t, p, p) for t in np.linspace(0, 1, 5) for p in np.linspace(0, 1, 5)]
        report = discrepancy_report(grid)
        assert (report.abs_dev[:, [0, 2]] <= 1e-10).all()  # eq20 and eq22

    def test_csv_emission(self, tmp_path):
        report = discrepancy_report([(1.0, 0.5, 0.5)])
        path = tmp_path / "disc.csv"
        write_discrepancy_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("formula,theta,p,q,numeric,printed")
        assert len(lines) == 1 + 6
        eq21 = next(line for line in lines if line.startswith("eq21"))
        fields = eq21.split(",")
        assert float(fields[-1]) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            discrepancy_report([])

    @pytest.mark.parametrize("points, message", [
        ([(0.2, 0.3, 0.4), (0.5, 1.5, 0.5)], "p must lie in [0, 1], got 1.5"),
        ([(0.2, 0.3, 0.4), (0.5, 0.5, -0.25)], "q must lie in [0, 1], got -0.25"),
        ([(0.2, 0.3, 0.4), (math.nan, 0.5, 0.5)], "theta must lie in [0, 1], got nan"),
        ([(0.5, 0.5)], "expected (theta, p, q) rows, got an array of shape (1, 2)"),
        ([(1.5, 0.5, 0.5)], "theta must lie in [0, 1], got 1.5"),
        ([(0.5, -0.1, 0.5)], "p must lie in [0, 1], got -0.1"),
        ([(0.5, 0.5, math.inf)], "q must lie in [0, 1], got inf")])
    def test_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError) as info:
            discrepancy_report(points)
        assert str(info.value) == message
        if len(points[-1]) == 3:  # closed_forms checks the last, bad point as the report does
            with pytest.raises(ValueError) as info:
                closed_forms(*points[-1])
            assert str(info.value) == message


# ---------------------------------------------------------------------------
# Per-point oracles for the stacked sweep and report: every grid point built
# and computed on its own, as a stack of one (``compute_chain``).


def oracle_sweep_rows(thetas, ps, qs, ts, reading):
    """The sweep's CSV rows, each built from its point's own chain, optimum
    and closed forms, and the scalar mixes of ``oracle_mixed_bound``."""
    rows = []
    for theta in sorted(thetas):
        for p in sorted(ps):
            for q in sorted(qs):
                rho = rho_theta(theta)
                n1, n2 = example_channels(p, q)
                c = compute_chain(rho, n1, n2)
                product, total, cross = (x[0].item() for x in (c.products, c.sums, c.cross_terms))
                (best,), _ = optimize_batch(c, reading)
                f = closed_forms(theta, p, q)
                for t in sorted(ts):
                    mp, ms = oracle_mixed_bound(product, total, best.item(), t)
                    rows.append([theta, p, q, t, product, total, *c.i_values[0].tolist(),
                                 *c.lattices[reading][0, :3].tolist(),  # S21, S31, S32
                                 cross, best.item(), mp, ms, *f.values()])
    return rows


def oracle_transfer(x):
    """The AM-GM transfer as a scalar formula: ``2 sqrt(x)``, and 0 for x <= 0 or NaN."""
    return 2.0 * math.sqrt(x) if x > 0.0 else 0.0


def oracle_mixed_bound(product, total, value, t):
    """``mixed_columns``'s two convex mixes of scalars, the sum side through
    ``oracle_transfer``."""
    return (1.0 - t) * product + t * value, (1.0 - t) * total + t * oracle_transfer(value)


def oracle_row_hard_failures(fields, tol):
    """Names of the hard invariants one sweep CSV row violates."""
    row = dict(zip(FIELDS, fields))
    failures = []
    if abs(row["product"] - row["eq20"]) > tol:
        failures.append("product_vs_eq20")
    if abs(row["lemma1"] - row["eq22"]) > tol:
        failures.append("cross_term_vs_eq22")
    seq = [row[name] for name in ("product", "S21", "S31", "S32", "lemma1")]
    if any(seq[i + 1] > seq[i] + tol for i in range(len(seq) - 1)):
        failures.append("chain_order")
    i_values = [row[f"I{m}"] for m in range(1, 5)]
    if any(i_values[m + 1] > i_values[m] + tol for m in range(len(i_values) - 1)):
        failures.append("i_chain_order")
    return failures


# Tie-heavy values {0, 1/2, 1} with duplicates and unsorted input order.
TIE_THETAS = [1.0, 0.0, 0.5, 1.0]
TIE_PS = [0.5, 0.0, 1.0, 0.5]
TIE_QS = [1.0, 0.5, 0.0, 0.5]


class TestStackedPassesMatchPointOracle:
    @pytest.mark.parametrize("reading", list(Reading))
    @pytest.mark.parametrize("block", [None, 5])
    def test_sweep(self, monkeypatch, reading, block):
        if block is not None:  # several blocks per theta, the last one partial
            monkeypatch.setattr(example, "_BLOCK", block)
        ts = [1.0, 0.0, 0.5]
        table = sweep(TIE_THETAS, TIE_PS, TIE_QS, t_grid=ts, reading=reading)
        rows = oracle_sweep_rows(TIE_THETAS, TIE_PS, TIE_QS, ts, reading)
        assert same_bits(table.columns, np.array(rows))

    @pytest.mark.parametrize("reading", list(Reading))
    @pytest.mark.parametrize("block", [None, 5])
    def test_hard_failures_match_row_oracle(self, monkeypatch, reading, block):
        if block is not None:
            monkeypatch.setattr(example, "_BLOCK", block)
        ts = [1.0, 0.0, 0.5]
        table = sweep(TIE_THETAS, TIE_PS, TIE_QS, t_grid=ts, reading=reading)
        rows = oracle_sweep_rows(TIE_THETAS, TIE_PS, TIE_QS, ts, reading)
        counts = [table.hard_failures(tol) for tol in (1e-9, 1e-16, 0.0)]
        assert counts == [sum(len(oracle_row_hard_failures(row, tol)) for row in rows)
                          for tol in (1e-9, 1e-16, 0.0)]
        assert counts[-1] > 0

    def test_mixed_columns_match_mixed_bound_on_any_optimum(self, monkeypatch):
        # optima no valid instance reaches: NaN, negative, -0.0, subnormal and
        # infinite, put in the stages' S21 column, which perm_opt reads; the
        # sweep, mixed_columns on scalars and sum_transfer all transfer them as
        # the scalar formula does
        optima = [math.nan, -1e-3, -0.0, 0.0, 5e-324, 0.25, math.inf, -math.inf]
        real = example._chain_blocks

        def blocks(points):
            for span, stage in real(points):
                lattices = {reading: lattice.copy() for reading, lattice in stage.lattices.items()}
                for lattice in lattices.values():
                    lattice[:, 0] = optima[:len(lattice)]
                yield span, stage._replace(lattices=lattices)

        monkeypatch.setattr(example, "_chain_blocks", blocks)
        table = sweep([1.0], [0.2, 0.5, 0.7, 0.9], [0.1, 0.5], t_grid=[0.0, 0.3, 0.5, 1.0])
        rows = [dict(zip(FIELDS, row)) for row in table.columns.tolist()]
        expected = [oracle_mixed_bound(r["product"], r["sum"], r["perm_opt"], r["t"])
                    for r in rows]
        got = [mixed_columns(r["product"], r["sum"], r["perm_opt"], r["t"]) for r in rows]
        assert same_bits(column(table, "perm_opt"), np.repeat(optima, 4))
        assert same_bits(table.columns[:, [FIELDS.index("mixed_product"),
                                           FIELDS.index("mixed_sum")]], np.array(expected))
        assert [tuple(repr(float(v)) for v in pair) for pair in got] == [
            tuple(map(repr, pair)) for pair in expected]  # scalars, bit for bit
        s_values = list(itertools.islice(itertools.cycle(optima), len(lattice_order(5))))
        for values in (optima, s_values):  # an I-chain row and an S-lattice row
            assert [repr(v) for v in sum_transfer(values).tolist()] == [
                repr(oracle_transfer(v)) for v in values]

    def test_hard_failures_on_nan_entries(self):
        rng = np.random.default_rng(11)
        columns = np.concatenate([rng.random((300, len(FIELDS))),
                                  rng.integers(0, 10, (300, len(FIELDS))) / 10.0])
        columns[rng.random(columns.shape) < 0.15] = np.nan
        columns[:5] = np.nan  # rows that are NaN throughout
        table = SweepTable(columns=columns)
        for tol in (0.0, 1e-9, 0.1, 0.3, 1.0):
            assert table.hard_failures(tol) == sum(
                len(oracle_row_hard_failures(row, tol)) for row in columns.tolist())
        assert table.hard_failures(1.0) == 0 < table.hard_failures(0.1)


class TestFactoredFrames:
    """``_chain_blocks`` builds each frame once per (theta, p) or (theta, q)
    factor; each block's frames, and its stage, equal those of the fully
    expanded stacks, one state and one channel pair per point, bit for bit."""

    @staticmethod
    def expanded_stage(points):
        _, roots = density_stack(example._rho_stack(points[:, 0]), tol=1e-12)
        e, f = (channel_stack(build(points[:, column]), convention=Convention.ROW_SUM, tol=1e-12)
                for build, column in ((example._p_family_stack, 1), (example._q_family_stack, 2)))
        return (frame_stack(roots, e), frame_stack(roots, f)), chain_stage(roots, e, f)

    @pytest.mark.parametrize("block", [None, 5])
    def test_blocks_match_the_expanded_stacks(self, monkeypatch, block):
        if block is not None:  # several blocks, the last one partial
            monkeypatch.setattr(example, "_BLOCK", block)
        calls = []

        def recorded(e, f, passes):
            calls.append((e, f, passes))
            return stage_from_frames(e, f, passes)

        monkeypatch.setattr(example, "stage_from_frames", recorded)
        # unsorted, with repeated rows: theta = 1/2 (zero frames), p and q in {0, 1}
        grid = list(itertools.product((0.5, 1.0, 0.2), (1.0, 0.0, 0.7), (0.0, 1.0, 0.4)))
        grid += grid[3:9] + [(0.5, 0.0, 0.0), (1.0, 1.0, 1.0)]
        random.Random(4).shuffle(grid)
        points = np.array(grid)
        spans = []
        for span, stage in example._chain_blocks(points):
            (e, f, passes), = calls  # one builder call, its frames one per family
            e_rows, f_rows = passes[len(spans)]
            spans.append(span)
            want_frames, want = self.expanded_stage(points[span])
            assert all(map(same_bits, (e[e_rows], f[f_rows]), want_frames))
            assert same_bits(stage.i_values, want.i_values)
            for name in ("sums", "products", "cross_terms"):
                assert same_bits(np.array(getattr(stage, name)),
                                 np.array(getattr(want, name))), name
            for reading in Reading:
                assert same_bits(stage.tables[reading], want.tables[reading])
                assert same_bits(stage.lattices[reading], want.lattices[reading])
        assert np.concatenate([np.arange(len(points))[span] for span in spans]).tolist() == \
            list(range(len(points)))
        assert len(spans) == (1 if block is None else -(-len(points) // block))
        assert (len(e), len(f)) == (len({(t, p) for t, p, _ in grid}),
                                    len({(t, q) for t, _, q in grid}))

    def test_c_order_frames_are_freed_once_a_stage_is_yielded(self, monkeypatch):
        # the builder copies each frame stack to column-major form, so the
        # row-major stacks must not outlive the first pass
        refs = []

        def tracked(roots, ops):
            frames = frame_stack(roots, ops)
            refs.append(weakref.ref(frames))
            return frames

        monkeypatch.setattr(example, "_BLOCK", 3)  # several passes
        monkeypatch.setattr(example, "frame_stack", tracked)
        points = np.array(list(itertools.product((0.2, 0.7), (0.0, 0.4), (1.0, 0.3))))
        blocks = example._chain_blocks(points)
        next(blocks)
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
        assert len(list(blocks)) == 2


class TestBuildsEachInputOnce:
    """Each distinct theta, p and q goes into its stacked builder exactly once."""

    @staticmethod
    def counting(monkeypatch):
        # the matrix builders that the validated stacks are made from
        calls = {"_rho_stack": [], "_p_family_stack": [], "_q_family_stack": []}
        for name in calls:
            real = getattr(example, name)

            def builder(inputs, real=real, seen=calls[name]):
                inputs = list(inputs)
                seen.extend(tuple(x) if np.ndim(x) else x for x in inputs)
                return real(inputs)

            monkeypatch.setattr(example, name, builder)
        for name in ("rho_theta", "example_channels"):
            monkeypatch.setattr(example, name, None)  # an object build now fails
        return calls

    def test_sweep(self, monkeypatch):
        calls = self.counting(monkeypatch)
        sweep(TIE_THETAS, TIE_PS, TIE_QS)
        assert sorted(calls["_rho_stack"]) == sorted(set(TIE_THETAS))
        assert sorted(calls["_p_family_stack"]) == sorted(set(TIE_PS))
        assert sorted(calls["_q_family_stack"]) == sorted(set(TIE_QS))

    def test_discrepancy_report(self, monkeypatch):
        calls = self.counting(monkeypatch)
        grid = [(t, p, q) for t in TIE_THETAS for p in TIE_PS for q in TIE_QS]
        discrepancy_report(grid[::-1])
        assert sorted(calls["_rho_stack"]) == sorted(set(TIE_THETAS))
        assert sorted(calls["_p_family_stack"]) == sorted(set(TIE_PS))
        assert sorted(calls["_q_family_stack"]) == sorted(set(TIE_QS))

    def test_sweep_builds_no_chain_or_point(self, monkeypatch):
        calls = self.counting(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a per-point object")

        monkeypatch.setattr(chains, "compute_chain", refuse)
        table = sweep(TIE_THETAS, TIE_PS, TIE_QS, t_grid=[0.0, 1.0])
        assert len(table) == len(TIE_THETAS) * len(TIE_PS) * len(TIE_QS) * 2
        assert sorted(calls["_rho_stack"]) == sorted(set(TIE_THETAS))
        assert sorted(calls["_p_family_stack"]) == sorted(set(TIE_PS))
        assert sorted(calls["_q_family_stack"]) == sorted(set(TIE_QS))

    def test_discrepancy_report_builds_no_chain(self, monkeypatch):
        calls = self.counting(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the report built a per-point chain object")

        monkeypatch.setattr(chains, "compute_chain", refuse)
        grid = [(t, p, q) for t in TIE_THETAS for p in TIE_PS for q in TIE_QS]
        report = discrepancy_report(grid)
        assert report.numeric.shape == (len(grid), 6)
        assert sorted(calls["_rho_stack"]) == sorted(set(TIE_THETAS))
        assert sorted(calls["_p_family_stack"]) == sorted(set(TIE_PS))
        assert sorted(calls["_q_family_stack"]) == sorted(set(TIE_QS))

    def test_example_takes_norms_and_skews_once_per_family(self, monkeypatch, tmp_path):
        # the example-small grids: the surface's 11 (theta, p) and 11 (theta, q)
        # families at theta = 1, the curve's 21 and 21 at p = q = 1/2, and the
        # report's 81 and 81 on its 9 x 9 x 9 subsample
        rows = {"column_norms_sq": [], "channel_skews": []}
        for name, seen in rows.items():
            real = getattr(chains, name)

            def counted(array, real=real, seen=seen):
                seen.append(len(array))
                return real(array)

            monkeypatch.setattr(chains, name, counted)
        argv = ["example", "--theta", "0:1:21", "--p", "0:1:11", "--q", "0:1:11",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        for seen in rows.values():
            assert seen == [11, 11, 21, 21, 81, 81]  # (e, f) per _chain_blocks call
            assert sum(seen[0::2]) == sum(seen[1::2]) == 113

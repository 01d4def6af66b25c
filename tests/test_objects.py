import decimal
import json
import re

import numpy as np
import pytest

from skewchain.errors import (
    CompletenessError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    TraceNotOneError,
)
from skewchain.example import example_channels, rho_theta
from skewchain.linalg import max_abs
from skewchain.objects import (
    Convention,
    apply_channel,
    completeness_residual,
    derive_seed,
    mix_kraus,
    random_channel,
    random_density,
    random_unitary,
    validate_channel,
    validate_density,
)
from skewchain.serialize import (
    _load_document,
    load_channel,
    load_state,
    matrix_from_pairs,
    save_channel,
    save_state,
    write_text_atomic,
)


class TestValidateDensity:
    def test_maximally_mixed(self):
        dm = validate_density(np.eye(4) / 4)
        assert dm.dim == 4
        assert max_abs(dm.sqrt_rho - np.eye(4) / 2) <= 1e-12

    def test_half_theta_state_is_maximally_mixed(self):
        dm = rho_theta(0.5)
        assert max_abs(dm.rho - np.eye(4) / 4) == 0.0

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError) as exc:
            validate_density(np.diag([0.6, 0.6]))
        assert exc.value.deviation == pytest.approx(0.2)

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NotHermitianError):
            validate_density(m)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            validate_density(np.diag([1.5, -0.5]))

    def test_sqrt_cache_squares_back(self):
        dm = random_density(5, 3, seed=9)
        assert max_abs(dm.sqrt_rho @ dm.sqrt_rho - dm.rho) <= 1e-10

    def test_stored_arrays_are_readonly(self):
        dm = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.rho[0, 0] = 1.0


class TestValidateChannel:
    def test_example_e_family_valid_under_both_conventions(self):
        n1, _ = example_channels(0.5, 0.5)
        ops = n1.operators
        validate_channel(ops, Convention.ROW_SUM, tol=1e-12)
        validate_channel(ops, Convention.COLUMN_SUM, tol=1e-12)

    def test_example_f_family_row_sum_only(self):
        _, n2 = example_channels(0.5, 0.5)
        ops = n2.operators
        validate_channel(ops, Convention.ROW_SUM, tol=1e-12)
        with pytest.raises(CompletenessError) as exc:
            validate_channel(ops, Convention.COLUMN_SUM, tol=1e-12)
        # column sums come out as diag(1-q, 1+q, 1-q, 1+q)
        assert exc.value.residual == pytest.approx(0.5)
        assert exc.value.convention == "column_sum"

    def test_identity_channel(self):
        ch = validate_channel([np.eye(3)], Convention.ROW_SUM)
        assert ch.n == 1
        ch = validate_channel([np.eye(3)], Convention.COLUMN_SUM)
        assert ch.dim == 3

    def test_too_many_operators(self):
        ops = [np.eye(2) / np.sqrt(5)] * 5
        with pytest.raises(ValueError):
            validate_channel(ops, Convention.COLUMN_SUM)

    def test_mixed_shapes(self):
        with pytest.raises(DimensionMismatchError):
            validate_channel([np.eye(2), np.eye(3)], Convention.COLUMN_SUM)


class TestApplyChannel:
    def test_identity_channel_preserves_state(self):
        dm = random_density(3, 3, seed=1)
        ch = validate_channel([np.eye(3)], Convention.COLUMN_SUM)
        assert max_abs(apply_channel(ch, dm) - dm.rho) == 0.0

    def test_example_channel_at_p_zero_is_identity(self):
        n1, _ = example_channels(0.0, 0.3)
        dm = rho_theta(0.8)
        assert max_abs(apply_channel(n1, dm) - dm.rho) <= 1e-15

    def test_f_family_at_q_one_brute_force(self):
        # F1 fixes e1, F2 maps e1 to e0; output verified by direct summation
        _, n2 = example_channels(0.5, 1.0)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        out = apply_channel(n2, rho)
        expected = sum(k @ rho @ k.conj().T for k in n2.operators)
        assert max_abs(out - expected) == 0.0
        assert max_abs(out - np.diag([1.0, 1.0, 0.0, 0.0])) <= 1e-15

    def test_output_hermitian(self):
        dm = random_density(4, 2, seed=7)
        ch = random_channel(4, 3, Convention.COLUMN_SUM, seed=8)
        out = apply_channel(ch, dm)
        assert max_abs(out - out.conj().T) <= 1e-12

    def test_trace_preserved_column_sum(self):
        dm = random_density(3, 3, seed=21)
        ch = random_channel(3, 4, Convention.COLUMN_SUM, seed=22)
        assert abs(np.trace(apply_channel(ch, dm)).real - 1.0) <= 1e-10

    def test_row_sum_preserves_trace_of_maximally_mixed(self):
        ch = random_channel(3, 4, Convention.ROW_SUM, seed=23)
        out = apply_channel(ch, np.eye(3) / 3)
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        ch = random_channel(3, 2, Convention.COLUMN_SUM, seed=2)
        with pytest.raises(DimensionMismatchError):
            apply_channel(ch, np.eye(4) / 4)


class TestRandomObjects:
    def test_random_density_d1(self):
        dm = random_density(1, 1, seed=0)
        assert dm.rho[0, 0] == pytest.approx(1.0)

    def test_random_density_determinism(self):
        a = random_density(3, 3, seed=42)
        b = random_density(3, 3, seed=42)
        assert np.array_equal(a.rho, b.rho)

    def test_random_density_rank(self):
        for rank in (1, 2, 3):
            dm = random_density(3, rank, seed=100 + rank)
            eigs = np.linalg.eigvalsh(dm.rho)
            assert int(np.sum(eigs > 1e-12)) == rank

    def test_random_density_invalid_rank(self):
        with pytest.raises(ValueError):
            random_density(3, 0, seed=1)
        with pytest.raises(ValueError):
            random_density(3, 4, seed=1)

    def test_random_unitary_properties(self):
        u = random_unitary(5, seed=17)
        assert max_abs(u.conj().T @ u - np.eye(5)) <= 1e-12
        assert np.array_equal(u, random_unitary(5, seed=17))
        scalar = random_unitary(1, seed=3)
        assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12

    def test_random_channel_completeness(self):
        for conv in (Convention.COLUMN_SUM, Convention.ROW_SUM):
            ch = random_channel(2, 4, conv, seed=11)
            assert completeness_residual(ch.operators, conv) <= 1e-12

    def test_random_channel_single_kraus_is_unitary(self):
        ch = random_channel(3, 1, Convention.COLUMN_SUM, seed=12)
        k = ch.operators[0]
        assert max_abs(k.conj().T @ k - np.eye(3)) <= 1e-12

    def test_random_channel_determinism(self):
        a = random_channel(3, 2, Convention.COLUMN_SUM, seed=5)
        b = random_channel(3, 2, Convention.COLUMN_SUM, seed=5)
        for ka, kb in zip(a.operators, b.operators):
            assert np.array_equal(ka, kb)

    def test_random_channel_invalid_count(self):
        with pytest.raises(ValueError):
            random_channel(2, 5, Convention.COLUMN_SUM, seed=1)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)
        assert derive_seed(42, 3, 1) != derive_seed(42, 3, 2)


class TestMixKraus:
    def test_identity_mixing(self):
        ch = random_channel(3, 2, Convention.COLUMN_SUM, seed=4)
        mixed = mix_kraus(ch, np.eye(2))
        for a, b in zip(ch.operators, mixed.operators):
            assert max_abs(a - b) == 0.0

    def test_exchange_swaps_operators(self):
        n1, _ = example_channels(0.3, 0.3)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        mixed = mix_kraus(n1, swap)
        assert max_abs(mixed.operators[0] - n1.operators[1]) == 0.0
        assert max_abs(mixed.operators[1] - n1.operators[0]) == 0.0

    def test_channel_action_unchanged(self):
        dm = random_density(3, 3, seed=31)
        ch = random_channel(3, 3, Convention.COLUMN_SUM, seed=32)
        u = random_unitary(3, seed=33)
        mixed = mix_kraus(ch, u)
        assert max_abs(apply_channel(ch, dm) - apply_channel(mixed, dm)) <= 1e-10

    def test_mix_then_unmix_roundtrip(self):
        ch = random_channel(4, 3, Convention.COLUMN_SUM, seed=41)
        u = random_unitary(3, seed=42)
        back = mix_kraus(mix_kraus(ch, u), u.conj().T)
        for a, b in zip(ch.operators, back.operators):
            assert max_abs(a - b) <= 1e-12

    def test_rejects_non_unitary(self):
        ch = random_channel(2, 2, Convention.COLUMN_SUM, seed=1)
        with pytest.raises(NotUnitaryError):
            mix_kraus(ch, np.array([[1, 0], [0, 2]], dtype=complex))

    def test_rejects_size_mismatch(self):
        ch = random_channel(2, 2, Convention.COLUMN_SUM, seed=1)
        with pytest.raises(DimensionMismatchError):
            mix_kraus(ch, np.eye(3))


def _float_bits(rng, exponents) -> np.ndarray:
    """Doubles with the given biased exponents (0 is subnormal) and random
    signs and mantissas."""
    exponents = np.asarray(exponents, dtype=np.uint64)
    sign = rng.integers(0, 2, exponents.shape, dtype=np.uint64) << np.uint64(63)
    mantissa = rng.integers(0, 1 << 52, exponents.shape, dtype=np.uint64)
    return (sign | exponents << np.uint64(52) | mantissa).view(np.float64)


def _literal_corpus() -> list:
    """JSON float literals that a decoder must round correctly: the repr of
    random doubles over every finite exponent; long decimals just below, at
    and just above the halfway point between neighbouring doubles (the exact
    ties round to the even mantissa); and edge cases."""
    rng = np.random.default_rng(9309)
    values = _float_bits(rng, np.repeat(np.arange(2047), 8))
    literals = [repr(float(x)) for x in values]
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        ctx.traps[decimal.Inexact] = True  # every tie and nudge below is exact
        for x in values[::8]:
            up = np.nextafter(x, np.inf)
            if not np.isfinite(up):
                continue
            lo, hi = decimal.Decimal(float(x)), decimal.Decimal(float(up))
            tie, nudge = (lo + hi) / 2, (hi - lo).scaleb(-25)
            literals += [str(tie - nudge), str(tie), str(tie + nudge)]
    return literals + ["-0.0", "0", "-0", "1E+2", "1e-400", "4.9406564584124654e-324",
                       "1.7976931348623157e308", "123456789012345678901234567890"]


class TestSerialization:
    def test_decoder_matches_stdlib_json_bit_for_bit(self, tmp_path):
        # the stdlib parser, which the loaders used before, is the oracle
        text = '{"literals": [' + ", ".join(_literal_corpus()) + "]}"
        path = tmp_path / "literals.json"
        path.write_text(text)
        decoded = np.asarray(_load_document(path, ("literals",))["literals"], dtype=float)
        oracle = np.asarray(json.loads(text)["literals"], dtype=float)
        mismatched = np.flatnonzero(decoded.view(np.uint64) != oracle.view(np.uint64))
        assert decoded.size == oracle.size > 20000
        assert mismatched.size == 0, f"{mismatched.size} literals differ, first at {mismatched[0]}"

    def test_loaded_channel_keeps_every_bit(self, tmp_path):
        rng = np.random.default_rng(9310)
        ops = np.array(random_channel(4, 3, Convention.COLUMN_SUM, seed=52).operators)
        pairs = np.stack([ops.real, ops.imag], axis=-1)
        # random low mantissa bits move completeness by ~1e-15, far inside tol
        pairs = (pairs.view(np.uint64) ^ rng.integers(0, 16, pairs.shape, dtype=np.uint64))
        tiny = _float_bits(rng, rng.integers(0, 400, (1, 4, 4, 2)))  # |x| < 2**-623
        tiny.flat[:3] = [-0.0, 0.0, 5e-324]
        pairs = np.concatenate([pairs.view(np.float64), tiny])
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"dim": 4, "kraus": pairs.tolist(), "convention": "column_sum"},
                                   indent=1))
        loaded = load_channel(path, tol=1e-9)
        expected = np.array([matrix_from_pairs(k) for k in pairs])
        assert np.array(loaded.operators).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("load, doc, key", [
        (load_state, {"matrix": []}, "dim"),
        (load_state, {"dim": 2}, "matrix"),
        (load_channel, {"dim": 2, "convention": "row_sum"}, "kraus"),
        (load_channel, {"dim": 2, "kraus": []}, "convention"),
    ])
    def test_missing_key_names_file_and_key(self, tmp_path, load, doc, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key '{key}'$"):
            load(path)

    def test_state_roundtrip(self, tmp_path):
        dm = random_density(3, 2, seed=50)
        path = tmp_path / "state.json"
        save_state(path, dm)
        loaded = load_state(path)
        assert max_abs(loaded.rho - dm.rho) == 0.0

    def test_channel_roundtrip(self, tmp_path):
        ch = random_channel(3, 2, Convention.COLUMN_SUM, seed=51)
        path = tmp_path / "channel.json"
        save_channel(path, ch)
        loaded = load_channel(path, tol=1e-9)
        assert loaded.convention == Convention.COLUMN_SUM
        for a, b in zip(ch.operators, loaded.operators):
            assert max_abs(a - b) == 0.0

    def test_field_names_match_schema(self, tmp_path):
        import json

        _, n2 = example_channels(0.2, 0.7)
        path = tmp_path / "channel.json"
        save_channel(path, n2)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "kraus", "convention"}
        assert doc["convention"] == "row_sum"
        assert doc["kraus"][0][0][0] == [pytest.approx(np.sqrt(0.3)), 0.0]

        dm = rho_theta(0.9)
        spath = tmp_path / "state.json"
        save_state(spath, dm)
        sdoc = json.loads(spath.read_text())
        assert set(sdoc) == {"dim", "matrix"}
        assert sdoc["matrix"][0][1] == [pytest.approx(0.8 / 4), 0.0]

    def test_load_rejects_bad_completeness(self, tmp_path):
        import json

        doc = {"dim": 2,
               "kraus": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]],
               "convention": "column_sum"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CompletenessError):
            load_channel(path, tol=1e-9)

    def test_atomic_write_replaces_and_keeps_open_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        write_text_atomic(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]

    def test_failed_atomic_write_leaves_no_stray_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "bad \ud800 text\n")  # a lone surrogate cannot be encoded
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old\n"

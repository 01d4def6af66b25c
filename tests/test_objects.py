import decimal
import gc
import json
import re

import numpy as np
import orjson
import pytest

from skewchain import serialize
from skewchain.cli import main
from skewchain.errors import (
    CompletenessError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    SkewchainError,
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
    _stack_from_pairs,
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


def _kraus_sources(tmp_path) -> dict:
    """One channel from each constructor, keyed by name, with its (n, d)."""
    ch = random_channel(3, 2, Convention.COLUMN_SUM, seed=5)
    save_channel(tmp_path / "ch.json", ch)
    return {
        "validate_channel_list": (validate_channel(list(ch.operators)), (2, 3)),
        "validate_channel_array": (validate_channel(np.array(ch.operators)), (2, 3)),
        "load_channel": (load_channel(tmp_path / "ch.json"), (2, 3)),
        "random_channel": (random_channel(4, 3, Convention.ROW_SUM, seed=6), (3, 4)),
        "mix_kraus": (mix_kraus(ch, random_unitary(2, seed=7)), (2, 3)),
        "example_channels": (example_channels(0.3, 0.6)[1], (2, 4)),
    }


class TestKrausStacks:
    @pytest.mark.parametrize("source", ["validate_channel_list", "validate_channel_array",
                                        "load_channel", "random_channel", "mix_kraus",
                                        "example_channels"])
    def test_operators_are_one_read_only_stack(self, tmp_path, source):
        channel, (n, d) = _kraus_sources(tmp_path)[source]
        ops = channel.operators
        assert type(ops) is np.ndarray
        assert ops.dtype == np.complex128 and ops.shape == (n, d, d)
        assert (channel.n, channel.dim) == (n, d)
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 1.0


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
        expected = pairs[..., 0] + 1j * pairs[..., 1]  # the written bits; repr round-trips
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


def _oracle_matrix(obj) -> np.ndarray:
    """The decoder that the loaders used before: numpy walks the nested list."""
    try:
        arr = np.asarray(obj, dtype=float)
    except TypeError:  # an object or null where a number belongs
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix must be a nested array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _oracle_load(doc):
    """What ``load_state`` or ``load_channel`` did with ``doc`` before."""
    if "matrix" in doc:
        m = _oracle_matrix(doc["matrix"])
        if m.shape != (doc["dim"], doc["dim"]):
            raise ValueError("declared dim does not match")
        return validate_density(m)
    ops = [_oracle_matrix(k) for k in doc["kraus"]]
    if any(k.shape != (doc["dim"], doc["dim"]) for k in ops):
        raise ValueError("declared dim does not match")
    return validate_channel(ops, Convention(doc["convention"]), tol=1e-9)


_STATE = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_MALFORMED = {  # a bad state matrix, or a bad Kraus list, each of dim 2
    "ragged_row": {"matrix": [_STATE[0], _STATE[1][:1]]},
    "ragged_rows_across": {"matrix": [_STATE[0] + [[0.0, 0.0]], _STATE[1]]},
    "short_pair": {"matrix": [[[0.5], [0.0, 0.0]], _STATE[1]]},
    "long_pair": {"matrix": [[[0.5, 0.0, 0.0], [0.0, 0.0]], _STATE[1]]},
    "numbers_for_pairs": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
    "every_pair_short": {"matrix": [[[0.5], [0.0]], [[0.0], [0.5]]]},
    "every_pair_long": {"matrix": [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                   [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]]},
    "every_pair_empty": {"matrix": [[[], []], [[], []]]},
    "pairs_for_numbers": {"matrix": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                                     [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]]},
    "flat_numbers": {"matrix": [0.5, 0.0, 0.0, 0.5]},
    "dict_for_pair": {"matrix": [[{"re": 0.5}, [0.0, 0.0]], _STATE[1]]},
    "string_for_pair": {"matrix": [["0.5,0", [0.0, 0.0]], _STATE[1]]},
    "number_for_pair": {"matrix": [[0.5, [0.0, 0.0]], _STATE[1]]},
    "two_char_string_for_pair": {"matrix": [["05", [0.0, 0.0]], _STATE[1]]},
    "two_key_dict_for_pair": {"matrix": [[{"0.5": 0, "0": 0}, [0.0, 0.0]], _STATE[1]]},
    "two_char_string_for_row": {"matrix": [_STATE[0], "05"]},
    "dict_for_row": {"matrix": [_STATE[0], {"re": 0.5}]},
    "string_for_row": {"matrix": [_STATE[0], "row"]},
    "number_for_row": {"matrix": [_STATE[0], 0.5]},
    "dict_for_matrix": {"matrix": {"re": 0.5}},
    "string_for_number": {"matrix": [[["x", 0.0], [0.0, 0.0]], _STATE[1]]},
    "empty_matrix": {"matrix": []},
    "empty_rows": {"matrix": [[], []]},
    "null_number": {"matrix": [[[None, 0.0], [0.0, 0.0]], _STATE[1]]},
    "kraus_mixed_shapes": {"kraus": [_IDENTITY, [[[1.0, 0.0]]]]},
    "kraus_ragged_operator": {"kraus": [_IDENTITY, [_IDENTITY[0], _IDENTITY[1][:1]]]},
    "kraus_empty_operator": {"kraus": [_IDENTITY, []]},
    # read two numbers per pair, this operator's twelve numbers begin with I
    "kraus_every_pair_long": {"kraus": [[[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                         [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]]},
    "kraus_null_number": {"kraus": [[[[None, 0.0], [0.0, 0.0]], _IDENTITY[1]]]},
}


class TestFlatDecoder:
    # the loaders decode every matrix of a document in one flat pass; numpy's
    # walk of the nested list, which they used before, is the oracle

    @pytest.mark.parametrize("n, rows, cols", [(1, 1, 1), (1, 4, 4), (5, 3, 7), (40, 16, 16)])
    def test_well_formed_stacks_keep_every_bit(self, n, rows, cols):
        corpus = _literal_corpus() + ["9007199254740993", "-9223372036854775809",
                                      "18446744073709551615", "1" * 30, "-0", "0.0e0"]
        size = n * rows * cols * 2
        literals = iter((corpus * (size // len(corpus) + 1))[-size:])  # the edge cases last

        def nest(*shape):
            if not shape:
                return next(literals)
            return "[" + ", ".join(nest(*shape[1:]) for _ in range(shape[0])) + "]"

        doc = orjson.loads(nest(n, rows, cols, 2))
        stack = _stack_from_pairs(doc)
        oracle = np.array([_oracle_matrix(k) for k in doc])
        assert stack.shape == oracle.shape == (n, rows, cols)
        assert stack.tobytes() == oracle.tobytes()
        assert matrix_from_pairs(doc[-1]).tobytes() == oracle[-1].tobytes()

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_input_is_rejected_by_both_paths(self, tmp_path, capsys, case):
        state = {"dim": 2, "matrix": _STATE}
        channel = {"dim": 2, "kraus": [_IDENTITY], "convention": "row_sum"}
        bad = {**(channel if "kraus" in _MALFORMED[case] else state), **_MALFORMED[case]}
        with pytest.raises((ValueError, SkewchainError)):
            _oracle_load(bad)
        files = {}
        for name, doc in (("state", state), ("channel1", channel), ("channel2", channel)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(doc))
        bad_path = files["channel1" if "kraus" in bad else "state"]
        bad_path.write_text(json.dumps(bad))
        argv = ["bounds", "--out", str(tmp_path / "r.txt")]
        for name, path in files.items():
            argv += [f"--{name}", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{bad_path}: " in err
        if "null" in case:
            assert NonFiniteError().args[0] in err

    def test_document_is_decoded_with_the_collector_paused(self, tmp_path, monkeypatch):
        # parsing and decoding run paused; validation runs with the collector
        # as the caller had it
        seen = []

        def recording(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        for name in ("_stack_from_pairs", "validate_density", "validate_channel"):
            recording(serialize, name)
        recording(serialize.orjson, "loads")
        state, channel = tmp_path / "state.json", tmp_path / "channel.json"
        state.write_text(json.dumps({"dim": 2, "matrix": _STATE}))
        channel.write_text(json.dumps({"dim": 2, "kraus": [_IDENTITY], "convention": "row_sum"}))
        assert gc.isenabled()
        load_state(state)
        load_channel(channel)
        assert seen == [("loads", False), ("_stack_from_pairs", False), ("validate_density", True),
                        ("loads", False), ("_stack_from_pairs", False), ("validate_channel", True)]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["valid", "undecodable", "ragged", "invalid"])
    @pytest.mark.parametrize("kind", ["state", "channel"])
    def test_collector_state_is_kept(self, tmp_path, enabled, case, kind):
        # the loaders pause the cyclic collector while a document is decoded
        # and leave it as they found it, whether the load succeeds or not
        key, doc = {"state": ("matrix", {"dim": 2, "matrix": _STATE}),
                    "channel": ("kraus", {"dim": 2, "kraus": [_IDENTITY],
                                          "convention": "row_sum"})}[kind]
        ragged = _MALFORMED["ragged_row" if kind == "state" else "kraus_ragged_operator"][key]
        not_psd = [[[2.0, 0.0], [0.0, 0.0]], _STATE[1]]
        text = {"valid": json.dumps(doc),
                "undecodable": json.dumps(doc)[:20],  # truncated JSON
                "ragged": json.dumps({**doc, key: ragged}),
                "invalid": json.dumps({**doc, key: not_psd if kind == "state" else [_STATE]})
                }[case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        load = load_state if kind == "state" else load_channel
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if case == "valid":
                load(path)
            else:
                with pytest.raises((ValueError, SkewchainError)):
                    load(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

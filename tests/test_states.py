"""State construction, catalog goldens, qubit shuffling, projection, file I/O."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telecrit.states as states
from outcome_oracle import permute_qubits, project_subsystem
from telecrit import (
    CATALOG_NAMES,
    FIVE_QUBIT_CATALOG,
    MAX_FILE_QUBITS,
    PureState,
    StateFileError,
    load_state_file,
    make_state,
    named_state,
    save_state_json,
    save_state_text,
    tensor,
)

# catalog amplitude tables, frozen as bit string -> sign of the nonzero entries
MAN_M5_TABLE = {
    "00000": 1, "00001": 1, "00110": 1, "00111": -1,
    "01010": 1, "01011": 1, "01100": -1, "01101": 1,
    "10010": -1, "10011": 1, "10100": 1, "10101": 1,
    "11000": 1, "11001": -1, "11110": 1, "11111": 1,
}
BROWN_TABLE = {
    "00101": 1, "00110": -1, "01000": 1, "01011": -1,
    "10001": 1, "10010": 1, "11100": 1, "11111": 1,
}


def test_man_m5_amplitudes(man):
    weight = 0.25
    for k in range(32):
        bits = format(k, "05b")
        expected = MAN_M5_TABLE.get(bits, 0) * weight
        assert abs(man.amplitudes[k] - expected) < 1e-15, bits
    assert abs(man.norm - 1.0) < 1e-15
    assert man.renormalized is False


def test_brown_amplitudes(brown):
    weight = 1.0 / (2.0 * math.sqrt(2.0))
    for k in range(32):
        bits = format(k, "05b")
        expected = BROWN_TABLE.get(bits, 0) * weight
        assert abs(brown.amplitudes[k] - expected) < 1e-15, bits
    assert abs(brown.norm - 1.0) < 1e-15


def test_brown_bell_pair_composition(brown):
    # brown = 1/2 (|001>psi- + |010>phi- + |100>psi+ + |111>phi+)
    terms = [
        ("001", "bell_psi_minus"),
        ("010", "bell_phi_minus"),
        ("100", "bell_psi_plus"),
        ("111", "bell_phi_plus"),
    ]
    total = np.zeros(32, dtype=np.complex128)
    for bits, bell_name in terms:
        head = np.zeros(8)
        head[int(bits, 2)] = 1.0
        joint = tensor(PureState(3, head), named_state(bell_name))
        total += 0.5 * joint.amplitudes
    assert np.max(np.abs(total - brown.amplitudes)) < 1e-15


def test_ghz5_and_bell_catalog():
    ghz = named_state("ghz5")
    assert abs(ghz.amplitude("00000") - 1 / math.sqrt(2)) < 1e-15
    assert abs(ghz.amplitude("11111") - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(ghz.amplitudes) == 2

    root_half = 1 / math.sqrt(2)
    phi_plus = named_state("bell_phi_plus")
    assert abs(phi_plus.amplitude("00") - root_half) < 1e-15
    assert abs(phi_plus.amplitude("11") - root_half) < 1e-15
    assert abs(named_state("bell_phi_minus").amplitude("11") + root_half) < 1e-15
    assert abs(named_state("bell_psi_plus").amplitude("01") - root_half) < 1e-15
    assert abs(named_state("bell_psi_minus").amplitude("10") + root_half) < 1e-15


def test_product_zero_default_and_sized():
    five = named_state("product_zero_n")
    assert five.num_qubits == 5
    assert five.amplitudes[0] == 1.0
    three = named_state("product_zero_n", 3)
    assert three.num_qubits == 3
    assert np.count_nonzero(three.amplitudes) == 1
    # the free width is a plain positive int, never a bool, float or string
    for width in (0, -1, 2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="positive int"):
            named_state("product_zero_n", width)


def test_catalog_names_cover_five_qubit_subset():
    assert CATALOG_NAMES == (
        "man_m5", "brown", "ghz5", "bell_phi_plus", "bell_phi_minus",
        "bell_psi_plus", "bell_psi_minus", "product_zero_n",
    )
    assert FIVE_QUBIT_CATALOG == ("man_m5", "brown", "ghz5", "product_zero_n")
    for name in FIVE_QUBIT_CATALOG:
        assert named_state(name).num_qubits == 5
        assert named_state(name, 5).num_qubits == 5
    # a fixed width may be repeated but not contradicted
    assert named_state("bell_phi_plus", 2).num_qubits == 2
    for name, width in (("man_m5", 2), ("brown", 4), ("bell_phi_plus", 7), ("ghz5", 5.0)):
        with pytest.raises(ValueError, match="qubits wide"):
            named_state(name, width)
    with pytest.raises(ValueError, match="unknown state"):
        named_state("w5")


def test_make_state_normalizes_and_flags():
    s = make_state(2, [1, 1, 0, 0])
    assert abs(s.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.amplitudes[1] - 1 / math.sqrt(2)) < 1e-15
    assert s.renormalized is True
    exact = make_state(1, [1, 0])
    assert exact.renormalized is False


def test_make_state_rejects_bad_input():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        make_state(2, [1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        make_state(1, [0, 0])
    with pytest.raises(ValueError, match="finite"):
        make_state(1, [np.nan, 1])
    # bool is an int subclass, but True is no qubit count
    with pytest.raises(ValueError, match="positive integer"):
        PureState(True, [1, 0])


@pytest.mark.parametrize(
    "amplitudes, expected",
    [
        # squared norms overflow to inf
        ([1e200, 0, 0, 0], [1, 0, 0, 0]),
        ([1.7e308, -1.7e308j, 1.7e308, 1.7e308], [0.5, -0.5j, 0.5, 0.5]),
        # squared norms underflow to 0 or a subnormal
        ([1e-200, 0, 0, 0], [1, 0, 0, 0]),
        ([0, 3e-170j, 0, 4e-170], [0, 0.6j, 0, 0.8]),
        ([5e-324, 0, 0, 5e-324], [2**-0.5, 0, 0, 2**-0.5]),
    ],
)
def test_make_state_at_the_edges_of_float_range(amplitudes, expected):
    s = make_state(2, amplitudes)
    assert s.renormalized is True
    assert np.max(np.abs(s.amplitudes - expected)) < 1e-15
    assert abs(s.norm - 1.0) < 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_make_state_in_range_keeps_its_bits(scale):
    # the plain route: one squared norm, one division
    rng = np.random.default_rng(3)
    raw = scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    plain = raw / math.sqrt(float(np.vdot(raw, raw).real))
    assert make_state(3, raw).amplitudes.tobytes() == plain.tobytes()


def test_amplitude_accessor(brown):
    assert abs(brown.amplitude("00110") + 1 / (2 * math.sqrt(2))) < 1e-15
    with pytest.raises(ValueError):
        brown.amplitude("0011")
    with pytest.raises(ValueError):
        brown.amplitude("0011x")


def test_tensor_orders_factors():
    joint = tensor(named_state("bell_phi_plus"), PureState(1, [1, 0]))
    assert abs(joint.amplitude("000") - 1 / math.sqrt(2)) < 1e-15
    assert abs(joint.amplitude("110") - 1 / math.sqrt(2)) < 1e-15
    assert joint.num_qubits == 3


@pytest.mark.parametrize("seed", range(5))
def test_tensor_is_bit_identical_to_kron(seed):
    rng = np.random.default_rng(seed)
    for n_a, n_b in ((1, 1), (2, 3), (3, 2), (1, 4)):
        a = make_state(n_a, rng.standard_normal(2**n_a) + 1j * rng.standard_normal(2**n_a))
        b = make_state(n_b, rng.standard_normal(2**n_b) + 1j * rng.standard_normal(2**n_b))
        want = np.kron(a.amplitudes, b.amplitudes)
        assert tensor(a, b).amplitudes.tobytes() == want.tobytes()


def test_permute_qubits_explicit():
    # |011> under {1->2, 2->3, 3->1}: old bits (0,1,1) land at new labels
    # (2,3,1), giving |101>
    s = PureState(3, [0, 0, 0, 1, 0, 0, 0, 0])
    moved = permute_qubits(s, {1: 2, 2: 3, 3: 1})
    assert moved.amplitudes[0b101] == 1.0
    assert np.count_nonzero(moved.amplitudes) == 1


def test_permute_qubits_index_oracle():
    # bitwise re-derivation of the full index map on a dense state
    rng = np.random.default_rng(42)
    s = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    moved = permute_qubits(s, perm)
    for k in range(32):
        target = 0
        for q in range(1, 6):
            bit = (k >> (5 - q)) & 1
            target |= bit << (5 - perm[q])
        assert moved.amplitudes[target] == s.amplitudes[k]


def test_permute_qubits_rejects_non_bijection():
    s = named_state("bell_phi_plus")
    with pytest.raises(ValueError, match="bijection"):
        permute_qubits(s, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="bijection"):
        permute_qubits(s, {1: 2})


def test_project_subsystem_bell_half():
    residual = project_subsystem(
        named_state("bell_phi_plus"), PureState(1, [1, 0]), (1,)
    )
    assert residual.num_qubits == 1
    assert abs(residual.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(residual.norm**2 - 0.5) < 1e-15


def test_project_subsystem_brown_last_qubit(brown):
    # <0| on qubit 5 keeps the four kets ending in 0, each weight 1/(2*sqrt(2))
    residual = project_subsystem(brown, PureState(1, [1, 0]), (5,))
    assert residual.num_qubits == 4
    assert abs(residual.norm**2 - 0.5) < 1e-14


def test_project_subsystem_label_validation(brown):
    bra = named_state("bell_phi_plus")
    with pytest.raises(ValueError, match="distinct"):
        project_subsystem(brown, bra, (1, 1))
    with pytest.raises(ValueError, match="labels"):
        project_subsystem(brown, bra, (0, 2))
    with pytest.raises(ValueError, match="covers"):
        project_subsystem(brown, bra, (1, 2, 3))
    with pytest.raises(ValueError, match="unmeasured"):
        project_subsystem(named_state("bell_phi_plus"), bra, (1, 2))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_projection_outcomes_complete(seed):
    # projecting qubit 2 onto <0| and <1| splits the squared norm
    rng = np.random.default_rng(seed)
    s = make_state(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    p0 = project_subsystem(s, PureState(1, [1, 0]), (2,)).norm ** 2
    p1 = project_subsystem(s, PureState(1, [0, 1]), (2,)).norm ** 2
    assert abs(p0 + p1 - 1.0) < 1e-12


@given(st.permutations(list(range(1, 6))), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permute_round_trip(images, seed):
    rng = np.random.default_rng(seed)
    s = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    perm = {q: images[q - 1] for q in range(1, 6)}
    inverse = {new: old for old, new in perm.items()}
    back = permute_qubits(permute_qubits(s, perm), inverse)
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-15
    assert abs(permute_qubits(s, perm).norm - 1.0) < 1e-12


def test_state_json_round_trip(tmp_path, brown):
    path = tmp_path / "brown.json"
    save_state_json(brown, str(path))
    loaded = load_state_file(str(path))
    assert loaded.num_qubits == 5
    assert np.max(np.abs(loaded.amplitudes - brown.amplitudes)) < 1e-15


def test_state_text_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    s = make_state(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    path = tmp_path / "state.txt"
    save_state_text(s, str(path))
    loaded = load_state_file(str(path))
    assert np.max(np.abs(loaded.amplitudes - s.amplitudes)) < 1e-15


def test_text_loader_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# a Bell pair\n\n00 0.7071067811865476 0.0\n11 0.7071067811865476 0.0\n")
    loaded = load_state_file(str(path))
    assert loaded.num_qubits == 2
    assert abs(loaded.amplitude("11") - 1 / math.sqrt(2)) < 1e-12


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("00 1.0\n", ":1:"),
        ("00 0.7 0.0\n0x 0.7 0.0\n", ":2:"),
        ("00 0.7 0.0\n000 0.7 0.0\n", ":2:"),
        ("00 0.7 0.0\n00 0.1 0.0\n", "duplicate"),
        ("00 abc 0.0\n", "bad amplitude"),
        ("", "no amplitudes"),
        # float() reads these without complaint, as infinities and NaN
        ("0 inf 0\n", ":1: amplitude 'inf' '0' is not finite"),
        ("0 1 0\n1 nan 0\n", ":2: amplitude 'nan' '0' is not finite"),
        ("0 1 0\n\n1 0 1e400\n", ":3: amplitude '0' '1e400' is not finite"),
        pytest.param(
            "0 1%s 0\n" % ("0" * 5000),
            ":1: amplitude '1000.*' is not finite",
            id="integer-past-digit-limit",
        ),
    ],
)
def test_text_loader_names_offending_line(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(StateFileError, match=fragment):
        load_state_file(str(path))


def test_loader_rejects_norm_drift(tmp_path):
    path = tmp_path / "drift.txt"
    path.write_text("0 0.7 0.0\n1 0.7 0.0\n")  # squared norm 0.98
    with pytest.raises(StateFileError, match="refusing to renormalize"):
        load_state_file(str(path))


# finite amplitudes whose np.vdot overflows, to nan+nanj or inf by BLAS
# kernel: no norm within bounds, so these files are refused, not
# renormalized, in one wording
NAN_NORM_FILES = {
    "nan_norm.txt": "00000 1e308 1e308\n11111 1e308 1e308\n",
    "nan_norm.json": '{"num_qubits": 1, "amplitudes": [[1e200, 1e200], [0, 0]]}',
}


@pytest.mark.parametrize("name", sorted(NAN_NORM_FILES))
def test_loader_rejects_nan_squared_norm(tmp_path, name):
    path = tmp_path / name
    path.write_text(NAN_NORM_FILES[name])
    message = f"{path}: squared norm overflows; refusing to renormalize file input"
    with pytest.raises(StateFileError, match=f"^{re.escape(message)}$"):
        load_state_file(str(path))


def test_make_state_flags_nan_squared_norm():
    s = make_state(1, [1e200 + 1e200j, 0])
    assert s.renormalized is True
    assert np.max(np.abs(s.amplitudes - [(1 + 1j) / math.sqrt(2), 0])) < 1e-15


def test_loader_accepts_tiny_round_off(tmp_path):
    path = tmp_path / "round.txt"
    path.write_text("0 0.70710678 0.0\n1 0.70710678 0.0\n")
    loaded = load_state_file(str(path))
    assert abs(loaded.norm - 1.0) < 1e-15  # renormalized on load


@pytest.mark.parametrize(
    "content, fragment",
    [
        ('{"num_qubits": 2}', "amplitudes"),
        ('{"num_qubits": 2, "amplitudes": [[1, 0]]}', "4"),
        ('{"num_qubits": 1, "amplitudes": [[1, 0], "x"]}', "pair"),
        ('{"num_qubits": 0, "amplitudes": []}', "positive"),
        ('{"num_qubits": true, "amplitudes": [[1, 0], [0, 0]]}', "positive"),
        # bool is an int subclass, but true is no amplitude
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[true, false], [0, 0]]}',
            r":1: amplitude 0 must be an \[re, im\] pair",
            id="boolean-pair",
        ),
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[1, 0], [0, false]]}',
            r":1: amplitude 1 must be an \[re, im\] pair",
            id="boolean-imaginary-part",
        ),
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[0, 0], [1%s, 0]]}' % ("0" * 400),
            ":1: amplitude 1 is too large for a float",
            id="integer-beyond-float-range",
        ),
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[0, 0], [1e400, 0]]}',
            r":1: amplitude 1 is not finite, got \[inf, 0\]",
            id="float-beyond-float-range",
        ),
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[NaN, 0], [1, 0]]}',
            r":1: amplitude 0 is not finite, got \[nan, 0\]",
            id="nan",
        ),
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[1, 0], [0, -Infinity]]}',
            r":1: amplitude 1 is not finite, got \[0, -inf\]",
            id="infinity",
        ),
        # past Python's int-string limit json.loads raises a bare ValueError
        pytest.param(
            '{"num_qubits": 1, "amplitudes": [[0, 0], [1%s, 0]]}' % ("0" * 5000),
            r":1: integer of more than \d+ digits",
            id="integer-past-digit-limit",
        ),
        pytest.param(
            '{"num_qubits": 1,\n "amplitudes":\n  [[0, 0], [-1%s, 0]]}' % ("0" * 5000),
            r":3: integer of more than \d+ digits",
            id="integer-past-digit-limit-on-line-3",
        ),
        pytest.param(
            '{"num_qubits": 1%s, "amplitudes": []}' % ("0" * 5000),
            r":1: integer of more than \d+ digits",
            id="num-qubits-past-digit-limit",
        ),
        # nested past the recursion limit json.loads raises RecursionError
        pytest.param(
            '{"num_qubits": 5, "amplitudes": %s%s}' % ("[" * 10000, "]" * 10000),
            ":1: JSON nested too deeply",
            id="nested-past-recursion-limit",
        ),
        ('{"nope": 1', "invalid JSON"),
        # an array opens JSON too, not a text line
        ("[1, 2]", ":1: expected an object with num_qubits and amplitudes"),
        ("[]", ":1: expected an object with num_qubits and amplitudes"),
    ],
)
def test_json_loader_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(StateFileError, match=fragment):
        load_state_file(str(path))


@pytest.mark.parametrize(
    "content, fragment",
    [
        (b"\xc0 1 0\n", ":1: not UTF-8 text, byte 0xc0: invalid start byte"),
        (b"0 1 0\r\n# caf\xe9\n", ":2: not UTF-8 text, byte 0xe9: "),
        (
            b'{"num_qubits": 1,\n\n "amplitudes": [[1, 0], [0, 0]]} \xff',
            ":3: not UTF-8 text, byte 0xff",
        ),
    ],
)
def test_loader_names_non_utf8_byte(tmp_path, content, fragment):
    path = tmp_path / "binary.dat"
    path.write_bytes(content)
    with pytest.raises(StateFileError, match=re.escape(f"{path}{fragment}")):
        load_state_file(str(path))


def test_loader_missing_file():
    with pytest.raises(StateFileError):
        load_state_file("/nonexistent/state.json")


@pytest.mark.parametrize("source", ["padded", "/dev/zero"])
def test_loader_refuses_file_past_length_bound(monkeypatch, tmp_path, source):
    """A file longer than the bound is refused after reading one character
    past it, so an endless stream cannot exhaust memory."""
    monkeypatch.setattr(states, "_MAX_FILE_CHARS", 4096)
    path = tmp_path / "padded.txt"
    line = "00000 1 0\n"
    path.write_text(line + "#" * (4096 - len(line)))
    assert load_state_file(str(path)).amplitudes[0] == 1  # exactly at the bound
    if source == "padded":
        path.write_text(line + "#" * (4097 - len(line)))
    else:
        path = source
    with pytest.raises(StateFileError, match=re.escape(f"{path}: longer than the limit of 4096")):
        load_state_file(str(path))


@pytest.fixture
def no_huge_zeros(monkeypatch):
    """np.zeros that refuses more than 2**20 elements instead of allocating."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        size = math.prod(shape) if isinstance(shape, tuple) else int(shape)
        if size > 2**20:
            raise AssertionError(f"np.zeros asked for {size} elements")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(states.np, "zeros", guarded)


@pytest.mark.parametrize("width", [MAX_FILE_QUBITS + 1, 40])
def test_text_loader_refuses_wide_states(tmp_path, no_huge_zeros, width):
    path = tmp_path / "wide.txt"
    path.write_text("# one basis state\n" + "1" * width + " 1.0 0.0\n")
    with pytest.raises(StateFileError, match=f":2: {width} qubits exceeds the limit of 20"):
        load_state_file(str(path))


@pytest.mark.parametrize("width", [MAX_FILE_QUBITS + 1, 64])
def test_json_loader_refuses_wide_states(tmp_path, no_huge_zeros, width):
    path = tmp_path / "wide.json"
    path.write_text(f'{{"num_qubits": {width}, "amplitudes": [[1, 0]]}}')
    with pytest.raises(StateFileError, match=f":1: {width} qubits exceeds the limit of 20"):
        load_state_file(str(path))


def test_text_loader_accepts_the_widest_state(tmp_path, no_huge_zeros):
    path = tmp_path / "widest.txt"
    path.write_text("0" * MAX_FILE_QUBITS + " 1.0 0.0\n")
    loaded = load_state_file(str(path))
    assert loaded.num_qubits == MAX_FILE_QUBITS == 20
    assert loaded.amplitudes[0] == 1

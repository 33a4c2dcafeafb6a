"""n-qubit pure states as dense complex amplitude vectors.

Conventions, binding for the whole package:

* Qubit labels are 1-based: a state on n qubits has qubits 1..n.
* Amplitude index k encodes the qubit values as a big-endian bit string
  in ascending label order, so qubit 1 is the most significant bit.  For
  five qubits, index k has bit layout (q1 q2 q3 q4 q5) with q1 = k >> 4
  and q5 = k & 1.
* Values are immutable after construction and every operation returns a
  new state, so states can be shared freely.

Every state passes one check on construction: a positive width, 2**n
amplitudes, all finite.  States built by :func:`make_state`, the
catalog and :func:`tensor` are unit norm.  The catalog table, the Bell
outcome dictionary (the catalog's Bell states and teleport's sender
bras) and the NaN-safe squared-norm test are each defined here once.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PureState",
    "StateFileError",
    "CATALOG_NAMES",
    "FIVE_QUBIT_CATALOG",
    "NORM_TOL",
    "STRICT_NORM_TOL",
    "MAX_FILE_QUBITS",
    "make_state",
    "named_state",
    "tensor",
    "load_state_file",
    "save_state_json",
    "save_state_text",
]

# squared-norm drift below which input counts as already normalized
NORM_TOL = 1e-12
# squared-norm drift beyond which file / CLI input is rejected as corrupt
# rather than merely rounded
STRICT_NORM_TOL = 1e-6
# widest state a file may hold: 2**20 amplitudes take 16 MiB, and a
# wider one is refused before anything of size 2**n is built
MAX_FILE_QUBITS = 20
# longest state file read: the widest one save_state_json/_text writes has
# ~57/~75 MB, and a longer stream (say /dev/zero) is refused, not read whole
_MAX_FILE_CHARS = 2**MAX_FILE_QUBITS * 128


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense state vector on ``num_qubits`` qubits.

    ``amplitudes`` is a read-only complex128 array of length
    2**num_qubits, indexed by the big-endian convention above.
    ``renormalized`` records whether construction had to rescale the
    input by more than ``NORM_TOL`` (squared norm).
    """

    num_qubits: int
    amplitudes: np.ndarray
    renormalized: bool = False

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        n = self.num_qubits
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("num_qubits must be a positive integer")
        if amps.shape != (2**n,):
            raise ValueError(
                f"expected {2**n} amplitudes for {n} qubits, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the computational basis ket given as a bit string."""
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {self.num_qubits}-bit string, got {bits!r}")
        return complex(self.amplitudes[int(bits, 2)])

    @cached_property
    def _purities(self) -> dict:
        """Memo for ``entanglement``'s purities of this state's
        reductions; it lives and dies with the state."""
        return {}

    @cached_property
    def _norm_sq(self) -> float:
        """Squared norm of the amplitudes, formed once per state."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @cached_property
    def _setting(self) -> list:
        """Holder of ``teleport``'s record of this channel at its last
        measurement setting, keyed None until the first; it dies with the state."""
        return [(None,)]


def _norm_drifts(norm_sq: float, bound: float) -> bool:
    """Whether a squared norm is more than ``bound`` from 1; NaN always is."""
    return not abs(norm_sq - 1.0) <= bound


def make_state(num_qubits: int, amplitudes: Sequence[complex]) -> PureState:
    """Build a normalized state from raw amplitudes.

    The vector is scaled to unit norm; ``renormalized`` on the result
    records whether that moved the squared norm by more than NORM_TOL.
    When the squared norm under- or overflows (0, subnormal or inf), the
    vector is first divided by its largest component.  Raises ValueError
    for a length mismatch, non-finite entries, or the zero vector.
    """
    amps = PureState(num_qubits, amplitudes).amplitudes
    norm_sq = float(np.vdot(amps, amps).real)
    renormalized = _norm_drifts(norm_sq, NORM_TOL)
    if not sys.float_info.min <= norm_sq < math.inf:
        parts = amps.view(np.float64)  # re, im interleaved
        largest = float(np.max(np.abs(parts)))
        if largest == 0.0:
            raise ValueError("zero vector cannot be normalized")
        amps = (parts / largest).view(np.complex128)
        norm_sq = float(np.vdot(amps, amps).real)
    return PureState(num_qubits, amps / math.sqrt(norm_sq), renormalized=renormalized)


# Bell outcome dictionary, binding across the package, as {outcome: {index: sign}}
# over the two-qubit basis, each ket of weight 1/sqrt(2):
#   1: (|00> + |11>)/sqrt(2)    2: (|00> - |11>)/sqrt(2)
#   3: (|01> + |10>)/sqrt(2)    4: (|01> - |10>)/sqrt(2)
_BELL_SIGNS = {1: {0: 1, 3: 1}, 2: {0: 1, 3: -1}, 3: {1: 1, 2: 1}, 4: {1: 1, 2: -1}}
_BELL_WEIGHT = 1.0 / math.sqrt(2.0)

# Catalog entries, name -> (width, None if free, {index: sign} over the big-endian
# basis, weight of every listed ket); the Bell entries are the dictionary above.
_CATALOG = {
    "man_m5": (5, {0: 1, 1: 1, 6: 1, 7: -1, 10: 1, 11: 1, 12: -1, 13: 1, 18: -1, 19: 1,
                   20: 1, 21: 1, 24: 1, 25: -1, 30: 1, 31: 1}, 0.25),
    "brown": (5, {5: 1, 6: -1, 8: 1, 11: -1, 17: 1, 18: 1, 28: 1, 31: 1},
              1.0 / math.sqrt(8.0)),
    "ghz5": (5, {0: 1, 31: 1}, _BELL_WEIGHT),
    "bell_phi_plus": (2, _BELL_SIGNS[1], _BELL_WEIGHT),
    "bell_phi_minus": (2, _BELL_SIGNS[2], _BELL_WEIGHT),
    "bell_psi_plus": (2, _BELL_SIGNS[3], _BELL_WEIGHT),
    "bell_psi_minus": (2, _BELL_SIGNS[4], _BELL_WEIGHT),
    "product_zero_n": (None, {0: 1}, 1.0),
}

CATALOG_NAMES = tuple(_CATALOG)

# the five-qubit catalog entries, i.e. valid channels for the protocol
FIVE_QUBIT_CATALOG = tuple(name for name, row in _CATALOG.items() if row[0] in (5, None))


def named_state(name: str, num_qubits: int | None = None) -> PureState:
    """Return a catalog state by name.

    ``num_qubits`` sets the width of the all-zeros product state
    ``product_zero_n`` (a positive int, default 5); every other entry's
    width is fixed, and ``num_qubits`` may repeat it but not contradict
    it.  Bell states: phi = (|00> +/- |11>)/sqrt(2), psi = (|01> +/- |10>)/sqrt(2).
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown state {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    width, signs, weight = _CATALOG[name]
    if num_qubits is None:
        num_qubits = width or 5
    elif type(num_qubits) is not int or num_qubits < 1 or width not in (None, num_qubits):
        need = f"is {width} qubits wide" if width else "needs a positive int num_qubits"
        raise ValueError(f"{name} {need}, got num_qubits={num_qubits!r}")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    for index, sign in signs.items():
        amps[index] = sign * weight
    return make_state(num_qubits, amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; a's qubits keep labels 1..n_a, b's become n_a+1.."""
    # the products of np.kron on vectors, without its reshaping
    product = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return PureState(a.num_qubits + b.num_qubits, product)


class StateFileError(ValueError):
    """Raised when a state file is unreadable, malformed, or corrupt."""


def _reject_norm_drift(amps: np.ndarray, path: str) -> None:
    norm_sq = float(np.vdot(amps, amps).real)
    if not math.isfinite(norm_sq):  # inf or nan, by BLAS kernel
        raise StateFileError(
            f"{path}: squared norm overflows; refusing to renormalize file input"
        )
    if _norm_drifts(norm_sq, STRICT_NORM_TOL):
        raise StateFileError(
            f"{path}: squared norm {norm_sq!r} deviates from 1 by more than "
            f"{STRICT_NORM_TOL}; refusing to renormalize file input"
        )


def _reject_width(num_qubits: int, path: str, lineno: int) -> None:
    if num_qubits > MAX_FILE_QUBITS:
        raise StateFileError(
            f"{path}:{lineno}: {num_qubits} qubits exceeds the limit of "
            f"{MAX_FILE_QUBITS} for state files"
        )


def _load_json_text(text: str, path: str) -> PureState:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's int-string limit
        limit = sys.get_int_max_str_digits()
        lineno = text.count("\n", 0, re.search(rf"\d{{{limit + 1}}}", text).start()) + 1
        raise StateFileError(f"{path}:{lineno}: integer of more than {limit} digits") from exc
    except RecursionError as exc:  # nesting deeper than the interpreter's recursion limit
        raise StateFileError(f"{path}:1: JSON nested too deeply") from exc
    if not isinstance(doc, dict) or "num_qubits" not in doc or "amplitudes" not in doc:
        raise StateFileError(
            f"{path}:1: expected an object with num_qubits and amplitudes"
        )
    n = doc["num_qubits"]
    pairs = doc["amplitudes"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateFileError(f"{path}:1: num_qubits must be a positive integer")
    _reject_width(n, path, 1)
    if not isinstance(pairs, list) or len(pairs) != 2**n:
        raise StateFileError(
            f"{path}:1: amplitudes must list {2**n} [re, im] pairs for "
            f"num_qubits={n}"
        )
    amps = np.zeros(2**n, dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFileError(
                f"{path}:1: amplitude {k} must be an [re, im] pair, got {pair!r}"
            )
        try:
            amps[k] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise StateFileError(
                f"{path}:1: amplitude {k} is too large for a float"
            ) from exc
        if not cmath.isfinite(amps[k]):
            raise StateFileError(f"{path}:1: amplitude {k} is not finite, got {pair!r}")
    _reject_norm_drift(amps, path)
    return make_state(n, amps)


def _load_plain_text(text: str, path: str) -> PureState:
    entries: dict[int, complex] = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise StateFileError(
                f"{path}:{lineno}: expected 'bitstring re im', got {raw!r}"
            )
        bits, re_s, im_s = parts
        if set(bits) - {"0", "1"}:
            raise StateFileError(f"{path}:{lineno}: bad bit string {bits!r}")
        if width is None:
            width = len(bits)
            _reject_width(width, path, lineno)
        elif len(bits) != width:
            raise StateFileError(
                f"{path}:{lineno}: bit string {bits!r} has length {len(bits)}, "
                f"expected {width}"
            )
        try:
            value = complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise StateFileError(
                f"{path}:{lineno}: bad amplitude {re_s!r} {im_s!r}"
            ) from exc
        if not cmath.isfinite(value):
            raise StateFileError(f"{path}:{lineno}: amplitude {re_s!r} {im_s!r} is not finite")
        index = int(bits, 2)
        if index in entries:
            raise StateFileError(f"{path}:{lineno}: duplicate basis state {bits!r}")
        entries[index] = value
    if width is None:
        raise StateFileError(f"{path}:1: no amplitudes found")
    amps = np.zeros(2**width, dtype=np.complex128)
    for index, value in entries.items():
        amps[index] = value
    _reject_norm_drift(amps, path)
    return make_state(width, amps)


def load_state_file(path: str) -> PureState:
    """Load a state from a JSON or plain-text amplitude file.

    JSON form: {"num_qubits": n, "amplitudes": [[re, im], ...]} with
    2**n entries.  Text form: one 'bitstring re im' line per nonzero
    amplitude; blank lines and '#' comments are ignored.  A file whose
    first non-blank character is '{' or '[' is read as JSON, any other
    as text.  Input whose
    squared norm deviates from 1 by more than STRICT_NORM_TOL is
    rejected; smaller round-off is silently renormalized.  Non-finite
    amplitudes, states wider than MAX_FILE_QUBITS, files longer than
    2**MAX_FILE_QUBITS * 128 characters (read no further) and bytes that
    are not UTF-8 are refused.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(_MAX_FILE_CHARS + 1)
    except OSError as exc:
        raise StateFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # read decodes its first _MAX_FILE_CHARS + 1 bytes at once
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        reason = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
        raise StateFileError(f"{path}:{lineno}: not UTF-8 text, {reason}") from exc
    if len(text) > _MAX_FILE_CHARS:
        raise StateFileError(f"{path}: longer than the limit of {_MAX_FILE_CHARS} characters")
    # a text line starts with a bit string, so "{" or "[" can only open JSON
    if text.lstrip()[:1] in ("{", "["):
        return _load_json_text(text, path)
    return _load_plain_text(text, path)


def save_state_json(s: PureState, path: str) -> None:
    doc = {
        "num_qubits": s.num_qubits,
        "amplitudes": [[z.real, z.imag] for z in s.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def save_state_text(s: PureState, path: str) -> None:
    lines = []
    for index, raw in enumerate(s.amplitudes):
        if raw != 0:
            bits = format(index, f"0{s.num_qubits}b")
            z = complex(raw)  # builtin floats, so repr round-trips
            lines.append(f"{bits} {z.real!r} {z.imag!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

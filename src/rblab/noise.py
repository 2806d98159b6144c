"""Pulse-level gate construction, elementary error channels, and noise models.

`GENERATORS` is the one table of the gate-set's pulses, and `generator_mats`
the one routine that turns it into transfer matrices: the ideal group is
its closure, and the over-rotation and z-tilt models perturb the same
pulses.  A noise model maps every element of an ideal Clifford gate-set to
a noisy transfer matrix, index-aligned with the group.  Those two kinds
replay the group's closure steps with their noisy generators; the remaining
kinds compose fixed error channels around the exact ideal element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .channels import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SuperOp,
    check_unitary,
    checked_transfer,
    unitary_to_superop,
)

if TYPE_CHECKING:
    from .cliffords import CliffordGroup


class ConfigError(ValueError):
    """A noise-model or run configuration violates the documented schema."""


def finite(name: str, value) -> float:
    """`value` as a float if it is a finite number (not a bool or a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


WORD_END = 2**32  # RB seeds each sequence with its depth and number as one uint32 word each


def _integral(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)  # a bool is no integer here


def integer(name: str, value, minimum: int, bounded: bool = False) -> int:
    """`value` as an int if it is an integer >= minimum and, if `bounded`, below 2^32."""
    if not _integral(value) or value < minimum:
        raise ConfigError(f"{name}: expected an integer >= {minimum}, got {value!r}")
    if bounded and value >= WORD_END:
        raise ConfigError(f"{name}: expected an integer below 2^32, got {value}")
    return int(value)


def depth_grid(depths, minimum: int) -> np.ndarray:
    """`depths` as an int64 array if it is a non-empty 1-D grid of integers in [minimum, 2^32)."""
    ends = []  # a range's ends, an integer array's extremes or a list's items; empty for no grid
    if isinstance(depths, range) and depths:
        ends = [depths[0], depths[-1]]
    elif isinstance(depths, np.ndarray) and depths.ndim == 1 and depths.size and depths.dtype.kind in "iu":
        ends = [depths.min(), depths.max()]
    elif isinstance(depths, (list, tuple)) and all(_integral(m) for m in depths):
        ends = list(depths)
    if not (ends and min(ends) >= minimum):
        raise ConfigError(f"depths: expected a non-empty list of integers >= {minimum}, got {depths!r}")
    if max(ends) >= WORD_END:
        raise ConfigError(f"depths: expected every depth below 2^32, got {max(ends)}")
    return np.array(depths, dtype=np.int64)


def check_keys(mapping: Mapping, known, owner: str, prefix: str = "") -> None:
    """Reject the first key of `mapping` that `known` does not list, naming it."""
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: not a parameter of {owner}")


def pulse(h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary exp(i theta H / 2) for Hermitian H, via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(0.5j * theta * w)) @ v.conj().T


CZ_HAMILTONIAN = (
    np.kron(SIGMA_Z, SIGMA_Z) - np.kron(SIGMA_Z, SIGMA_I) - np.kron(SIGMA_I, SIGMA_Z)
)

# label -> (pulse Hamiltonian, sigma_z of the qubit it drives, None for CZ).
# Every pulse is a quarter turn; the label order fixes the group's element order.
GENERATORS = {
    2: {"x": (SIGMA_X, SIGMA_Z), "y": (SIGMA_Y, SIGMA_Z)},
    4: {
        "x1": (np.kron(SIGMA_X, SIGMA_I), np.kron(SIGMA_Z, SIGMA_I)),
        "y1": (np.kron(SIGMA_Y, SIGMA_I), np.kron(SIGMA_Z, SIGMA_I)),
        "x2": (np.kron(SIGMA_I, SIGMA_X), np.kron(SIGMA_I, SIGMA_Z)),
        "y2": (np.kron(SIGMA_I, SIGMA_Y), np.kron(SIGMA_I, SIGMA_Z)),
        "cz": (CZ_HAMILTONIAN, None),
    },
}


def generator_mats(
    dim: int, offset: float = 0.0, cz_offset: float = 0.0, tilt: float | None = None
) -> np.ndarray:
    """Transfer matrices of the generators, shape `(n_gen, d^2, d^2)` in label order.

    Each quarter turn is over-rotated by `offset` (`cz_offset` for CZ); with
    a `tilt`, each single-qubit turn is instead followed by a sigma_z pulse
    of that angle on its qubit.  All offsets zero give the ideal generators.
    """
    if dim not in GENERATORS:
        raise ValueError(f"unsupported dimension {dim}")

    def turn(h: np.ndarray, angle: float) -> np.ndarray:
        return unitary_to_superop(pulse(h, angle)).mat

    return np.stack([
        turn(h, np.pi / 2 + cz_offset) if z is None
        else turn(h, np.pi / 2 + offset) if tilt is None
        else turn(z, tilt) @ turn(h, np.pi / 2)
        for h, z in GENERATORS[dim].values()
    ])


# ---------------------------------------------------------------------------
# Elementary channel factories
# ---------------------------------------------------------------------------


def depolarizing(q: float, dim: int = 2) -> SuperOp:
    """Uniform Bloch contraction by q: rho -> q rho + (1 - q) I tr(rho)/d."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizing parameter {q} outside [0, 1]")
    mat = np.eye(dim ** 2) * q
    mat[0, 0] = 1.0
    return SuperOp(dim, mat)


def dephasing(q: float, axis: str = "z") -> SuperOp:
    """Single-qubit phase damping that keeps the given axis and shrinks the rest."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"dephasing parameter {q} outside [0, 1]")
    axes = {"x": 1, "y": 2, "z": 3}
    if not isinstance(axis, str) or axis not in axes:
        raise ValueError(f"unknown dephasing axis {axis!r}")
    diag = np.array([1.0, q, q, q])
    diag[axes[axis]] = 1.0
    return SuperOp(2, np.diag(diag))


def amplitude_damping(gamma: float) -> SuperOp:
    """Single-qubit energy relaxation toward |0><0| with rate gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter {gamma} outside [0, 1]")
    s = np.sqrt(1.0 - gamma)
    mat = np.diag([1.0, s, s, 1.0 - gamma])
    mat[3, 0] = gamma
    return SuperOp(2, mat)


def rotation(axis, angle: float) -> SuperOp:
    """Single-qubit unitary Bloch rotation by `angle` about `axis` (right-hand rule)."""
    n = _axis_vector(axis)
    h = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return unitary_to_superop(pulse(h, -angle))


def _axis_vector(axis) -> np.ndarray:
    """Unit vector of a named axis or of three finite numbers with a finite, non-zero norm."""
    named = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    if isinstance(axis, str):
        if axis not in named:
            raise ValueError(f"unknown axis {axis!r}")
        return np.array(named[axis], dtype=float)
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise ValueError("axis must be a named axis or a list of three numbers")
    n = np.array([finite(f"axis[{i}]", x) for i, x in enumerate(axis)])
    with np.errstate(over="ignore"):  # [1e308, 1e308, 0] overflows to an infinite norm
        norm = np.linalg.norm(n)
    if norm < 1.5e-154 and np.any(n):  # the squares underflow: scale by the largest entry first
        n = n / np.max(np.abs(n))
        norm = np.linalg.norm(n)
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"axis: expected a finite, non-zero norm, got {norm} for {axis!r}")
    return n / norm


def relabeling_channel() -> SuperOp:
    """Exact axis permutation X -> Y -> Z -> X as a transfer matrix."""
    mat = np.zeros((4, 4))
    mat[0, 0] = 1.0
    mat[2, 1] = 1.0  # X component feeds Y
    mat[3, 2] = 1.0  # Y component feeds Z
    mat[1, 3] = 1.0  # Z component feeds X
    return SuperOp(2, mat)


# ---------------------------------------------------------------------------
# Channel specs (the config mini-language)
# ---------------------------------------------------------------------------


def _require_dim(dim: int, wanted: int, what: str) -> None:
    if dim != wanted:
        raise ConfigError(f"{what} requires dimension {wanted}, got {dim}")


def _kron(spec, dim: int) -> SuperOp:
    first, second = (field_channel(key, spec[key], 2).mat for key in ("first", "second"))
    return SuperOp(4, np.kron(first, second))  # the Pauli basis's lexicographic order


# channel kind -> (the parameters it reads, the dimension it needs or None, its builder(spec, dim))
_CHANNELS = {
    "depolarizing": (("q",), None, lambda s, d: depolarizing(finite("q", s["q"]), d)),
    "dephasing": (("q", "axis"), 2, lambda s, d: dephasing(finite("q", s["q"]), s.get("axis", "z"))),
    "amplitude_damping": (("gamma",), 2, lambda s, d: amplitude_damping(finite("gamma", s["gamma"]))),
    "rotation": (("axis", "angle"), 2, lambda s, d: rotation(s.get("axis", "z"), finite("angle", s["angle"]))),
    "relabeling": ((), 2, lambda s, d: relabeling_channel()),
    "kron": (("first", "second"), 4, _kron),
}


def channel_from_spec(spec, dim: int) -> SuperOp:
    """Build a channel from a config dict, or a composition chain from a list.

    A list [s1, s2, ...] composes right to left: s1 acts first.
    """
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ConfigError("empty channel chain")
        op = channel_from_spec(spec[0], dim)
        for item in spec[1:]:
            op = channel_from_spec(item, dim) @ op
        return op
    if not isinstance(spec, Mapping):
        raise ConfigError(f"channel spec must be a mapping or list, got {type(spec).__name__}")
    kind = spec.get("channel")
    if not isinstance(kind, str) or kind not in _CHANNELS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    params, wanted, build = _CHANNELS[kind]
    check_keys(spec, ("channel", *params), kind)
    try:
        if wanted is not None:
            _require_dim(dim, wanted, kind)
        return build(spec, dim)
    except KeyError as exc:
        raise ConfigError(f"channel spec {kind!r} is missing key {exc.args[0]!r}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        fields = ", ".join(f"{key}={value!r}" for key, value in spec.items() if key != "channel")
        raise ConfigError(f"channel spec {kind!r} with {fields}: {exc}") from None


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

# the parameters each model kind may set, each a number or a channel field read by _resolve_errors
_KINDS = {
    "ideal": (),
    "over_rotation": ("epsilon", "cz_epsilon"),
    "z_tilt": ("theta_z", "cz_epsilon"),
    "left": ("error",),
    "right": ("error",),
    "sandwich": ("left", "right"),
    "conjugation": ("unitary",),
}


@dataclass(frozen=True)
class NoiseModel:
    """A named recipe turning an ideal gate-set into a noisy one."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown noise model kind {self.kind!r}")
        check_keys(self.params, _KINDS[self.kind], self.kind, "model.")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def over_rotation(epsilon: float, cz_epsilon: float | None = None) -> "NoiseModel":
        return NoiseModel(
            "over_rotation",
            {"epsilon": float(epsilon), "cz_epsilon": cz_epsilon if cz_epsilon is None else float(cz_epsilon)},
        )

    @staticmethod
    def z_tilt(theta_z: float, cz_epsilon: float = 0.0) -> "NoiseModel":
        return NoiseModel("z_tilt", {"theta_z": float(theta_z), "cz_epsilon": float(cz_epsilon)})

    @staticmethod
    def left(error) -> "NoiseModel":
        return NoiseModel("left", {"error": error})

    @staticmethod
    def right(error) -> "NoiseModel":
        return NoiseModel("right", {"error": error})

    @staticmethod
    def sandwich(left, right) -> "NoiseModel":
        return NoiseModel("sandwich", {"left": left, "right": right})

    @staticmethod
    def conjugation(u) -> "NoiseModel":
        """The frame `U G U'` of a unitary channel `u`: a spec or a `SuperOp` (`unitary_to_superop(m)` of a matrix)."""
        return NoiseModel("conjugation", {"unitary": u})

    @staticmethod
    def composite(factors, side: str = "right") -> "NoiseModel":
        """The chain `factors` as a `left` or `right` error (the spelling `perfbench/` still calls)."""
        if side not in ("left", "right"):
            raise ConfigError(f"side: expected 'left' or 'right', got {side!r}")
        return NoiseModel(side, {"error": list(factors)})

    @staticmethod
    def from_config(cfg: Mapping, dim: int) -> "NoiseModel":
        if not isinstance(cfg, Mapping):
            raise ConfigError("model: expected a mapping with a 'kind' key")
        if "kind" not in cfg:
            raise ConfigError("model.kind: missing")
        kind = cfg["kind"]
        params = {k: v for k, v in cfg.items() if k != "kind"}
        model = NoiseModel(str(kind), params)
        # fail fast on malformed parameters
        _resolve_errors(model, dim)
        return model


def field_channel(field: str, value, dim: int) -> SuperOp:
    """The channel (a SuperOp or a spec) in config field `field`; errors name the field."""
    try:
        if isinstance(value, SuperOp):
            if value.dim != dim:
                raise ConfigError(f"channel has dimension {value.dim}, expected {dim}")
            return value
        return channel_from_spec(value, dim)
    except ConfigError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _resolve_errors(model: NoiseModel, dim: int) -> dict:
    """The one reading of a model's parameters, each checked and named on error.

    Every parameter is a number or a channel field.  Returns the noisy
    generators "gens" of an over-rotation or z-tilt, the frame "u" of a
    conjugation (its channel, checked to be unitary), and the fixed
    "left"/"right" channels composed around every ideal gate.
    """
    p = model.params

    def channel(key: str) -> SuperOp:
        if key not in p:
            raise ConfigError(f"model.{key}: missing for {model.kind}")
        return field_channel(f"model.{key}", p[key], dim)

    def number(key: str, absent: float | None = None) -> float:
        if p.get(key) is None and absent is not None:
            return absent
        if key not in p:
            raise ConfigError(f"model.{key}: missing for {model.kind}")
        return finite(f"model.{key}", p[key])

    if model.kind == "over_rotation":
        eps = number("epsilon")
        return {"gens": generator_mats(dim, offset=eps, cz_offset=number("cz_epsilon", absent=eps))}
    if model.kind == "z_tilt":
        return {"gens": generator_mats(dim, tilt=number("theta_z"), cz_offset=number("cz_epsilon", absent=0.0))}
    if model.kind in ("left", "right"):
        return {model.kind: channel("error")}
    if model.kind == "sandwich":
        return {"left": channel("left"), "right": channel("right")}
    if model.kind == "conjugation":
        frame = channel("unitary")
        try:  # a conjugation's transfer matrix is orthogonal
            check_unitary(frame.mat)
        except ValueError as exc:
            raise ConfigError(f"model.unitary: {exc}") from None
        return {"u": frame}
    return {}  # ideal


@dataclass(frozen=True, eq=False)
class NoisyGateSet:
    """Noisy transfer matrices index-aligned with a group, as one read-only stack.

    `mats` has shape `(N, d^2, d^2)`.  The constructor checks the whole stack
    at once with `SuperOp`'s check, `channels.checked_transfer`, and marks it
    read-only.  It copies only an array that does not own its data, so a
    writable base cannot alias the stack.  `noisy[k]` is element k as a
    checked `SuperOp`.
    """

    dim: int
    mats: np.ndarray

    def __post_init__(self):
        mats = checked_transfer(self.mats, self.dim, 3)
        if not mats.flags.owndata:
            mats = mats.copy()
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, k: int) -> SuperOp:
        return SuperOp(self.dim, self.mats[operator.index(k)])


def build_noisy_gateset(model: NoiseModel, group: "CliffordGroup") -> NoisyGateSet:
    """Noisy transfer matrices, index-aligned with the ideal group, as one stack."""
    fixed = _resolve_errors(model, group.dim)
    mats = group.replay(fixed["gens"]) if "gens" in fixed else group.transfer_mats()
    if "u" in fixed:  # the conjugation frame
        mats = fixed["u"].mat @ mats @ fixed["u"].mat.T
    if "right" in fixed:
        mats = mats @ fixed["right"].mat
    if "left" in fixed:
        mats = fixed["left"].mat @ mats
    return NoisyGateSet(group.dim, mats)

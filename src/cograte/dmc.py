"""Exact finite-alphabet evaluation of the discrete-memoryless regions.

A channel is a pair of kernels p(y1|x1) and p(y2|x1,x2).  Input
distributions are stored only as the factors of the coding scheme they
belong to (so the required factorization holds by construction) and the
joint table is materialized on demand.  Five variants exist:

* ``full``  p(u1)p(v2)p(w1,w2|v2,u1)p(x1|w1,w2,v2,u1)p(x2|v2)
* ``r1``    p(v2)p(w1,w2|v2)p(x1|w1,w2,v2)p(x2|v2)
* ``r2``    p(u1)p(v2)p(x1|v2,u1)p(x2|v2)
* ``r3``    p(u1,v2)p(x1|v2,u1)p(x2|v2)
* ``outer`` p(u,x1,x2)

Each eval_* operation turns one distribution into the pentagon of its rate
bounds; negative first bounds mark the pentagon EMPTY rather than being
clamped.  Axis letters used throughout: u=u1, v=v2, a=w1, b=w2, c=u (the
outer bound's cooperative u), x=x1, z=x2, m=y1, n=y2.  The ``_FACTORS``
table is the single source of each factorization: the joint's axes, its
einsum and the auxiliaries are all derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_union
from .model import Pentagon

_ROW_TOL = 1e-12
_NORM_TOL = 1e-9

#: Largest joint table materialized before refusing (entries, not bytes).
MAX_JOINT_ENTRIES = 10**8

#: Variable name per axis letter.
_VARS = {"u": "u1", "v": "v2", "a": "w1", "b": "w2", "c": "u", "x": "x1", "z": "x2"}

#: Factors per variant in sampling order (which fixes the RNG draw order):
#: (name, axis letters, number of trailing distribution axes).
_FACTORS = {
    "full": (
        ("pu1", "u", 0), ("pv2", "v", 0), ("pw12", "uvab", 2),
        ("px1", "uvabx", 1), ("px2", "vz", 1),
    ),
    "r1": (("pv2", "v", 0), ("pw12", "vab", 2), ("px1", "vabx", 1), ("px2", "vz", 1)),
    "r2": (("pu1", "u", 0), ("pv2", "v", 0), ("px1", "uvx", 1), ("px2", "vz", 1)),
    "r3": (("puv", "uv", 0), ("px1", "uvx", 1), ("px2", "vz", 1)),
    "outer": (("puxx", "cxz", 0),),
}

VARIANTS = tuple(_FACTORS)

#: Joint axes (letters in order of first appearance), the einsum that
#: multiplies the factors into the joint, and the auxiliary variable names.
_JOINT_AXES = {
    v: "".join(dict.fromkeys("".join(axes for _, axes, _ in fs))) for v, fs in _FACTORS.items()
}
_JOINT_EINSUM = {
    v: ",".join(axes for _, axes, _ in fs) + "->" + _JOINT_AXES[v] for v, fs in _FACTORS.items()
}
_AUX = {v: tuple(_VARS[c] for c in axes if c not in "xz") for v, axes in _JOINT_AXES.items()}


def _check_stochastic(name: str, arr: np.ndarray, block_ndim: int) -> np.ndarray:
    """Validate a factor whose trailing block_ndim axes form a distribution."""
    a = np.asarray(arr, dtype=float)
    if a.ndim < max(block_ndim, 1):
        raise ValueError(f"{name} needs at least {block_ndim} axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise ValueError(f"{name} entries must be finite and >= 0")
    block = tuple(range(a.ndim - block_ndim, a.ndim)) if block_ndim else None
    sums = a.sum(axis=block) if block else a.sum()
    if not np.all(np.abs(sums - 1.0) <= _ROW_TOL):
        raise ValueError(f"{name} rows must sum to 1 within {_ROW_TOL}")
    return a


@dataclass(frozen=True)
class DmcChannel:
    """Finite-alphabet channel: kernels p(y1|x1) and p(y2|x1,x2).

    k1 is nx1 x ny1; k2 is (nx1*nx2) x ny2 with row index x1*nx2 + x2.
    """

    nx1: int
    nx2: int
    ny1: int
    ny2: int
    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        for nm in ("nx1", "nx2", "ny1", "ny2"):
            if getattr(self, nm) < 1:
                raise ValueError(f"{nm} must be >= 1")
        k1 = _check_stochastic("k1", self.k1, 1)
        k2 = _check_stochastic("k2", self.k2, 1)
        if k1.shape != (self.nx1, self.ny1):
            raise ValueError(f"k1 shape {k1.shape} does not match ({self.nx1}, {self.ny1})")
        if k2.shape != (self.nx1 * self.nx2, self.ny2):
            raise ValueError(
                f"k2 shape {k2.shape} does not match ({self.nx1 * self.nx2}, {self.ny2})"
            )
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    @classmethod
    def from_kernels(cls, k1: np.ndarray, k2_cube: np.ndarray) -> "DmcChannel":
        """Build from p(y1|x1) as (nx1, ny1) and p(y2|x1,x2) as (nx1, nx2, ny2)."""
        k1 = np.asarray(k1, dtype=float)
        cube = np.asarray(k2_cube, dtype=float)
        if k1.ndim != 2 or cube.ndim != 3 or cube.shape[0] != k1.shape[0]:
            raise ValueError("kernel shapes are inconsistent")
        nx1, ny1 = k1.shape
        _, nx2, ny2 = cube.shape
        return cls(nx1, nx2, ny1, ny2, k1, cube.reshape(nx1 * nx2, ny2))

    @property
    def k2_cube(self) -> np.ndarray:
        """k2 reshaped to (nx1, nx2, ny2) for tensor contractions."""
        return self.k2.reshape(self.nx1, self.nx2, self.ny2)


@dataclass(frozen=True)
class FactoredDist:
    """An input distribution stored as the factors of one scheme variant."""

    variant: str
    factors: dict = field(repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        spec = _FACTORS[self.variant]
        names = sorted(name for name, _, _ in spec)
        if set(self.factors) != set(names):
            raise ValueError(
                f"variant {self.variant!r} needs factors {names}, got {sorted(self.factors)}"
            )
        sizes: dict[str, int] = {}
        checked = {}
        for name, axes, block in spec:
            arr = _check_stochastic(name, self.factors[name], block)
            template = tuple(_VARS[c] for c in axes)
            if arr.ndim != len(template):
                raise ValueError(f"{name} must have axes {template}, got shape {arr.shape}")
            for sym, n in zip(template, arr.shape):
                if sizes.setdefault(sym, n) != n:
                    raise ValueError(
                        f"{name} axis {sym} has size {n}, inconsistent with {sizes[sym]}"
                    )
            checked[name] = arr
        object.__setattr__(self, "factors", checked)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def sizes(self) -> dict:
        """Alphabet size per variable symbol, derived from factor shapes."""
        return dict(self._sizes)

    def joint(self) -> np.ndarray:
        """Materialize the joint table over the variant's input variables.

        Axis order: full (u1,v2,w1,w2,x1,x2); r1 (v2,w1,w2,x1,x2);
        r2 and r3 (u1,v2,x1,x2); outer (u,x1,x2).
        """
        n_entries = math.prod(self._sizes[_VARS[c]] for c in _JOINT_AXES[self.variant])
        if n_entries > MAX_JOINT_ENTRIES:
            raise ValueError(
                f"joint table would need {n_entries} entries "
                f"(limit {MAX_JOINT_ENTRIES}); shrink the alphabets"
            )
        spec = _FACTORS[self.variant]
        return np.einsum(_JOINT_EINSUM[self.variant], *(self.factors[n] for n, _, _ in spec))


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a 2-D probability table over (A, B).

    0 log 0 terms drop out; the result is clamped to 0 from below once it
    is within roundoff of it.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"mutual information needs a 2-D table, got {t.ndim}-D")
    _check_table(t)
    pa = t.sum(axis=1)
    pb = t.sum(axis=0)
    mask = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log2(t / (pa[:, None] * pb[None, :]))
    mi = float(np.sum(terms[mask]))
    return _guard_mi(mi, min(t.shape))


def conditional_mi(joint: np.ndarray) -> float:
    """I(A;B|C) in bits from a 3-D probability table over (A, B, C)."""
    t = np.asarray(joint, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"conditional mutual information needs a 3-D table, got {t.ndim}-D")
    _check_table(t)
    pac = t.sum(axis=1)
    pbc = t.sum(axis=0)
    pc = pac.sum(axis=0)
    mask = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log2(t * pc[None, None, :] / (pac[:, None, :] * pbc[None, :, :]))
    mi = float(np.sum(terms[mask]))
    return _guard_mi(mi, min(t.shape[0], t.shape[1]))


def _check_table(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError("probability table entries must be finite and >= 0")
    if abs(float(t.sum()) - 1.0) > _NORM_TOL:
        raise ValueError(f"probability table sums to {t.sum()!r}, not 1")


def _guard_mi(mi: float, n_min: int) -> float:
    if mi < -1e-12:
        raise FloatingPointError(f"mutual information came out negative: {mi}")
    cap = np.log2(n_min) if n_min > 1 else 0.0
    if mi > cap + _NORM_TOL:
        raise FloatingPointError(f"mutual information {mi} exceeds its alphabet cap {cap}")
    return max(mi, 0.0)


def _table(joint: np.ndarray, groups) -> np.ndarray:
    """Marginalize to the listed axes and merge each group into one axis."""
    keep = [ax for g in groups for ax in g]
    other = tuple(i for i in range(joint.ndim) if i not in keep)
    t = joint.sum(axis=other) if other else joint
    order = {ax: i for i, ax in enumerate(sorted(keep))}
    t = np.transpose(t, [order[ax] for ax in keep])
    dims = []
    k = 0
    for g in groups:
        n = 1
        for _ in g:
            n *= t.shape[k]
            k += 1
        dims.append(n)
    return t.reshape(dims)


def _mi(joint, a, b) -> float:
    return mutual_information(_table(joint, (a, b)))


def _cmi(joint, a, b, c) -> float:
    return conditional_mi(_table(joint, (a, b, c)))


def _joint(d: FactoredDist, ch: DmcChannel, variant: str) -> np.ndarray:
    """Joint table of d, once d is of the variant and matches ch's inputs."""
    if d.variant != variant:
        raise ValueError(f"expected a {variant!r} distribution, got {d.variant!r}")
    s = d.sizes
    if (s["x1"], s["x2"]) != (ch.nx1, ch.nx2):
        raise ValueError(
            f"distribution alphabets (x1={s['x1']}, x2={s['x2']}) "
            f"do not match channel ({ch.nx1}, {ch.nx2})"
        )
    return d.joint()


def eval_region_R(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the full scheme: rate splitting plus double binning.

    Bounds: r1 = I(U1,W1;Y1) - I(W1;V2|U1); r2 = I(V2,W2;Y2|U1);
    sum = min over the two decoder orders, each with the binning penalty
    I(W1;W2,V2|U1) subtracted.
    """
    base = _joint(d, ch, "full")  # (u, v, a, b, x, z)
    t_y1 = np.einsum("uvabxz,xm->uvabm", base, ch.k1)
    t_y2 = np.einsum("uvabxz,xzn->uvabn", base, ch.k2_cube)
    aux = base.sum(axis=(4, 5))  # (u, v, a, b)

    i_uw_y1 = _mi(t_y1, (0, 2), (4,))
    i_w_v_u = _cmi(aux, (2,), (1,), (0,))
    i_vw_y2_u = _cmi(t_y2, (1, 3), (4,), (0,))
    penalty = _cmi(aux, (2,), (3, 1), (0,))
    i_vwu_y2 = _mi(t_y2, (1, 3, 0), (4,))
    i_w_y1_u = _cmi(t_y1, (2,), (4,), (0,))

    r1 = i_uw_y1 - i_w_v_u
    r2 = i_vw_y2_u
    s = min(r2 + i_uw_y1 - penalty, i_vwu_y2 + i_w_y1_u - penalty)
    return Pentagon(r1, r2, s)


def eval_region_R1(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the no-common-layer scheme (binning only)."""
    base = _joint(d, ch, "r1")  # (v, a, b, x, z)
    t_y1 = np.einsum("vabxz,xm->vabm", base, ch.k1)
    t_y2 = np.einsum("vabxz,xzn->vabn", base, ch.k2_cube)
    aux = base.sum(axis=(3, 4))  # (v, a, b)

    i_w_y1 = _mi(t_y1, (1,), (3,))
    i_w_v = _mi(aux, (1,), (0,))
    i_vw_y2 = _mi(t_y2, (0, 2), (3,))
    penalty = _mi(aux, (1,), (2, 0))

    return Pentagon(i_w_y1 - i_w_v, i_vw_y2, i_vw_y2 + i_w_y1 - penalty)


def eval_region_R2(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the superposition-only scheme."""
    base = _joint(d, ch, "r2")  # (u, v, x, z)
    t_y1 = np.einsum("uvxz,xm->uvm", base, ch.k1)
    t_y2 = np.einsum("uvxz,xzn->uvn", base, ch.k2_cube)

    r1 = _mi(t_y1, (0,), (2,))
    r2 = _cmi(t_y2, (1,), (2,), (0,))
    s = _mi(t_y2, (1, 0), (2,))
    return Pentagon(r1, r2, s)


def eval_region_R3(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the precoded-common-message scheme ((U1,V2) correlated)."""
    base = _joint(d, ch, "r3")  # (u, v, x, z)
    t_y1 = np.einsum("uvxz,xm->uvm", base, ch.k1)
    t_y2 = np.einsum("uvxz,xzn->uvn", base, ch.k2_cube)

    r1 = _mi(t_y1, (0,), (2,)) - _mi(base.sum(axis=(2, 3)), (0,), (1,))
    r2 = _mi(t_y2, (1,), (0, 2))
    s = _mi(t_y2, (0, 1), (2,))
    return Pentagon(r1, r2, s)


def eval_outer_co2_dmc(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the finite-alphabet outer bound at one p(u,x1,x2)."""
    base = _joint(d, ch, "outer")  # (c, x, z)
    t_y1 = np.einsum("cxz,xm->cxzm", base, ch.k1)
    t_y2 = np.einsum("cxz,xzn->cxzn", base, ch.k2_cube)

    r1 = min(_cmi(t_y1, (1,), (3,), (2,)), _mi(t_y1, (0,), (3,)))
    r2 = _cmi(t_y2, (1, 2), (3,), (0,))
    s = _mi(t_y2, (1, 2), (3,))
    return Pentagon(r1, r2, s)


@dataclass(frozen=True)
class HighInterferenceReport:
    """Sampled check of I(X1;Y1|X2) <= I(X1;Y2|X2) over input distributions.

    A negative worst_margin refutes the condition (witness holds the
    offending p(x1,x2)); a nonnegative one is evidence only, since the
    condition quantifies over all input distributions.
    """

    holds_on_samples: bool
    worst_margin: float
    witness: np.ndarray | None


def check_high_interference(
    ch: DmcChannel, n_samples: int, seed: int = 0
) -> HighInterferenceReport:
    """Sample joint inputs p(x1,x2) and compare the two cross informations.

    margin = I(X1;Y2|X2) - I(X1;Y1|X2) per sample; margins below -1e-9
    count as refutations (smaller wobbles are roundoff on equality cases).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    worst = np.inf
    witness = None
    cube = ch.k2_cube
    for i in range(n_samples):
        rng = np.random.default_rng((seed, i))
        pxx = rng.dirichlet(np.ones(ch.nx1 * ch.nx2)).reshape(ch.nx1, ch.nx2)
        t_y1 = np.einsum("xz,xm->xzm", pxx, ch.k1)
        t_y2 = np.einsum("xz,xzn->xzn", pxx, cube)
        margin = _cmi(t_y2, (0,), (2,), (1,)) - _cmi(t_y1, (0,), (2,), (1,))
        if margin < worst:
            worst = margin
            witness = pxx
    holds = worst >= -1e-9
    return HighInterferenceReport(
        holds_on_samples=holds,
        worst_margin=float(worst),
        witness=None if holds else witness,
    )


def _dirichlet_rows(rng: np.random.Generator, shape: tuple, block_ndim: int) -> np.ndarray:
    """Sample a stochastic factor: Dirichlet(1) over each trailing block."""
    if block_ndim == 0:
        k = int(np.prod(shape))
        return rng.dirichlet(np.ones(k)).reshape(shape)
    rows = int(np.prod(shape[:-block_ndim]))
    k = int(np.prod(shape[-block_ndim:]))
    return rng.dirichlet(np.ones(k), size=rows).reshape(shape)


def random_dist(
    variant: str,
    ch: DmcChannel,
    aux_sizes: dict | None = None,
    rng: np.random.Generator | None = None,
) -> FactoredDist:
    """Draw one FactoredDist with every factor row Dirichlet(1).

    aux_sizes overrides the default auxiliary alphabet sizes (which mirror
    the driving input's alphabet; the cooperative u defaults to nx1*nx2).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    mirror = {"u": ch.nx1, "a": ch.nx1, "b": ch.nx1, "x": ch.nx1, "v": ch.nx2, "z": ch.nx2,
              "c": ch.nx1 * ch.nx2}
    sizes = {_VARS[c]: mirror[c] for c in _JOINT_AXES[variant]}
    for key, val in (aux_sizes or {}).items():
        if key not in _AUX[variant]:
            raise ValueError(f"variant {variant!r} has no auxiliary {key!r}")
        if val < 1:
            raise ValueError(f"auxiliary {key!r} size must be >= 1, got {val}")
        sizes[key] = int(val)
    rng = rng if rng is not None else np.random.default_rng(0)
    factors = {
        name: _dirichlet_rows(rng, tuple(sizes[_VARS[c]] for c in axes), block)
        for name, axes, block in _FACTORS[variant]
    }
    return FactoredDist(variant, factors)


_EVALUATORS = {
    "full": eval_region_R,
    "r1": eval_region_R1,
    "r2": eval_region_R2,
    "r3": eval_region_R3,
    "outer": eval_outer_co2_dmc,
}


def random_search_region(
    ch: DmcChannel,
    variant: str,
    aux_sizes: dict | None = None,
    n_samples: int = 1000,
    seed: int = 0,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the variant's pentagons over sampled input distributions.

    Per-sample PRNG substreams are derived from (seed, sample index), so a
    fixed seed gives a bit-identical region regardless of chunking.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    evaluate = _EVALUATORS[variant]
    pentagons = []
    n_empty = 0
    for i in range(n_samples):
        rng = np.random.default_rng((seed, i))
        pent = evaluate(random_dist(variant, ch, aux_sizes, rng), ch)
        if pent.is_empty():
            n_empty += 1
        else:
            pentagons.append(pent)
    if not pentagons:
        raise ValueError(
            f"all {n_samples} sampled pentagons are EMPTY for variant {variant!r} "
            f"(seed {seed}); the first bound never came out nonnegative"
        )
    return hull_of_union(
        pentagons,
        n_directions,
        provenance=f"{variant}-search(n={n_samples},seed={seed})",
    )

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
outer bound's cooperative u), x=x1, z=x2, m=y1, n=y2, and s for the leading
sample axis.  The ``_FACTORS`` table is the single source of each
factorization: the joint's axes, its einsum and the auxiliaries are all
derived from it.  Likewise ``_BOUNDS`` is the single source of each
variant's rate bounds, written as informations in these letters, and one
routine evaluates them and the high-interference margin.  It reads the
strings once per (axis letters, bound set) into a cached plan: which table
each information reads, which axes it sums and merges, and the signed min
of each bound; a call then only runs numpy on the data.  A batch of joint
tables is validated once, where it enters that routine (sampled factors
also where they are drawn); the tables derived from it are not checked
again.

Every evaluation runs on a batch of samples stacked along the leading axis
s; the single-distribution API is a batch of one.  A random search or
check draws its samples in order from one np.random.default_rng(seed).
Every sample takes the same number of variates and the arithmetic of each
sample does not depend on the batch it sits in, so a search gives the same
bits however its samples are chunked.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_slabs
from .model import Pentagon

_ROW_TOL = 1e-12
_NORM_TOL = 1e-9

#: Largest joint table materialized before refusing (entries, not bytes).
MAX_JOINT_ENTRIES = 10**8

#: Table entries per chunk of a random search: samples times the entries of
#: a sample's largest table, a joint times one output alphabet.
_CHUNK_ENTRIES = 2**18

#: Variable name per axis letter.
_VARS = {"u": "u1", "v": "v2", "a": "w1", "b": "w2", "c": "u", "x": "x1", "z": "x2"}

#: Factors per variant in sampling order (which fixes the RNG draw order):
#: (name, axis letters, number of trailing axes one distribution spans).
_FACTORS = {
    "full": (
        ("pu1", "u", 1), ("pv2", "v", 1), ("pw12", "uvab", 2),
        ("px1", "uvabx", 1), ("px2", "vz", 1),
    ),
    "r1": (("pv2", "v", 1), ("pw12", "vab", 2), ("px1", "vabx", 1), ("px2", "vz", 1)),
    "r2": (("pu1", "u", 1), ("pv2", "v", 1), ("px1", "uvx", 1), ("px2", "vz", 1)),
    "r3": (("puv", "uv", 2), ("px1", "uvx", 1), ("px2", "vz", 1)),
    "outer": (("puxx", "cxz", 3),),
}

VARIANTS = tuple(_FACTORS)

#: Joint axes (letters in order of first appearance), the einsum that
#: multiplies a batch of factors into a batch of joints, and the auxiliary
#: variable names.
_JOINT_AXES = {
    v: "".join(dict.fromkeys("".join(axes for _, axes, _ in fs))) for v, fs in _FACTORS.items()
}
_JOINT_EINSUM = {
    v: ",".join("s" + axes for _, axes, _ in fs) + "->s" + _JOINT_AXES[v]
    for v, fs in _FACTORS.items()
}
_AUX = {v: tuple(_VARS[c] for c in axes if c not in "xz") for v, axes in _JOINT_AXES.items()}

#: Rate bounds per variant, (r1, r2, sum), in the axis letters: each is the
#: min over its comma-separated alternatives, each a left-to-right signed
#: sum of informations "A;B" = I(A;B) and "A;B|C" = I(A;B|C).
_BOUNDS = {
    "full": (
        "ua;m - a;v|u",
        "vb;n|u",
        "vb;n|u + ua;m - a;bv|u, vbu;n + a;m|u - a;bv|u",
    ),
    "r1": ("a;m - a;v", "vb;n", "vb;n + a;m - a;bv"),
    "r2": ("u;m", "v;n|u", "vu;n"),
    "r3": ("u;m - u;v", "v;un", "uv;n"),
    "outer": ("x;m|z, c;m", "xz;n|c", "xz;n"),
}

#: High-interference margin I(X1;Y2|X2) - I(X1;Y1|X2) over a p(x1,x2) joint.
_MARGIN = ("x;n|z - x;m|z",)


def _check_stochastic(name: str, arr: np.ndarray, block_ndim: int) -> np.ndarray:
    """Validate a factor whose trailing block_ndim axes form a distribution."""
    a = np.asarray(arr, dtype=float)
    if a.ndim < block_ndim:
        raise ValueError(f"{name} needs at least {block_ndim} axes, got shape {a.shape}")
    if not np.isfinite(a).all() or (a < 0.0).any():
        raise ValueError(f"{name} entries must be finite and >= 0")
    sums = a.sum(axis=tuple(range(a.ndim - block_ndim, a.ndim)))
    if not (np.abs(sums - 1.0) <= _ROW_TOL).all():
        raise ValueError(f"{name} rows must sum to 1 within {_ROW_TOL}")
    return a


def _check_joint_entries(variant: str, sizes: dict) -> int:
    """Entries of one joint table of the variant; refuses above MAX_JOINT_ENTRIES."""
    n_entries = math.prod(sizes[_VARS[c]] for c in _JOINT_AXES[variant])
    if n_entries > MAX_JOINT_ENTRIES:
        raise ValueError(
            f"joint table would need {n_entries} entries "
            f"(limit {MAX_JOINT_ENTRIES}); shrink the alphabets"
        )
    return n_entries


def _joints(variant: str, factors: dict) -> np.ndarray:
    """Batch of joint tables from a batch of the variant's factors."""
    return np.einsum(_JOINT_EINSUM[variant], *(factors[n] for n, _, _ in _FACTORS[variant]))


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
        _check_joint_entries(self.variant, self._sizes)
        return _joints(self.variant, {n: f[None] for n, f in self.factors.items()})[0]


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a 2-D probability table over (A, B).

    0 log 0 terms drop out; the result is clamped to 0 from below once it
    is within roundoff of it.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"mutual information needs a 2-D table, got {t.ndim}-D")
    _check_table(t[None])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_mutual_information(t[None])[0])


def conditional_mi(joint: np.ndarray) -> float:
    """I(A;B|C) in bits from a 3-D probability table over (A, B, C)."""
    t = np.asarray(joint, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"conditional mutual information needs a 3-D table, got {t.ndim}-D")
    _check_table(t[None])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_conditional_mi(t[None])[0])


def _mutual_information(t: np.ndarray) -> np.ndarray:
    """I(A;B) per sample of a batch of checked tables over (s, A, B).

    The caller ignores divide and invalid, whose results the mask drops.
    """
    pa = t.sum(axis=2)
    pb = t.sum(axis=1)
    terms = t * np.log2(t / (pa[:, :, None] * pb[:, None, :]))

    def in_logs(i):
        logs = np.log2(t[i]) - np.log2(pa[i][:, :, None]) - np.log2(pb[i][:, None, :])
        return _masked_sum(t[i], t[i] * logs)

    return _guard_mi(_masked_sum(t, terms), min(t.shape[1:]), in_logs)


def _conditional_mi(t: np.ndarray) -> np.ndarray:
    """I(A;B|C) per sample of a batch of checked tables over (s, A, B, C).

    The caller ignores divide and invalid, whose results the mask drops.
    """
    pac = t.sum(axis=2)
    pbc = t.sum(axis=1)
    pc = pac.sum(axis=1)
    terms = t * np.log2(
        t * pc[:, None, None, :] / (pac[:, :, None, :] * pbc[:, None, :, :])
    )

    def in_logs(i):
        logs = (np.log2(t[i]) + np.log2(pc[i][:, None, None, :])
                - np.log2(pac[i][:, :, None, :]) - np.log2(pbc[i][:, None, :, :]))
        return _masked_sum(t[i], t[i] * logs)

    return _guard_mi(_masked_sum(t, terms), min(t.shape[1], t.shape[2]), in_logs)


def _masked_sum(t: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-sample sum of the terms where the table is positive (0 log 0 = 0)."""
    return np.where(t > 0.0, terms, 0.0).reshape(len(t), -1).sum(axis=1)


def _check_table(t: np.ndarray) -> None:
    """Validate every table of a batch; the first bad sample is reported."""
    if not np.isfinite(t).all() or (t < 0.0).any():
        raise ValueError("probability table entries must be finite and >= 0")
    off = np.abs(t.reshape(len(t), -1).sum(axis=1) - 1.0) > _NORM_TOL
    if off.any():
        raise ValueError(f"probability table sums to {t[np.argmax(off)].sum()!r}, not 1")


def _guard_mi(mi: np.ndarray, n_min: int, in_logs=None) -> np.ndarray:
    """The informations mi, clamped to 0 from below, each checked against
    [-1e-12, log2(n_min) + _NORM_TOL]; NaN fails both tests.

    A product of table entries can underflow, and the ratio of the terms
    is then 0/0 or off by orders of magnitude.  in_logs, when given,
    recomputes the samples of a mask from the logarithms of the entries
    and marginals, and it is called on the samples whose sum is not finite
    before any is refused.
    """
    cap = np.log2(n_min) if n_min > 1 else 0.0
    low = mi >= -1e-12
    ok = low & (mi <= cap + _NORM_TOL)
    if not ok.all():
        redo = ~np.isfinite(mi)
        if in_logs is not None and redo.any():
            mi = mi.copy()
            mi[redo] = in_logs(redo)
            return _guard_mi(mi, n_min)
        i = int(np.argmin(ok))
        if np.isnan(mi[i]):
            raise FloatingPointError("mutual information came out NaN")
        if not low[i]:
            raise FloatingPointError(f"mutual information came out negative: {float(mi[i])}")
        raise FloatingPointError(
            f"mutual information {float(mi[i])} exceeds its alphabet cap {cap}"
        )
    return np.where(mi < 0.0, 0.0, mi)


class _Info(NamedTuple):
    """How one information is read off its table.

    table is "m" or "n" for the joints pushed through k1 or k2, "" for the
    auxiliaries alone; other are the table's axes summed away, perm the
    transpose of the rest into group order, and groups the table's axes
    (after s) merged into each axis of I(A;B) (two groups) or I(A;B|C)
    (three).
    """

    table: str
    other: tuple
    perm: tuple
    groups: tuple


class _Plan(NamedTuple):
    """What _evaluate does to a batch of joints, read off the bound strings.

    tables pairs each table an information reads with the einsum subscripts
    that push the joints through its kernel, or with the x and z axes that
    are summed away; infos are the distinct informations in order of first
    appearance; bounds hold, per bound and alternative, the index of the
    first information and the (sign, index) of each one after it.
    """

    tables: tuple
    infos: tuple
    bounds: tuple


@functools.lru_cache(maxsize=16)
def _plan(letters: str, bounds: tuple) -> _Plan:
    """The plan of the bounds over joints whose axes after s are the letters.

    An information naming m (y1) or n (y2) is read off the joints pushed
    through k1 or k2, which keep the auxiliaries and any of x, z a bound
    names; any other off the auxiliaries alone.  The keys are a variant's
    letters with its _BOUNDS, or "xz" with _MARGIN: six plans in all.
    """
    alts = [[alt.split() for alt in bound.split(",")] for bound in bounds]
    names = list(dict.fromkeys(t for bound in alts for alt in bound for t in alt[::2]))
    named = set("".join(names))
    aux = "".join(c for c in letters if c not in "xz")
    kept = "".join(c for c in letters if c in aux or c in named)
    tables, infos = {}, []
    for t in names:
        out = "m" if "m" in t else "n" if "n" in t else ""
        axes = kept + out if out else aux
        if out not in tables:
            tables[out] = (f"s{letters},xm->s{axes}" if out == "m"
                           else f"s{letters},xzn->s{axes}" if out == "n"
                           else tuple(1 + letters.index(c) for c in "xz"))
        groups = [tuple(axes.index(c) for c in g) for g in t.replace("|", ";").split(";")]
        keep = [ax for g in groups for ax in g]
        order = {ax: i + 1 for i, ax in enumerate(sorted(keep))}
        infos.append(_Info(out, tuple(i + 1 for i in range(len(axes)) if i not in keep),
                           (0, *(order[ax] for ax in keep)),
                           tuple(tuple(ax + 1 for ax in g) for g in groups)))
    index = {t: i for i, t in enumerate(names)}
    return _Plan(tuple(tables.items()), tuple(infos), tuple(
        tuple((index[alt[0]], tuple((sign, index[t]) for sign, t in zip(alt[1::2], alt[2::2])))
              for alt in bound)
        for bound in alts))


def _evaluate(joints: np.ndarray, letters: str, bounds: tuple, ch: DmcChannel) -> list:
    """Each bound of a batch of joint tables whose axes after s are the letters.

    A bound is the min over its comma-separated alternatives, each a signed
    sum of informations "A;B" or "A;B|C" taken left to right.  The plan of
    the bounds is built once per (letters, bounds); each distinct
    information is computed once per call.  The batch is validated here,
    where it enters, and the tables derived from it are not checked again.
    """
    plan = _plan(letters, bounds)
    _check_table(joints)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = {out: np.einsum(src, joints, ch.k1 if out == "m" else ch.k2_cube) if out
                  else joints.sum(axis=src) for out, src in plan.tables}
        infos = []
        for info in plan.infos:
            src = tables[info.table]
            t = src.sum(axis=info.other) if info.other else src
            t = t.transpose(info.perm).reshape(
                [len(t)] + [math.prod(src.shape[ax] for ax in g) for g in info.groups])
            mi = _mutual_information if len(info.groups) == 2 else _conditional_mi
            infos.append(mi(t))
        result = []
        for bound in plan.bounds:
            sums = []
            for first, rest in bound:
                acc = infos[first]
                for sign, i in rest:
                    acc = acc + infos[i] if sign == "+" else acc - infos[i]
                sums.append(acc)
            result.append(functools.reduce(np.minimum, sums))
    return result


def _eval_dist(d: FactoredDist, ch: DmcChannel, variant: str) -> Pentagon:
    """The pentagon of d, once d is of the variant and matches ch."""
    if d.variant != variant:
        raise ValueError(f"expected a {variant!r} distribution, got {d.variant!r}")
    s = d.sizes
    if (s["x1"], s["x2"]) != (ch.nx1, ch.nx2):
        raise ValueError(
            f"distribution alphabets (x1={s['x1']}, x2={s['x2']}) "
            f"do not match channel ({ch.nx1}, {ch.nx2})"
        )
    bounds = _evaluate(d.joint()[None], _JOINT_AXES[variant], _BOUNDS[variant], ch)
    return Pentagon(*(float(b[0]) for b in bounds))


def eval_region_R(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the full scheme: rate splitting plus double binning.

    Bounds: r1 = I(U1,W1;Y1) - I(W1;V2|U1); r2 = I(V2,W2;Y2|U1);
    sum = min over the two decoder orders, each with the binning penalty
    I(W1;W2,V2|U1) subtracted.
    """
    return _eval_dist(d, ch, "full")


def eval_region_R1(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the no-common-layer scheme (binning only)."""
    return _eval_dist(d, ch, "r1")


def eval_region_R2(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the superposition-only scheme."""
    return _eval_dist(d, ch, "r2")


def eval_region_R3(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the precoded-common-message scheme ((U1,V2) correlated)."""
    return _eval_dist(d, ch, "r3")


def eval_outer_co2_dmc(d: FactoredDist, ch: DmcChannel) -> Pentagon:
    """Pentagon of the finite-alphabet outer bound at one p(u,x1,x2)."""
    return _eval_dist(d, ch, "outer")


def _dirichlet(rng: np.random.Generator, n: int, shapes: list) -> list:
    """n samples of Dirichlet(1) arrays of the given (shape, block) pairs.

    Each block of trailing axes is one distribution; the n samples are
    stacked along a leading axis.  Bit for bit what
    rng.dirichlet(np.ones(k), size=rows) gives per shape, in order, sample
    after sample: with all-ones alpha numpy draws standard exponentials
    (gamma(1) variates) row by row, sums each row left to right and
    multiplies it by the reciprocal of the sum.  Here one
    standard_exponential call draws that same run of variates for all n
    samples; it keeps no state between calls beyond the bit generator's, so
    drawing n samples at once or in parts gives the same bits.
    """
    counts = [math.prod(shape) for shape, _ in shapes]
    draws = rng.standard_exponential((n, sum(counts)))
    out, lo = [], 0
    for (shape, block), count in zip(shapes, counts):
        k = math.prod(shape[len(shape) - block:])
        rows = draws[:, lo:lo + count].reshape(n, -1, k)
        # cumsum is sequential, so its last column is numpy's running sum
        rows = rows * (1.0 / np.cumsum(rows, axis=-1)[..., -1:])
        out.append(rows.reshape(n, *shape))
        lo += count
    return out


def _sample_factors(variant: str, sizes: dict, rng: np.random.Generator, n: int) -> dict:
    """The variant's factors for the next n samples of rng, stacked along axis s.

    Sample after sample, these are the factors of n random_dist calls on rng.
    """
    spec = _FACTORS[variant]
    shapes = [(tuple(sizes[_VARS[c]] for c in axes), block) for _, axes, block in spec]
    return dict(zip((name for name, _, _ in spec), _dirichlet(rng, n, shapes)))


def _alphabet_sizes(variant: str, ch: DmcChannel, aux_sizes: dict | None) -> dict:
    """Alphabet size per variable of the variant's joint.

    The auxiliaries mirror the alphabet of the input they drive (the
    cooperative u defaults to nx1*nx2); aux_sizes overrides them.
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
    return sizes


def _chunks(n_samples: int, entries_per_sample: int) -> list:
    """Sample counts of consecutive chunks of at most _CHUNK_ENTRIES table entries each."""
    step = max(1, _CHUNK_ENTRIES // entries_per_sample)
    return [min(step, n_samples - lo) for lo in range(0, n_samples, step)]


def _check_sampling(n_samples: int, seed: int) -> None:
    """Refuse a sample count below one or a seed that is not a non-negative integer.

    np.random.default_rng would take None (fresh OS entropy), a Generator
    or an array as its seed, so the seed is checked before it is used.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if operator.index(seed) < 0:
        raise ValueError("expected non-negative integer")


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
    Sample i is the i-th Dirichlet(1) draw from the one generator
    np.random.default_rng(seed); the witness is the first sample with the
    smallest margin.
    """
    _check_sampling(n_samples, seed)
    rng = np.random.default_rng(seed)
    shape = (ch.nx1, ch.nx2)
    worst, witness = math.inf, None
    for n in _chunks(n_samples, math.prod(shape) * max(ch.ny1, ch.ny2)):
        (pxx,) = _dirichlet(rng, n, [(shape, 2)])
        (margin,) = _evaluate(pxx, "xz", _MARGIN, ch)
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst, witness = float(margin[i]), pxx[i].copy()
    holds = worst >= -1e-9
    return HighInterferenceReport(
        holds_on_samples=holds,
        worst_margin=worst,
        witness=None if holds else witness,
    )


def random_dist(
    variant: str,
    ch: DmcChannel,
    aux_sizes: dict | None = None,
    rng: np.random.Generator | None = None,
) -> FactoredDist:
    """Draw one FactoredDist with every factor row Dirichlet(1).

    aux_sizes overrides the default auxiliary alphabet sizes (which mirror
    the driving input's alphabet; the cooperative u defaults to nx1*nx2).
    Alphabets whose joint table would exceed MAX_JOINT_ENTRIES are refused
    before anything is drawn.
    """
    sizes = _alphabet_sizes(variant, ch, aux_sizes)
    _check_joint_entries(variant, sizes)
    rng = rng if rng is not None else np.random.default_rng(0)
    factors = _sample_factors(variant, sizes, rng, 1)
    return FactoredDist(variant, {name: f[0] for name, f in factors.items()})


def random_search_region(
    ch: DmcChannel,
    variant: str,
    aux_sizes: dict | None = None,
    n_samples: int = 1000,
    seed: int = 0,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the variant's pentagons over sampled input distributions.

    For full, r1, r2 and r3 every sampled pentagon is achievable, so the
    hull is an inner bound of the region.  For outer it is an inner
    estimate of the DM outer bound: the bound is the union over every
    p(u,x1,x2), so a sampled hull can lie inside it but not certify it,
    and its provenance says so.

    The samples are those of n_samples random_dist calls on one generator,
    np.random.default_rng(seed): a fixed seed gives a bit-identical region,
    and a search is the first n_samples samples of any longer one at the
    same seed, so its hull only grows with n_samples.  seed is a
    non-negative integer.  Samples are evaluated in chunks along a leading
    sample axis, which changes no bit either; each chunk's factors are
    checked where they are drawn and its joints where they enter the
    evaluation.
    """
    _check_sampling(n_samples, seed)
    sizes = _alphabet_sizes(variant, ch, aux_sizes)
    entries = _check_joint_entries(variant, sizes) * max(ch.ny1, ch.ny2)
    rng = np.random.default_rng(seed)
    bounds = []
    for n in _chunks(n_samples, entries):
        factors = _sample_factors(variant, sizes, rng, n)
        for name, _, block in _FACTORS[variant]:
            _check_stochastic(name, factors[name], block)
        bounds.append(_evaluate(_joints(variant, factors), _JOINT_AXES[variant],
                                _BOUNDS[variant], ch))
    r1, r2, s = (np.concatenate(b) for b in zip(*bounds))
    if not np.any((r1 >= 0.0) & (r2 >= 0.0) & (s >= 0.0)):
        raise ValueError(
            f"all {n_samples} sampled pentagons are EMPTY for variant {variant!r} "
            f"(seed {seed}); the first bound never came out nonnegative"
        )
    return hull_of_slabs(
        (r1, r2, s), n_directions,
        provenance=f"{variant}-search(n={n_samples},seed={seed}"
                   + (",inner estimate of the DM outer bound)" if variant == "outer" else ")"),
    )

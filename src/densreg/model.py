"""User-facing model layer: declare partial effects, build constrained
designs, fit by boosting, predict, and extract interpretable effect views.

Each term kind is a string of covariate blocks (``_KINDS``)::

    intercept  ""     group_intercept  "c+"   varying_coefficient  "xs"
    linear     "a"    group_linear     "cx"   interaction          "ss"
    flexible   "s"    group_flexible   "cs"

c is a categorical covariate, x a linear column, a the pair [1, x], s a
B-spline basis, and "c+" one or more categorical covariates. A term's raw
design is the row-wise tensor product of its blocks; its penalty is the
Kronecker sum of the difference penalties of its s blocks.

Categorical terms are identified by their coding (effect coding by default);
numeric and orthogonalized terms are centered over the training rows, and
``orthogonal_to`` adds orthogonality to the named earlier terms. Reported
effects are always converted to reference coding: a term evaluated with any
of its covariates at the reference contributes the neutral density. Effects
and the difference-in-differences are one inclusion-exclusion contrast of
the clr predictor (``_contrast``).

A fitted model keeps one predictor state, which is also what a model file
holds (:func:`dump_fields` writes it, :func:`load_fields` reads it; the
format is in :mod:`densreg.io`): a ``_Covariate`` per covariate and a
``_TermEncoder`` per term, which turns covariate values into constrained
design rows and records the term's smoothing parameter and degrees of
freedom. Knots and density bases are not stored: the encoder derives a
spline block's knots from its covariate's range, and ``_density_bases``
builds the bases, for fit and load alike. The training designs live only in
the boosting inputs (:class:`~densreg.basis.EffectDesign`). The components
of a measure, each with its measure and the embedding of its clr rows, come
from the one table :func:`densreg.bayes.components`, which the decomposition
check reads too: "continuous" and "discrete" for a mixed measure, else
"single"; fit, load, prediction and the model file follow its order. A
model's fit is its component states by name, for every measure
(``FittedModel.states``, as the model file's ``fits``). The layer works on
N x P rows: :func:`fit` splits the clr rows of its responses into their
components and boosts each with :func:`~densreg.boosting.boost`, and
:func:`predict` returns the density rows of sums of embedded clr rows; only
:func:`predict_clr` and :func:`extract_effect` return elements.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .basis import (
    EffectDesign,
    bspline_eval,
    bspline_knots,
    calibrate_df,
    density_basis,
    difference_penalty,
)
from .bayes import (
    ClrElement,
    DensityElement,
    check_clr_rows,
    check_decomposition,
    clr_inv,
    clr_inv_rows,
    components,
    decompose_clr_rows,
)
from .measure import ReferenceMeasure
from .records import BoostConfig, FitState

__all__ = [
    "EffectTerm",
    "ModelSpec",
    "SpecMismatch",
    "FittedModel",
    "build_designs",
    "fit",
    "predict",
    "predict_clr",
    "extract_effect",
    "design_report",
]

_KINDS = {
    "intercept": "",
    "linear": "a",
    "flexible": "s",
    "group_intercept": "c+",
    "group_linear": "cx",
    "group_flexible": "cs",
    "varying_coefficient": "xs",
    "interaction": "ss",
}


class EffectTerm:
    """One partial effect of the additive predictor."""

    def __init__(self, name: str, kind: str, covariates: tuple = (), df: float | None = None,
                 knots: int = 8, degree: int = 3, penalty_order: int = 2,
                 orthogonal_to: tuple = ()):
        if kind not in _KINDS:
            raise ValueError(f"unknown effect kind {kind!r}")
        for key, value in (("knots", knots), ("degree", degree), ("penalty_order", penalty_order)):
            if value < 0:
                raise ValueError(f"term {name!r}: {key} must be nonnegative")
        self.name, self.kind, self.covariates, self.df = name, kind, tuple(covariates), df
        self.knots, self.degree, self.penalty_order = knots, degree, penalty_order
        self.orthogonal_to = tuple(orthogonal_to)
        if _KINDS[kind] == "c+" and not self.covariates:
            raise ValueError(f"term {name!r} needs at least one covariate")
        if len(self.covariates) != len(self.blocks):
            raise ValueError(
                f"term {name!r} of kind {kind!r} needs "
                f"{len(self.blocks)} covariate(s)"
            )
        if "s" in self.blocks and penalty_order > knots + degree:
            raise ValueError(f"term {name!r}: {_order_too_high(knots, degree, penalty_order)}")

    @property
    def blocks(self) -> str:
        """One block letter per covariate slot (see ``_KINDS``)."""
        blocks = _KINDS[self.kind]
        return "c" * len(self.covariates) if blocks == "c+" else blocks

    @property
    def covariate_kinds(self) -> tuple:
        """"categorical" or "numeric" per covariate slot."""
        return tuple("categorical" if letter == "c" else "numeric" for letter in self.blocks)


def _order_too_high(knots: int, degree: int, penalty_order: int) -> str:
    """Why a spline of ``knots`` interior knots and ``degree`` cannot take
    ``penalty_order``: its knots + degree + 1 coefficients have differences of
    order at most knots + degree."""
    return (f"penalty_order {penalty_order} exceeds knots + degree ({knots} + {degree}), "
            "the spline's highest difference order")


# the parameters of EffectTerm, in the order the model file lists them
_TERM_FIELDS = ("name", "kind", "covariates", "df", "knots", "degree", "penalty_order",
                "orthogonal_to")


class ModelSpec:
    """Ordered effect terms plus coding and reference declarations, checked
    for the rules that need no data."""

    def __init__(self, terms, coding: str = "effect", references: dict | None = None):
        self.terms, self.coding = tuple(terms), coding
        self.references = {} if references is None else references
        if coding not in ("effect", "reference"):
            raise ValueError("coding must be 'effect' or 'reference'")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError("term names must be unique")
        if sum(t.kind == "intercept" for t in self.terms) > 1:
            raise ValueError("at most one intercept term is allowed")
        kinds = {}
        for i, t in enumerate(self.terms):
            for name, kind in zip(t.covariates, t.covariate_kinds):
                if kinds.setdefault(name, kind) != kind:
                    raise ValueError(f"covariate {name!r} used with conflicting types")
            for other in t.orthogonal_to:
                if other not in names[:i]:
                    raise ValueError(
                        f"term {t.name!r} is constrained against {other!r}, "
                        "which must be declared earlier"
                    )

    def term(self, name: str) -> EffectTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(f"no term named {name!r}")

    @property
    def has_intercept(self) -> bool:
        return any(t.kind == "intercept" for t in self.terms)

    @property
    def numeric_covariates(self) -> set:
        """Names of the covariates that some term reads as numbers."""
        return {
            c for t in self.terms
            for c, kind in zip(t.covariates, t.covariate_kinds) if kind == "numeric"
        }


class SpecMismatch(ValueError):
    """The training data contradict an item of the model spec: a term reads
    a covariate the table lacks or keeps no free column under its
    constraints, a reference is not one of the covariate's levels, not a
    number, or off the training range of a spline block, or the density
    basis asks, on a measure with a grid, for a penalty order its spline
    cannot take or for a spline the sum-to-zero constraint leaves without a
    column. ``item`` locates the entry in the spec (``terms[i]``,
    ``references.<name>``, ``density_basis``), as in the ``model`` section
    of a run configuration."""

    def __init__(self, item: str, message: str):
        super().__init__(message)
        self.item = item


class _BadCovariate(ValueError):
    """A covariate's ``key`` breaks a rule of the predictor state; a reference
    is a spec item in fit (``SpecMismatch``) and a model-file field on load."""

    def __init__(self, name: str, key: str, message: str):
        super().__init__(message)
        self.name, self.key = name, key


class _Covariate:
    """Per-covariate metadata fixed by the training table: ``kind``
    "categorical" with its sorted level labels, or "numeric" with its
    training range [lo, hi]."""

    def __init__(self, name: str, kind: str, reference: str | float, levels: tuple = (),
                 lo: float = 0.0, hi: float = 0.0):
        self.name, self.kind, self.reference = name, kind, reference
        self.levels, self.lo, self.hi = levels, lo, hi
        if kind == "categorical":
            rules = [
                ("levels", len(set(levels)) != len(levels), "a level is listed twice"),
                ("levels", len(levels) < 2, f"covariate {name!r} needs at least two levels"),
                ("reference", reference not in levels,
                 f"reference {reference!r} not a level of {name!r}"),
            ]
        elif kind == "numeric":
            rules = [(key, not (isinstance(value, (int, float)) and math.isfinite(value)),
                      f"must be a finite number, not {value!r}")
                     for key, value in (("lo", lo), ("hi", hi), ("reference", reference))]
            rules.append(("hi", not lo < hi, f"covariate {name!r} is constant" if lo == hi
                          else f"covariate {name!r}: lo {lo!r} lies above hi {hi!r}"))
        else:
            raise ValueError(f"covariate {name!r}: unknown kind {kind!r}")
        for key, broken, message in rules:
            if broken:
                raise _BadCovariate(name, key, message)

    @classmethod
    def infer(cls, name: str, kind: str, values, reference) -> "_Covariate":
        if kind == "categorical":
            levels = tuple(sorted({str(v) for v in values}))
            ref = str(reference) if reference is not None else levels[0]
            return cls(name, kind, ref, levels=levels)
        vals = np.asarray(values, dtype=float)
        lo, hi = float(vals.min()), float(vals.max())
        try:
            ref = float(reference) if reference is not None else lo
        except (TypeError, ValueError):
            raise SpecMismatch(
                f"references.{name}", f"reference {reference!r} of {name!r} is not a number"
            ) from None
        return cls(name, kind, ref, lo=lo, hi=hi)


class _TermEncoder:
    """Everything that turns covariate values into design rows of one term.

    Spline knots follow from the covariate's range and the term's ``knots``
    and ``degree``; ``transform`` maps raw to constrained columns (None when
    the term is unconstrained); ``lambda_cov``, ``target_df`` and
    ``achieved_df`` record the degree-of-freedom calibration.
    """

    def __init__(self, term: EffectTerm, covariates: tuple, coding: str,
                 transform: np.ndarray | None = None, lambda_cov: float = 0.0,
                 target_df: float | None = None, achieved_df: float = 0.0):
        self.term, self.covariates, self.coding = term, covariates, coding
        self.transform, self.lambda_cov = transform, lambda_cov
        self.target_df, self.achieved_df = target_df, achieved_df
        for letter, cov in zip(term.blocks, covariates):
            if letter == "s" and not cov.lo <= cov.reference <= cov.hi:
                raise _BadCovariate(
                    cov.name, "reference",
                    f"reference {cov.reference!r} of {cov.name!r} lies outside the training "
                    f"range [{cov.lo!r}, {cov.hi!r}] of its spline basis",
                )
        width = math.prod(self._widths())
        if transform is not None and (transform.ndim != 2 or len(transform) != width):
            raise ValueError(f"term {term.name!r}: transform must have {width} rows, "
                             "one per raw column")

    def _knots(self, cov) -> np.ndarray:
        """Knot vector of a spline block over ``cov``."""
        return bspline_knots(cov.lo, cov.hi, self.term.knots, self.term.degree)

    def _contrast(self, cov) -> np.ndarray:
        """Level-by-column contrast of a categorical block: full dummies for an
        orthogonalized term, otherwise the coding without the reference column."""
        eye = np.eye(len(cov.levels))
        if self.term.orthogonal_to:
            return eye
        ref = cov.levels.index(cov.reference)
        contrast = np.delete(eye, ref, axis=1)
        contrast[ref] = -1.0 if self.coding == "effect" else 0.0
        return contrast

    def _widths(self) -> list:
        """Column count of each block."""
        def width(letter, cov):
            if letter == "c":
                return self._contrast(cov).shape[1]
            if letter == "s":
                return len(self._knots(cov)) - self.term.degree - 1
            return {"x": 1, "a": 2}[letter]
        return [width(letter, cov) for letter, cov in zip(self.term.blocks, self.covariates)]

    def _block(self, letter, cov, column) -> np.ndarray:
        if letter == "c":
            index = {level: i for i, level in enumerate(cov.levels)}
            labels = [str(v) for v in column]
            unknown = set(labels) - set(index)
            if unknown:
                raise ValueError(f"unknown level(s) {sorted(unknown)} for {cov.name!r}")
            # the one-hot rows of the levels times the contrast
            return self._contrast(cov)[[index[lab] for lab in labels]]
        x = np.asarray(column, dtype=float)
        if letter == "s":
            outside = x[(x < cov.lo) | (x > cov.hi)]
            if outside.size:
                raise ValueError(
                    f"covariate {cov.name!r}: {float(outside[0])!r} lies outside "
                    f"the training range [{cov.lo!r}, {cov.hi!r}]"
                )
            return bspline_eval(self._knots(cov), self.term.degree, x)
        if letter == "x":
            return x[:, None]
        return np.column_stack([np.ones_like(x), x])

    def raw_design(self, data, n: int) -> np.ndarray:
        """Row-wise tensor product of the blocks, from a column of ones, for
        the ``n`` rows of a covariate table."""
        out = np.ones((n, 1))
        for letter, cov in zip(self.term.blocks, self.covariates):
            block = self._block(letter, cov, _column(data, cov.name, n))
            out = (out[:, :, None] * block[:, None, :]).reshape(n, out.shape[1] * block.shape[1])
        return out

    def design(self, data, n: int) -> np.ndarray:
        """Constrained design rows for the ``n`` rows of a covariate table."""
        raw = self.raw_design(data, n)
        return raw @ self.transform if self.transform is not None else raw

    @property
    def n_columns(self) -> int:
        """Number of constrained design columns."""
        if self.transform is not None:
            return self.transform.shape[1]
        return math.prod(self._widths())

    def raw_penalty(self) -> np.ndarray:
        """Kronecker sum, over the spline blocks, of I x D x I with D the
        difference penalty of the term's order; the identity for a term
        without spline blocks, zero for the intercept."""
        if not self.term.blocks:
            return np.zeros((1, 1))
        widths = self._widths()
        parts = [
            np.kron(
                np.kron(np.eye(math.prod(widths[:j])),
                        difference_penalty(k, self.term.penalty_order)),
                np.eye(math.prod(widths[j + 1:])),
            )
            for j, (letter, k) in enumerate(zip(self.term.blocks, widths)) if letter == "s"
        ]
        return sum(parts[1:], parts[0]) if parts else np.eye(math.prod(widths))


def _table_length(data) -> int:
    lengths = {len(v) for v in data.values()}
    if len(lengths) != 1:
        raise ValueError("data columns differ in length")
    return lengths.pop()


def _column(data, name, n):
    if name not in data:
        raise ValueError(f"unknown covariate {name!r}")
    col = data[name]
    if len(col) != n:
        raise ValueError(f"column {name!r} has wrong length")
    return col


def _per_unit_design(norm: float) -> float:
    """The power of two nearest 1/``norm`` (1 for a zero norm).

    Constraint rows D'raw times this factor are within sqrt(2) of D'raw/||D||,
    and scaling by a power of two is exact, so the SVD of the rows and the
    nullspace basis keep their bits.
    """
    return 2.0 ** -round(math.log2(norm)) if norm > 0 else 1.0


def _nullspace_transform(constraints: np.ndarray, scale: float, item: str) -> np.ndarray:
    """Orthonormal basis of the nullspace of the stacked constraint rows of
    the term at spec ``item``; a SpecMismatch there if it is empty.

    Rank is measured against ``scale``, the largest size a row can have, so
    that rows of pure rounding noise count as no constraint.
    """
    u, s, vt = np.linalg.svd(constraints, full_matrices=True)
    tol = max(constraints.shape) * np.finfo(float).eps * scale
    rank = int((s > tol).sum())
    if rank == vt.shape[1]:
        raise SpecMismatch(item, "identifiability constraints leave no free coefficients")
    return vt[rank:].T


def _infer_covariates(spec: ModelSpec, data) -> dict:
    covs = {}
    for i, term in enumerate(spec.terms):
        for cname, ckind in zip(term.covariates, term.covariate_kinds):
            if cname not in covs:
                if cname not in data:
                    raise SpecMismatch(f"terms[{i}]", f"unknown covariate {cname!r}")
                column = _column(data, cname, _table_length(data))
                covs[cname] = _Covariate.infer(cname, ckind, column, spec.references.get(cname))
    # the spec cannot refuse such a key: a config may set one for a term it leaves out
    unread = sorted(set(spec.references) - set(covs))
    if unread:
        warnings.warn(f"references: no term reads {unread}", stacklevel=2)
    return covs


class _PredictorState(NamedTuple):
    """Covariates by name and one encoder per term, in term order."""

    covariates: dict
    encoders: tuple


def _encode(spec: ModelSpec, data, default_df: float) -> tuple[_PredictorState, list]:
    """Predictor state plus, per term, the constrained training design and
    covariate penalty."""
    try:
        covariates = _infer_covariates(spec, data)
        encoders = [_TermEncoder(t, tuple(covariates[c] for c in t.covariates), spec.coding)
                    for t in spec.terms]
    except _BadCovariate as exc:
        if exc.key != "reference":
            raise
        raise SpecMismatch(f"references.{exc.name}", str(exc)) from None
    blocks, designs_by_name = [], {}
    for i, encoder in enumerate(encoders):
        term = encoder.term
        raw = encoder.raw_design(data, _table_length(data))
        pen = encoder.raw_penalty()
        rows = []
        # categorical terms are identified by their coding; numeric and
        # orthogonalized terms by centering over the training rows. Each block
        # of rows D'raw is brought to the scale of a unit-norm D (D = 1/N for
        # the mean row), so rank is measured against ||raw|| alone
        skip_center = "c" in term.blocks and not term.orthogonal_to
        if term.kind != "intercept" and spec.has_intercept and not skip_center:
            rows.append(raw.mean(axis=0)[None, :] * _per_unit_design(raw.shape[0] ** -0.5))
        for other in term.orthogonal_to:
            design = designs_by_name[other]
            rows.append(design.T @ raw * _per_unit_design(np.linalg.norm(design)))
        x = raw
        if rows:
            z = encoder.transform = _nullspace_transform(
                np.vstack(rows), np.linalg.norm(raw), f"terms[{i}]"
            )
            x, pen = raw @ z, z.T @ pen @ z
        encoder.target_df = term.df if term.df is not None else default_df
        encoder.lambda_cov, encoder.achieved_df = calibrate_df(x, pen, encoder.target_df)
        blocks.append((x, pen))
        designs_by_name[term.name] = x
    return _PredictorState(covariates, tuple(encoders)), blocks


class FittedModel:
    """A fitted additive density regression ready for prediction: the spec,
    the response measure, the predictor state, the fit as ``states``, the
    density bases by component, and the density-basis options of fit
    (``config`` is the boosting config of a fit, None for a loaded model).

    ``states`` holds one :class:`~densreg.records.FitState` per component of
    the measure, by name and in the order of :func:`~densreg.bayes.components`
    ("single", or "continuous" and "discrete"), the keys of the model file's
    ``fits``.
    """

    def __init__(self, spec: ModelSpec, measure: ReferenceMeasure, frame: _PredictorState,
                 states: dict, bases: dict, lambda_density: float,
                 config: BoostConfig | None, density_options: dict):
        self.spec, self.measure, self.frame, self.states = spec, measure, frame, states
        self.bases, self.lambda_density = bases, lambda_density
        self.config, self.density_options = config, density_options

    @property
    def fitted_clr(self) -> np.ndarray | None:
        """The N x P fitted clr rows on the response measure, the sum of the
        embedded rows of the components; None for a loaded model, whose
        states keep no rows."""
        if any(s.fitted_clr is None for s in self.states.values()):
            return None
        embedded = [embed(self.states[c].fitted_clr, self.measure)
                    for c, (_, embed) in components(self.measure).items()]
        return sum(embedded[1:], embedded[0])


# the density-basis options of fit, without their "density_" prefix
_DENSITY_OPTIONS = ("knots", "degree", "penalty_order")


def _finite(value, what: str) -> np.ndarray:
    """``value`` as a float array, which must hold only finite numbers."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def dump_fields(model: FittedModel) -> dict:
    """The model-file fields that follow ``format`` and ``version`` (see
    :mod:`densreg.io`); :func:`load_fields` reads them back."""
    options = model.density_options
    return {
        "measure": model.measure.to_dict(),
        "coding": model.spec.coding,
        "references": model.spec.references,
        "covariates": {
            name: {"kind": c.kind, "levels": c.levels, "reference": c.reference}
            if c.kind == "categorical" else
            {"kind": c.kind, "lo": c.lo, "hi": c.hi, "reference": c.reference}
            for name, c in model.frame.covariates.items()
        },
        "terms": [
            {**{f: getattr(e.term, f) for f in _TERM_FIELDS},
             "transform": None if e.transform is None else e.transform.tolist(),
             "lambda_cov": e.lambda_cov, "target_df": e.target_df, "achieved_df": e.achieved_df}
            for e in model.frame.encoders
        ],
        "density_basis": {
            **{k: options[f"density_{k}"] for k in _DENSITY_OPTIONS},
            "lambda_density": model.lambda_density,
        },
        "fits": {
            comp: {"offset": s.offset_clr.tolist(),
                   "coefficients": [c.tolist() for c in s.coefficients],
                   "selections": list(map(int, s.selections)), "risk_path": s.risk_path.tolist(),
                   "m_stop": int(s.m_stop),
                   "stop_curve": None if s.stop_curve is None else s.stop_curve.tolist()}
            for comp, s in model.states.items()
        },
    }


def _load_covariate(name: str, d: dict) -> _Covariate:
    if d["kind"] == "categorical":
        levels = d["levels"]
        if not (isinstance(levels, list) and all(isinstance(v, str) for v in levels)):
            raise ValueError(f"covariates.{name}.levels: expected a list of strings")
        return _Covariate(name, "categorical", d["reference"], levels=tuple(levels))
    return _Covariate(name, d["kind"], d["reference"], lo=d["lo"], hi=d["hi"])


def _load_encoder(i: int, d: dict, covariates: dict, coding: str) -> _TermEncoder:
    term = EffectTerm(**{f: d[f] for f in _TERM_FIELDS})
    for name, kind in zip(term.covariates, term.covariate_kinds):
        if name not in covariates or covariates[name].kind != kind:
            raise ValueError(f"terms[{i}].covariates: {name!r} is not a declared {kind} covariate")
    what = f"term {term.name!r}: transform and lambda_cov"
    return _TermEncoder(
        term, tuple(covariates[c] for c in term.covariates), coding,
        None if d["transform"] is None else _finite(d["transform"], what),
        float(_finite(d["lambda_cov"], what)), d.get("target_df", d["df"]), d["achieved_df"],
    )


def load_fields(d: dict) -> FittedModel:
    """Rebuild a model from the fields :func:`dump_fields` writes; raises
    ValueError, naming the field, on one that does not fit the rest. Knots
    and density bases are rebuilt by the constructors that fit uses. The
    model predicts and interprets like the fitted one, but keeps no training
    surfaces or boosting settings."""
    measure = ReferenceMeasure.from_dict(d["measure"])
    try:
        covariates = {name: _load_covariate(name, cd) for name, cd in d["covariates"].items()}
        encoders = tuple(
            _load_encoder(i, td, covariates, d["coding"]) for i, td in enumerate(d["terms"])
        )
    except _BadCovariate as exc:
        raise ValueError(f"covariates.{exc.name}.{exc.key}: {exc}") from None
    spec = ModelSpec(tuple(e.term for e in encoders), d["coding"], dict(d["references"]))
    db = d["density_basis"]
    _finite(db["lambda_density"], "density_basis.lambda_density")
    try:
        bases = _density_bases(measure, db["knots"], db["degree"], db["penalty_order"])
    except ValueError as exc:
        raise ValueError(f"density_basis: {exc}") from None
    if set(d["fits"]) != set(bases):
        raise ValueError(f"fits: expected the component(s) {list(bases)}")
    columns = [e.n_columns for e in encoders]
    states = {}
    for comp, basis in bases.items():
        fd, m = d["fits"][comp], basis.measure
        offset = _finite(fd["offset"], "offset and coefficients")
        check_clr_rows(offset[None], m, lambda e: ValueError(f"fits.{comp}.offset: {e}"))
        coefficients = [_finite(c, "offset and coefficients") for c in fd["coefficients"]]
        widths = [k * basis.n_basis for k in columns]
        if [c.size for c in coefficients] != widths:
            raise ValueError(f"fits.{comp}: coefficient lengths differ from {widths}")
        selections = list(map(int, fd["selections"]))
        if not all(0 <= j < len(encoders) for j in selections):
            raise ValueError(f"fits.{comp}.selections: a term index outside [0, {len(encoders)})")
        risk_path, m_stop = np.asarray(fd["risk_path"], dtype=float), int(fd["m_stop"])
        if not m_stop == len(selections) == risk_path.size - 1:
            raise ValueError(
                f"fits.{comp}.m_stop: {m_stop} does not match {len(selections)} selections "
                f"and {risk_path.size} risk values"
            )
        curve = fd["stop_curve"]
        states[comp] = FitState(
            offset, coefficients, None, selections, risk_path,
            m_stop, stop_curve=None if curve is None else np.asarray(curve, dtype=float),
        )
    return FittedModel(
        spec, measure, _PredictorState(covariates, encoders), states, bases,
        db["lambda_density"], None, {f"density_{k}": db[k] for k in _DENSITY_OPTIONS},
    )


def _density_bases(measure: ReferenceMeasure, knots: int, degree: int, penalty_order: int) -> dict:
    """The density basis of each component of ``measure`` (see
    :func:`~densreg.bayes.components`). Only a grid reads the options, so
    only there can its penalty order be more than the spline takes, or its
    knots + degree + 1 B-splines be one, which the sum-to-zero constraint
    leaves with no column (K_Y = 0)."""
    if measure.n_grid and penalty_order > knots + degree:
        raise SpecMismatch("density_basis", _order_too_high(knots, degree, penalty_order))
    if measure.n_grid and knots + degree == 0:
        raise SpecMismatch("density_basis", "knots + degree (0 + 0) leave one B-spline, which "
                           "the sum-to-zero constraint removes: the density basis needs "
                           "knots + degree >= 1")
    comps = components(measure)
    return {c: density_basis(m, knots, degree, penalty_order) for c, (m, _) in comps.items()}


def build_designs(
    spec: ModelSpec,
    data,
    measure: ReferenceMeasure,
    default_df: float,
    density_knots: int,
    density_degree: int,
    density_penalty_order: int,
    lambda_density: float,
):
    """Build the constrained effect designs for each component of the measure.

    Returns (frame, bases, designs): ``frame`` is the predictor state, and
    ``bases`` and ``designs`` are dicts keyed by component name: "single" for
    pure measures, "continuous" and "discrete" for mixed ones.
    """
    frame, blocks = _encode(spec, data, default_df)
    bases = _density_bases(measure, density_knots, density_degree, density_penalty_order)
    designs = {
        key: [
            EffectDesign(x, pen, basis, e.lambda_cov, lambda_density)
            for e, (x, pen) in zip(frame.encoders, blocks)
        ]
        for key, basis in bases.items()
    }
    return frame, bases, designs


def fit(
    spec: ModelSpec,
    data,
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    config: BoostConfig,
    *,
    default_df: float,
    density_knots: int,
    density_degree: int,
    density_penalty_order: int,
    lambda_density: float,
) -> FittedModel:
    """Fit the model to the N x P clr rows ``y_clr`` of the responses on
    ``measure``, one independent fit per component (see
    :func:`~densreg.bayes.components`).

    A mixed measure's responses split by the orthogonal decomposition, whose
    parts must pass :func:`~densreg.bayes.check_decomposition` (else a
    FloatingPointError). Component i is boosted with seed ``config.seed + i``
    and its own stopping iteration. The keyword options are those of
    :func:`build_designs`.
    """
    check_clr_rows(y_clr, measure)
    if not len(y_clr):
        raise ValueError("no responses given")
    if len(y_clr) != _table_length(data):
        raise ValueError("data rows and responses differ in length")
    density_options = {
        "density_knots": density_knots,
        "density_degree": density_degree,
        "density_penalty_order": density_penalty_order,
    }
    frame, bases, designs = build_designs(
        spec, data, measure, default_df, lambda_density=lambda_density, **density_options
    )
    parts = (y_clr,)
    if measure.is_mixed:
        parts = decompose_clr_rows(y_clr, measure)
        check_decomposition(y_clr, parts, measure, FloatingPointError)
    # imported here, so that loading a model and predicting compile no kernel
    from .boosting import boost

    states = {
        comp: boost(y, bases[comp].measure, designs[comp], replace(config, seed=config.seed + i))
        for i, (comp, y) in enumerate(zip(components(measure), parts))
    }
    return FittedModel(
        spec, measure, frame, states, bases, lambda_density, config, density_options
    )


def _raw_clr_rows(model: FittedModel, data, n: int, include_offset=True) -> np.ndarray:
    """n x P clr predictions on the response measure for the n rows of ``data``."""
    designs = [e.design(data, n) for e in model.frame.encoders]
    out = np.zeros((n, model.measure.size))
    for component, (_, embed) in components(model.measure).items():
        state, basis = model.states[component], model.bases[component]
        comp = np.zeros((n, state.offset_clr.size))
        if include_offset:
            comp += state.offset_clr
        for x, coef in zip(designs, state.coefficients):
            comp += x @ coef.reshape(x.shape[1], basis.n_basis) @ basis.clr_matrix.T
        out += embed(comp, model.measure)
    return out


def predict_clr(model: FittedModel, newdata) -> list[ClrElement]:
    rows = _raw_clr_rows(model, newdata, _table_length(newdata))
    return [ClrElement(model.measure, row) for row in rows]


def predict(model: FittedModel, newdata) -> np.ndarray:
    """N x P predicted density rows (probability representatives) for new
    covariates; a clr row off the zero integral is a FloatingPointError."""
    z = _raw_clr_rows(model, newdata, _table_length(newdata))
    check_clr_rows(z, model.measure, FloatingPointError)
    return clr_inv_rows(z, model.measure)


def _contrast(model: FittedModel, toggles: dict, values: dict) -> np.ndarray:
    """Sum over the 2^k cells of the k covariates in ``toggles`` (name ->
    (on, off)) of (-1)^(#off) times the clr prediction, every other covariate
    at ``values``. The offsets cancel for k >= 1, so they are left out; for
    k = 0 it is the prediction at ``values``."""
    cells = range(2 ** len(toggles))
    table = {name: [on if (bits >> k) & 1 else off for bits in cells]
             for k, (name, (on, off)) in enumerate(toggles.items())}
    for name in model.frame.covariates:
        if name not in table:
            if name not in values:
                raise ValueError(f"missing covariate {name!r}")
            table[name] = [values[name]] * len(cells)
    signs = np.array([(-1.0) ** (len(toggles) - bin(bits).count("1")) for bits in cells])
    return signs @ _raw_clr_rows(model, table, len(cells), include_offset=not toggles)


def extract_effect(
    model: FittedModel, term_name: str, values: dict
) -> tuple[DensityElement, ClrElement]:
    """Reference-coded view of one term at the given covariate values.

    The contrast of the predictor over the term's covariates, between their
    values and their references, so the result is the neutral density
    whenever any of them sits at its reference; the intercept is the
    prediction at all references. Summing the extracted views of every term
    of a hierarchical model (intercept included) reproduces the prediction.
    """
    term = model.spec.term(term_name)
    covariates = model.frame.covariates
    if term.kind == "intercept":
        values = {name: cov.reference for name, cov in covariates.items()}
    # a term covariate missing from ``values`` is reported by the contrast
    toggles = {c: (values[c], covariates[c].reference) for c in term.covariates if c in values}
    z_el = ClrElement(model.measure, _contrast(model, toggles, values))
    return clr_inv(z_el), z_el


def design_report(model: FittedModel) -> list[dict]:
    """Per-term design summary: smoothing parameter and degrees of freedom.

    Lets users check how comparable the base-learners are when equal degrees
    of freedom cannot be imposed (single-column terms cap at one).
    """
    return [
        {
            "term": e.term.name,
            "kind": e.term.kind,
            "columns": e.n_columns,
            "lambda": e.lambda_cov,
            "target_df": e.target_df,
            "achieved_df": e.achieved_df,
        }
        for e in model.frame.encoders
    ]

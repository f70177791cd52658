"""User-facing model layer: declare partial effects, build constrained
designs, fit by boosting, predict, and extract interpretable effect views.

Terms are encoded internally with the requested coding (effect coding by
default) and made identifiable by sum-to-zero centering over the observations
plus, for interaction-style terms, orthogonality to the named main effects.
Reported effects are always converted to reference coding: a term evaluated
with any of its covariates at the reference contributes the neutral density.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (
    DensityBasis,
    EffectDesign,
    assemble_effect,
    bspline_density_basis,
    bspline_eval,
    bspline_knots,
    calibrate_df,
    difference_penalty,
    effective_df,
    indicator_density_basis,
    kron_penalty,
)
from .bayes import (
    ClrElement,
    DensityElement,
    clr_inv,
    continuous_submeasure,
    decompose_clr,
    discrete_star_measure,
    embed_clr_continuous,
    embed_clr_discrete,
)
from .boosting import BoostConfig, FitState, MixedFit, boost, boost_mixed
from .measure import ReferenceMeasure

__all__ = [
    "EffectTerm",
    "ModelSpec",
    "FittedModel",
    "build_designs",
    "fit",
    "predict",
    "predict_clr",
    "extract_effect",
    "design_report",
]

_TERM_KINDS = (
    "intercept",
    "linear",
    "flexible",
    "group_intercept",
    "group_linear",
    "group_flexible",
    "varying_coefficient",
    "interaction",
)

# which covariate slots a kind expects: c = categorical, x = numeric
_KIND_SLOTS = {
    "intercept": "",
    "linear": "x",
    "flexible": "x",
    "group_intercept": "c+",
    "group_linear": "cx",
    "group_flexible": "cx",
    "varying_coefficient": "xx",
    "interaction": "xx",
}


@dataclass(frozen=True)
class EffectTerm:
    """One partial effect of the additive predictor."""

    name: str
    kind: str
    covariates: tuple = ()
    df: float | None = None
    knots: int = 8
    degree: int = 3
    penalty_order: int = 2
    orthogonal_to: tuple = ()

    def __post_init__(self):
        if self.kind not in _TERM_KINDS:
            raise ValueError(f"unknown effect kind {self.kind!r}")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "orthogonal_to", tuple(self.orthogonal_to))
        slots = _KIND_SLOTS[self.kind]
        if slots.endswith("+"):
            if len(self.covariates) < 1:
                raise ValueError(f"term {self.name!r} needs at least one covariate")
        elif len(self.covariates) != len(slots):
            raise ValueError(
                f"term {self.name!r} of kind {self.kind!r} needs "
                f"{len(slots)} covariate(s)"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Ordered effect terms plus coding and reference declarations."""

    terms: tuple
    coding: str = "effect"
    references: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.coding not in ("effect", "reference"):
            raise ValueError("coding must be 'effect' or 'reference'")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError("term names must be unique")
        if sum(t.kind == "intercept" for t in self.terms) > 1:
            raise ValueError("at most one intercept term is allowed")

    def term(self, name: str) -> EffectTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(f"no term named {name!r}")

    @property
    def has_intercept(self) -> bool:
        return any(t.kind == "intercept" for t in self.terms)


class _Covariate:
    """Per-covariate metadata inferred from the training table."""

    def __init__(self, name, kind, values, reference=None):
        self.name = name
        self.kind = kind  # "categorical" | "numeric"
        if kind == "categorical":
            self.levels = tuple(sorted({str(v) for v in values}))
            if len(self.levels) < 2:
                raise ValueError(f"covariate {name!r} needs at least two levels")
            ref = str(reference) if reference is not None else self.levels[0]
            if ref not in self.levels:
                raise ValueError(f"reference {ref!r} not a level of {name!r}")
            self.reference = ref
        else:
            vals = np.asarray(values, dtype=float)
            if np.ptp(vals) == 0.0:
                raise ValueError(f"covariate {name!r} is constant")
            self.lo, self.hi = float(vals.min()), float(vals.max())
            self.reference = float(reference) if reference is not None else self.lo


class _TermEncoder:
    """Builds the raw (unconstrained) design block for one term."""

    def __init__(self, term: EffectTerm, covariates: dict, coding: str, full_rank: bool):
        self.term = term
        self.covariates = [covariates[c] for c in term.covariates]
        self.coding = coding
        # interaction-style terms orthogonalized against main effects use the
        # full tensor basis; the constraints remove the redundant directions
        self.full_rank = full_rank
        self.knot_vectors = {}
        for cov in self.covariates:
            if cov.kind == "numeric" and term.kind in (
                "flexible",
                "group_flexible",
                "varying_coefficient",
                "interaction",
            ):
                self.knot_vectors[cov.name] = bspline_knots(
                    cov.lo, cov.hi, term.knots, term.degree
                )

    def _categorical_block(self, cov, column):
        labels = [str(v) for v in column]
        unknown = set(labels) - set(cov.levels)
        if unknown:
            raise ValueError(f"unknown level(s) {sorted(unknown)} for {cov.name!r}")
        if self.full_rank:
            block = np.zeros((len(labels), len(cov.levels)))
            for i, lab in enumerate(labels):
                block[i, cov.levels.index(lab)] = 1.0
            return block
        non_ref = [l for l in cov.levels if l != cov.reference]
        block = np.zeros((len(labels), len(non_ref)))
        for i, lab in enumerate(labels):
            if lab == cov.reference:
                if self.coding == "effect":
                    block[i, :] = -1.0
            else:
                block[i, non_ref.index(lab)] = 1.0
        return block

    def _numeric_spline(self, cov, column):
        x = np.asarray(column, dtype=float)
        knots = self.knot_vectors[cov.name]
        return bspline_eval(knots, self.term.degree, x)

    def raw_design(self, data) -> np.ndarray:
        term = self.term
        n = _table_length(data)
        if term.kind == "intercept":
            return np.ones((n, 1))
        blocks = []
        for cov in self.covariates:
            column = _column(data, cov.name, n)
            if cov.kind == "categorical":
                blocks.append(self._categorical_block(cov, column))
            elif term.kind == "linear" or (
                term.kind in ("group_linear", "varying_coefficient")
                and cov is self.covariates[-1 if term.kind == "group_linear" else 0]
            ):
                blocks.append(np.asarray(column, dtype=float)[:, None])
            else:
                blocks.append(self._numeric_spline(cov, column))
        if term.kind == "linear":
            x = blocks[0]
            return np.hstack([np.ones((n, 1)), x])
        out = blocks[0]
        for block in blocks[1:]:
            # row-wise tensor product of the design blocks
            out = (out[:, :, None] * block[:, None, :]).reshape(n, -1)
        return out

    def raw_penalty(self, n_cols: int) -> np.ndarray:
        term = self.term
        if term.kind == "intercept":
            return np.zeros((1, 1))
        if term.kind == "linear":
            return np.eye(2)
        if term.kind in ("group_intercept", "group_linear"):
            return np.eye(n_cols)
        if term.kind in ("flexible", "varying_coefficient"):
            return difference_penalty(n_cols, term.penalty_order)
        if term.kind == "group_flexible":
            k_spline = len(self.knot_vectors[self.covariates[1].name]) - term.degree - 1
            n_groups = n_cols // k_spline
            return np.kron(
                np.eye(n_groups), difference_penalty(k_spline, term.penalty_order)
            )
        # flexible interaction of two numeric covariates
        k1 = len(self.knot_vectors[self.covariates[0].name]) - term.degree - 1
        k2 = len(self.knot_vectors[self.covariates[1].name]) - term.degree - 1
        return kron_penalty(
            difference_penalty(k1, term.penalty_order),
            difference_penalty(k2, term.penalty_order),
            1.0,
            1.0,
        )


@dataclass
class _BuiltTerm:
    term: EffectTerm
    encoder: _TermEncoder
    transform: np.ndarray | None      # raw -> constrained columns
    X: np.ndarray                     # constrained training design
    penalty: np.ndarray
    lambda_cov: float
    target_df: float | None
    achieved_df: float

    def design_row(self, data) -> np.ndarray:
        raw = self.encoder.raw_design(data)
        return raw @ self.transform if self.transform is not None else raw


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


def _nullspace_transform(constraints: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the nullspace of the stacked constraint rows."""
    if constraints.size == 0:
        return None
    u, s, vt = np.linalg.svd(constraints, full_matrices=True)
    tol = max(constraints.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int((s > tol).sum())
    if rank == vt.shape[1]:
        raise ValueError("identifiability constraints leave no free coefficients")
    return vt[rank:].T


def _infer_covariates(spec: ModelSpec, data) -> dict:
    covs = {}
    for term in spec.terms:
        slots = _KIND_SLOTS[term.kind]
        kinds = ("categorical",) * len(term.covariates) if slots.endswith("+") else tuple(
            {"c": "categorical", "x": "numeric"}[s] for s in slots
        )
        for cname, ckind in zip(term.covariates, kinds):
            if cname in covs:
                if covs[cname].kind != ckind:
                    raise ValueError(f"covariate {cname!r} used with conflicting types")
                continue
            column = _column(data, cname, _table_length(data))
            covs[cname] = _Covariate(cname, ckind, column, spec.references.get(cname))
    return covs


class _ModelFrame:
    """Everything derived from spec plus training data, before fitting."""

    def __init__(self, spec: ModelSpec, data, default_df: float = 2.0):
        self.spec = spec
        self.covariates = _infer_covariates(spec, data)
        self.n = _table_length(data)
        self.built: list[_BuiltTerm] = []
        by_name = {}
        for term in spec.terms:
            encoder = _TermEncoder(
                term, self.covariates, spec.coding, full_rank=bool(term.orthogonal_to)
            )
            raw = encoder.raw_design(data)
            pen = encoder.raw_penalty(raw.shape[1])
            rows = []
            # categorical terms under reference coding are identified by their
            # zero reference rows instead of sum-to-zero centering
            has_categorical = any(c.kind == "categorical" for c in encoder.covariates)
            skip_center = (
                spec.coding == "reference" and has_categorical and not term.orthogonal_to
            )
            if term.kind != "intercept" and spec.has_intercept and not skip_center:
                rows.append(raw.mean(axis=0)[None, :])
            for other in term.orthogonal_to:
                if other not in by_name:
                    raise ValueError(
                        f"term {term.name!r} is constrained against {other!r}, "
                        "which must be declared earlier"
                    )
                rows.append(by_name[other].X.T @ raw)
            transform = _nullspace_transform(np.vstack(rows)) if rows else None
            if transform is not None:
                x = raw @ transform
                pen = transform.T @ pen @ transform
            else:
                x = raw
            target = term.df if term.df is not None else default_df
            lam, achieved = self._calibrate(term, x, pen, target)
            built = _BuiltTerm(term, encoder, transform, x, pen, lam, target, achieved)
            self.built.append(built)
            by_name[term.name] = built

    @staticmethod
    def _calibrate(term, x, pen, target):
        if np.abs(pen).max() < 1e-14:
            return 0.0, float(np.linalg.matrix_rank(x))
        gram = x.T @ x
        df_max = effective_df(gram, pen, 1e-8)
        df_min = effective_df(gram, pen, 1e12)
        capped = float(np.clip(target, df_min + 1e-9, df_max))
        if capped >= df_max - 1e-9:
            return 0.0, df_max
        lam = calibrate_df(x, pen, capped)
        return lam, effective_df(gram, pen, lam)

    def effect_designs(self, basis: DensityBasis, lambda_density: float) -> list[EffectDesign]:
        return [
            assemble_effect(
                b.term.name, b.X, b.penalty, basis, b.lambda_cov, lambda_density
            )
            for b in self.built
        ]


@dataclass
class FittedModel:
    """A fitted additive density regression ready for prediction."""

    spec: ModelSpec
    measure: ReferenceMeasure
    frame: _ModelFrame
    fits: FitState | MixedFit
    bases: dict
    lambda_density: float
    config: BoostConfig | None
    density_options: dict = field(default_factory=dict)

    @property
    def is_mixed(self) -> bool:
        return isinstance(self.fits, MixedFit)

    @property
    def m_stop(self):
        return self.fits.m_stop

    def component_states(self) -> dict:
        if self.is_mixed:
            return {"continuous": self.fits.continuous, "discrete": self.fits.discrete}
        return {"single": self.fits}

    def selected_terms(self) -> dict:
        """Per-term selection indicator, per component and combined."""
        out = {}
        states = self.component_states()
        for j, built in enumerate(self.frame.built):
            per = {name: bool(state.selected_mask[j]) for name, state in states.items()}
            per["combined"] = any(per.values())
            out[built.term.name] = per
        return out


def build_designs(
    spec: ModelSpec,
    data,
    measure: ReferenceMeasure,
    default_df: float = 2.0,
    density_knots: int = 10,
    density_degree: int = 3,
    density_penalty_order: int = 2,
    lambda_density: float = 0.0,
):
    """Build the constrained effect designs for each component of the measure.

    Returns (frame, bases, designs) where ``bases`` and ``designs`` are dicts
    keyed by component name: "single" for pure measures, "continuous" and
    "discrete" for mixed ones.
    """
    frame = _ModelFrame(spec, data, default_df)
    bases: dict[str, DensityBasis] = {}
    if measure.is_mixed:
        bases["continuous"] = bspline_density_basis(
            continuous_submeasure(measure), density_knots, density_degree,
            density_penalty_order,
        )
        bases["discrete"] = indicator_density_basis(discrete_star_measure(measure))
    elif measure.n_grid:
        bases["single"] = bspline_density_basis(
            measure, density_knots, density_degree, density_penalty_order
        )
    else:
        bases["single"] = indicator_density_basis(measure)
    designs = {
        key: frame.effect_designs(basis, lambda_density) for key, basis in bases.items()
    }
    return frame, bases, designs


def fit(
    spec: ModelSpec,
    data,
    responses: list[DensityElement],
    config: BoostConfig | None = None,
    **design_options,
) -> FittedModel:
    """Fit the model, dispatching on the response measure.

    Mixed measures are fitted as two independent component models with their
    own stopping iterations; pure discrete or continuous measures get a
    single fit.
    """
    config = config or BoostConfig()
    if not responses:
        raise ValueError("no responses given")
    measure = responses[0].measure
    for f in responses[1:]:
        if f.measure is not measure and not f.measure.same_support(measure):
            raise ValueError("responses live on different reference measures")
    if len(responses) != _table_length(data):
        raise ValueError("data rows and responses differ in length")
    fallback = config.target_df if isinstance(config.target_df, (int, float)) else 2.0
    design_options = dict(design_options)
    default_df = design_options.pop("default_df", fallback)
    frame, bases, designs = build_designs(
        spec, data, measure, default_df=default_df, **design_options
    )
    lambda_density = design_options.get("lambda_density", 0.0)
    if measure.is_mixed:
        fits = boost_mixed(
            responses, designs["continuous"], designs["discrete"], config
        )
    else:
        fits = boost(responses, designs["single"], config)
    density_options = {
        "density_knots": design_options.get("density_knots", 10),
        "density_degree": design_options.get("density_degree", 3),
        "density_penalty_order": design_options.get("density_penalty_order", 2),
    }
    return FittedModel(
        spec, measure, frame, fits, bases, lambda_density, config, density_options
    )


def _component_term_surface(model: FittedModel, component: str, j: int, data) -> np.ndarray:
    state = model.component_states()[component]
    built = model.frame.built[j]
    basis = model.bases[component]
    x = built.design_row(data)
    coef = state.coefficients[j].reshape(x.shape[1], basis.n_basis)
    return x @ coef @ basis.clr_matrix.T


def _raw_clr_rows(model: FittedModel, data, include_offset=True, only_terms=None) -> np.ndarray:
    """Stacked clr predictions on the response measure for the given rows."""
    n = _table_length(data)
    out = np.zeros((n, model.measure.size))
    term_indices = (
        range(len(model.frame.built))
        if only_terms is None
        else [i for i, b in enumerate(model.frame.built) if b.term.name in only_terms]
    )
    for component, state in model.component_states().items():
        comp = np.zeros((n, state.offset_clr.size))
        if include_offset:
            comp += state.offset_clr
        for j in term_indices:
            comp += _component_term_surface(model, component, j, data)
        if model.is_mixed:
            embed = embed_clr_continuous if component == "continuous" else embed_clr_discrete
            for i in range(n):
                out[i] += embed(
                    ClrElement(model.bases[component].measure, comp[i]), model.measure
                ).values
        else:
            out += comp
    return out


def predict_clr(model: FittedModel, newdata) -> list[ClrElement]:
    rows = _raw_clr_rows(model, newdata)
    return [ClrElement(model.measure, row) for row in rows]


def predict(model: FittedModel, newdata) -> list[DensityElement]:
    """Predicted densities (probability representatives) for new covariates."""
    return [clr_inv(z) for z in predict_clr(model, newdata)]


def _single_row(model: FittedModel, values: dict) -> dict:
    row = {}
    for name, cov in model.frame.covariates.items():
        if name not in values:
            raise ValueError(f"missing covariate {name!r}")
        row[name] = [values[name]]
    return row


def _reference_row(model: FittedModel, values: dict, at_reference) -> dict:
    merged = dict(values)
    for name in at_reference:
        merged[name] = model.frame.covariates[name].reference
    return _single_row(model, merged)


def extract_effect(
    model: FittedModel, term_name: str, values: dict
) -> tuple[DensityElement, ClrElement]:
    """Reference-coded view of one term at the given covariate values.

    Computed as the inclusion-exclusion contrast of the full predictor over
    the term's own covariates, so the result is the neutral density whenever
    any of them sits at its reference. Summing the extracted views of every
    term of a hierarchical model (intercept included) reproduces the
    prediction.
    """
    term = model.spec.term(term_name)
    if term.kind == "intercept":
        row = _reference_row(model, values, model.frame.covariates.keys())
        z = _raw_clr_rows(model, row)[0]
    else:
        covs = term.covariates
        z = np.zeros(model.measure.size)
        for bits in range(2 ** len(covs)):
            off = [c for k, c in enumerate(covs) if not (bits >> k) & 1]
            sign = (-1.0) ** len(off)
            row = _reference_row(model, values, off)
            z += sign * _raw_clr_rows(model, row, include_offset=False)[0]
    z_el = ClrElement(model.measure, z)
    return clr_inv(z_el), z_el


def design_report(model: FittedModel) -> list[dict]:
    """Per-term design summary: smoothing parameter and degrees of freedom.

    Lets users check how comparable the base-learners are when equal degrees
    of freedom cannot be imposed (single-column terms cap at one).
    """
    rows = []
    for built in model.frame.built:
        rows.append(
            {
                "term": built.term.name,
                "kind": built.term.kind,
                "columns": built.X.shape[1],
                "lambda": built.lambda_cov,
                "target_df": built.target_df,
                "achieved_df": built.achieved_df,
            }
        )
    return rows

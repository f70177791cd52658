"""User-facing model layer: declare partial effects, build constrained
designs, fit by boosting, predict, and extract interpretable effect views.

Terms are encoded internally with the requested coding (effect coding by
default) and made identifiable by sum-to-zero centering over the observations
plus, for interaction-style terms, orthogonality to the named main effects.
Reported effects are always converted to reference coding: a term evaluated
with any of its covariates at the reference contributes the neutral density.

A fitted model keeps one predictor state, which is also what a model file
holds (see :mod:`densreg.io`): a ``_Covariate`` per covariate and a
``_TermEncoder`` per term, which turns covariate values into constrained
design rows and records the term's smoothing parameter and degrees of
freedom. The training designs live only in the boosting inputs
(:class:`~densreg.basis.EffectDesign`). Between the density or clr elements
that enter and leave, the layer works on N x P clr arrays.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .basis import (
    DensityBasis,
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
    discrete_star_measure,
    embed_clr_continuous_rows,
    embed_clr_discrete_rows,
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


@dataclass(frozen=True)
class _Covariate:
    """Per-covariate metadata inferred from the training table."""

    name: str
    kind: str                   # "categorical" | "numeric"
    reference: str | float
    levels: tuple = ()          # categorical: sorted level labels
    lo: float = 0.0             # numeric: training range
    hi: float = 0.0

    @classmethod
    def infer(cls, name: str, kind: str, values, reference=None) -> "_Covariate":
        if kind == "categorical":
            levels = tuple(sorted({str(v) for v in values}))
            if len(levels) < 2:
                raise ValueError(f"covariate {name!r} needs at least two levels")
            ref = str(reference) if reference is not None else levels[0]
            if ref not in levels:
                raise ValueError(f"reference {ref!r} not a level of {name!r}")
            return cls(name, kind, ref, levels=levels)
        vals = np.asarray(values, dtype=float)
        if np.ptp(vals) == 0.0:
            raise ValueError(f"covariate {name!r} is constant")
        lo, hi = float(vals.min()), float(vals.max())
        return cls(name, kind, float(reference) if reference is not None else lo, lo=lo, hi=hi)

    def to_dict(self) -> dict:
        keys = ("levels",) if self.kind == "categorical" else ("lo", "hi")
        return {"kind": self.kind, **{k: getattr(self, k) for k in keys},
                "reference": self.reference}

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "_Covariate":
        if d["kind"] == "categorical":
            return cls(name, "categorical", d["reference"], levels=tuple(d["levels"]))
        if d["kind"] == "numeric":
            return cls(name, "numeric", d["reference"], lo=d["lo"], hi=d["hi"])
        raise ValueError(f"covariate {name!r}: unknown kind {d['kind']!r}")


@dataclass(frozen=True)
class _TermEncoder:
    """Everything that turns covariate values into design rows of one term.

    Interaction-style terms orthogonalized against main effects
    (``full_rank``) use the full tensor basis, and the constraints remove the
    redundant directions. ``transform`` maps raw to constrained columns (None
    when the term is unconstrained); ``lambda_cov``, ``target_df`` and
    ``achieved_df`` record the degree-of-freedom calibration.
    """

    term: EffectTerm
    covariates: tuple
    coding: str
    full_rank: bool
    knot_vectors: dict
    transform: np.ndarray | None = None
    lambda_cov: float = 0.0
    target_df: float | None = None
    achieved_df: float = 0.0

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
                x = np.asarray(column, dtype=float)
                blocks.append(bspline_eval(self.knot_vectors[cov.name], term.degree, x))
        if term.kind == "linear":
            return np.hstack([np.ones((n, 1)), blocks[0]])
        out = blocks[0]
        for block in blocks[1:]:
            # row-wise tensor product of the design blocks
            out = (out[:, :, None] * block[:, None, :]).reshape(n, -1)
        return out

    def design(self, data) -> np.ndarray:
        """Constrained design rows for a covariate table."""
        raw = self.raw_design(data)
        return raw @ self.transform if self.transform is not None else raw

    @property
    def n_columns(self) -> int:
        """Number of constrained design columns, from one in-range row."""
        if not self.covariates:
            return 1
        row = {c.name: [c.levels[0] if c.levels else c.lo] for c in self.covariates}
        return self.design(row).shape[1]

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

    def to_dict(self) -> dict:
        return {
            **asdict(self.term),
            "transform": None if self.transform is None else self.transform.tolist(),
            "lambda_cov": self.lambda_cov,
            "target_df": self.target_df,
            "achieved_df": self.achieved_df,
            "knot_vectors": {k: v.tolist() for k, v in self.knot_vectors.items()},
        }

    @classmethod
    def from_dict(cls, d: dict, covariates: dict, coding: str) -> "_TermEncoder":
        term = EffectTerm(**{f.name: d[f.name] for f in fields(EffectTerm)})
        return cls(
            term,
            tuple(covariates[c] for c in term.covariates),
            coding,
            bool(term.orthogonal_to),
            {k: np.asarray(v, dtype=float) for k, v in d["knot_vectors"].items()},
            None if d["transform"] is None else np.asarray(d["transform"], dtype=float),
            d["lambda_cov"],
            d.get("target_df", d["df"]),
            d["achieved_df"],
        )


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
            covs[cname] = _Covariate.infer(cname, ckind, column, spec.references.get(cname))
    return covs


def _calibrate(x, pen, target):
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


@dataclass(frozen=True)
class _PredictorState:
    """Covariates by name and one encoder per term, in term order."""

    covariates: dict
    encoders: tuple


def _encode(spec: ModelSpec, data, default_df: float) -> tuple[_PredictorState, list]:
    """Predictor state plus, per term, the constrained training design and
    covariate penalty."""
    covariates = _infer_covariates(spec, data)
    encoders, blocks, designs_by_name = [], [], {}
    splines = ("flexible", "group_flexible", "varying_coefficient", "interaction")
    for term in spec.terms:
        covs = tuple(covariates[c] for c in term.covariates)
        knots = {
            c.name: bspline_knots(c.lo, c.hi, term.knots, term.degree)
            for c in covs if c.kind == "numeric" and term.kind in splines
        }
        encoder = _TermEncoder(term, covs, spec.coding, bool(term.orthogonal_to), knots)
        raw = encoder.raw_design(data)
        pen = encoder.raw_penalty(raw.shape[1])
        rows = []
        # categorical terms under reference coding are identified by their
        # zero reference rows instead of sum-to-zero centering
        has_categorical = any(c.kind == "categorical" for c in covs)
        skip_center = (
            spec.coding == "reference" and has_categorical and not term.orthogonal_to
        )
        if term.kind != "intercept" and spec.has_intercept and not skip_center:
            rows.append(raw.mean(axis=0)[None, :])
        for other in term.orthogonal_to:
            if other not in designs_by_name:
                raise ValueError(
                    f"term {term.name!r} is constrained against {other!r}, "
                    "which must be declared earlier"
                )
            rows.append(designs_by_name[other].T @ raw)
        transform = _nullspace_transform(np.vstack(rows)) if rows else None
        if transform is not None:
            x = raw @ transform
            pen = transform.T @ pen @ transform
        else:
            x = raw
        target = term.df if term.df is not None else default_df
        lam, achieved = _calibrate(x, pen, target)
        encoders.append(
            replace(encoder, transform=transform, lambda_cov=lam, target_df=target,
                    achieved_df=achieved)
        )
        blocks.append((x, pen))
        designs_by_name[term.name] = x
    return _PredictorState(covariates, tuple(encoders)), blocks


@dataclass
class FittedModel:
    """A fitted additive density regression ready for prediction."""

    spec: ModelSpec
    measure: ReferenceMeasure
    frame: _PredictorState
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
        for j, term in enumerate(self.spec.terms):
            per = {name: bool(state.selected_mask[j]) for name, state in states.items()}
            per["combined"] = any(per.values())
            out[term.name] = per
        return out

    def to_dict(self) -> dict:
        """The model-file fields that follow ``format`` and ``version``
        (see :mod:`densreg.io`)."""
        options = self.density_options
        return {
            "measure": self.measure.to_dict(),
            "coding": self.spec.coding,
            "references": self.spec.references,
            "covariates": {name: c.to_dict() for name, c in self.frame.covariates.items()},
            "terms": [e.to_dict() for e in self.frame.encoders],
            "density_basis": {
                "knots": options.get("density_knots", 10),
                "degree": options.get("density_degree", 3),
                "penalty_order": options.get("density_penalty_order", 2),
                "lambda_density": self.lambda_density,
            },
            "bases": {comp: basis.to_dict() for comp, basis in self.bases.items()},
            "fits": {comp: state.to_dict() for comp, state in self.component_states().items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        """Rebuild a model from its model-file fields.

        The result predicts and interprets like the fitted model. The file
        keeps neither the training surfaces nor the boosting settings, so
        ``fitted_clr`` and ``config`` are None.
        """
        measure = ReferenceMeasure.from_dict(d["measure"])
        covariates = {
            name: _Covariate.from_dict(name, cd) for name, cd in d["covariates"].items()
        }
        encoders = tuple(
            _TermEncoder.from_dict(td, covariates, d["coding"]) for td in d["terms"]
        )
        spec = ModelSpec(tuple(e.term for e in encoders), d["coding"], dict(d["references"]))
        db = d["density_basis"]
        bases = {
            comp: DensityBasis.from_dict(bd, db["knots"], db["degree"])
            for comp, bd in d["bases"].items()
        }
        columns = [e.n_columns for e in encoders]
        states = {}
        for comp, fd in d["fits"].items():
            states[comp] = state = FitState.from_dict(fd, bases[comp].measure)
            widths = [k * bases[comp].n_basis for k in columns]
            if [c.size for c in state.coefficients] != widths:
                raise ValueError(f"fits.{comp}: coefficient lengths differ from {widths}")
        if set(states) == {"continuous", "discrete"}:
            fits = MixedFit(states["continuous"], states["discrete"], measure, None)
        else:
            fits = states["single"]
        return cls(
            spec, measure, _PredictorState(covariates, encoders), fits, bases,
            db["lambda_density"], None,
            {"density_knots": db["knots"], "density_degree": db["degree"],
             "density_penalty_order": db["penalty_order"]},
        )


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

    Returns (frame, bases, designs): ``frame`` is the predictor state, and
    ``bases`` and ``designs`` are dicts keyed by component name: "single" for
    pure measures, "continuous" and "discrete" for mixed ones.
    """
    frame, blocks = _encode(spec, data, default_df)
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
        key: [
            assemble_effect(e.term.name, x, pen, basis, e.lambda_cov, lambda_density)
            for e, (x, pen) in zip(frame.encoders, blocks)
        ]
        for key, basis in bases.items()
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


def _raw_clr_rows(model: FittedModel, data, include_offset=True) -> np.ndarray:
    """N x P clr predictions on the response measure for the rows of ``data``."""
    n = _table_length(data)
    designs = [e.design(data) for e in model.frame.encoders]
    out = np.zeros((n, model.measure.size))
    for component, state in model.component_states().items():
        basis = model.bases[component]
        comp = np.zeros((n, state.offset_clr.size))
        if include_offset:
            comp += state.offset_clr
        for x, coef in zip(designs, state.coefficients):
            comp += x @ coef.reshape(x.shape[1], basis.n_basis) @ basis.clr_matrix.T
        if model.is_mixed:
            embed = (
                embed_clr_continuous_rows if component == "continuous"
                else embed_clr_discrete_rows
            )
            comp = embed(comp, model.measure)
        out += comp
    return out


def predict_clr(model: FittedModel, newdata) -> list[ClrElement]:
    rows = _raw_clr_rows(model, newdata)
    return [ClrElement(model.measure, row) for row in rows]


def predict(model: FittedModel, newdata) -> list[DensityElement]:
    """Predicted densities (probability representatives) for new covariates."""
    return [clr_inv(z) for z in predict_clr(model, newdata)]


def _reference_table(model: FittedModel, values: dict, at_reference: list) -> dict:
    """Covariate table with one row per entry of ``at_reference``: the
    covariates named there sit at their reference, the others at ``values``."""
    table = {}
    for name, cov in model.frame.covariates.items():
        if name not in values and not all(name in off for off in at_reference):
            raise ValueError(f"missing covariate {name!r}")
        table[name] = [cov.reference if name in off else values[name] for off in at_reference]
    return table


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
        table = _reference_table(model, values, [tuple(model.frame.covariates)])
        z = _raw_clr_rows(model, table)[0]
    else:
        covs = term.covariates
        offs = [
            [c for k, c in enumerate(covs) if not (bits >> k) & 1]
            for bits in range(2 ** len(covs))
        ]
        signs = np.array([(-1.0) ** len(off) for off in offs])
        table = _reference_table(model, values, offs)
        z = signs @ _raw_clr_rows(model, table, include_offset=False)
    z_el = ClrElement(model.measure, z)
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

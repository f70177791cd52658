"""Generated reference measures, through the decomposition and the commands.

The measures vary what the benchmark workloads and the other tests keep
fixed: atoms below, at and above the interval midpoint, at 0.75 of it and at
random places, atom weights from 1e-3 to 1e3 against intervals of other
lengths, and grid sizes from 4 to 300. On a mixed measure each part of the
orthogonal decomposition must integrate to zero under its own component
weights, written out here as the atoms' weights followed by the Lebesgue
length, and the squared norm must split between the parts. On every kind of
measure the command chain must end with exit 0, without a traceback and
without a RuntimeWarning; so must the chain from observations, which starts
with ``estimate`` on [0, 1] with atoms at 0 and 1 of generated weights and
grids as coarse as 4 nodes, below the 13 columns of the default density
basis. Hypothesis runs derandomized, without an example database and with a
bounded number of examples, so a run is repeatable.
"""
import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from densreg.bayes import (
    check_decomposition,
    clr_inv_rows,
    decompose_clr_rows,
    discrete_star_measure,
)
from densreg.cli import main
from densreg.io import model_from_dict, write_density_file
from densreg.measure import make_discrete, make_mixed
from densreg.synth import synthetic_observations

# capsys is read after every command, so it may serve every example
SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

# where an atom sits, as a fraction of the interval
PLACES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
WEIGHTS = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def mixed_measures(draw):
    a = draw(st.floats(-100.0, 100.0))
    b = a + draw(st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e))
    places = draw(st.lists(PLACES, min_size=1, max_size=4, unique=True))
    atoms = [(a + p * (b - a), draw(WEIGHTS)) for p in places]
    try:
        return make_mixed(a, b, atoms, draw(st.integers(4, 300)))
    except ValueError:
        # an atom on a quadrature node, or two places that round to one
        # location: the config would be rejected the same way
        reject()


def clr_draws(m, seed):
    """Three random clr rows on ``m``."""
    z = np.random.default_rng(seed).normal(0.0, 5.0, size=(3, m.size))
    return z - (z @ m.weights)[:, None] / m.total_mass


@settings(max_examples=150, **SETTINGS)
@given(mixed_measures(), st.integers(0, 2 ** 32 - 1))
def test_each_part_integrates_to_zero_under_its_own_weights(m, seed):
    z = clr_draws(m, seed)
    z_c, z_d = decompose_clr_rows(z, m)
    discrete_weights = np.append(m.atom_weights, m.lebesgue_length)
    scale = np.abs(z).max() * m.total_mass
    assert np.abs(z_c @ m.grid_weights).max() <= 1e-12 * scale
    assert np.abs(z_d @ discrete_weights).max() <= 1e-12 * scale
    # the parts are orthogonal, so the squared norm splits between them
    norm2 = (z ** 2) @ m.weights
    parts2 = (z_c ** 2) @ m.grid_weights + (z_d ** 2) @ discrete_weights
    np.testing.assert_allclose(parts2, norm2, rtol=1e-12)
    # the measure the discrete component is fitted under has those weights
    star = discrete_star_measure(m)
    np.testing.assert_array_equal(star.weights, discrete_weights)
    np.testing.assert_array_equal(star.atom_locations[:-1], m.atom_locations)
    assert star.atom_locations[-1] > m.interval[1]
    deviation, tolerance = check_decomposition(z, (z_c, z_d), m)
    assert deviation <= tolerance


def test_check_names_the_part_off_its_zero_integral():
    m = make_mixed(0.0, 1.0, [(0.0, 0.5), (1.0, 0.5)], 10)
    z = clr_draws(m, 0)
    z_c, z_d = decompose_clr_rows(z, m)
    z_d[1] += 1.0
    with pytest.raises(FloatingPointError,
                       match=r"^discrete part: clr values must be finite and integrate "
                             r"to zero \(rows 2\)$"):
        check_decomposition(z, (z_c, z_d), m, FloatingPointError)


# ---------------------------------------------------------------------------
# The command chain
# ---------------------------------------------------------------------------

KEYS = ["region", "c_age", "year"]
ROWS = [(region, c_age, float(year)) for region in ("east", "west")
        for c_age in ("kids", "other") for year in range(4)]


def write_inputs(tmp_path, m):
    """A density file of 16 densities on ``m``, a newdata table and the
    config that reads them; returns the config path."""
    t = m.locations - m.locations.min()
    t = t / max(t.max(), 1e-300)
    rng = np.random.default_rng(0)
    z = np.array([(region == "east") * np.sin(2.0 * np.pi * t) + (c_age == "kids") * t
                  + 0.1 * year * t ** 2 + 0.05 * rng.normal(size=m.size)
                  for region, c_age, year in ROWS])
    z -= (z @ m.weights)[:, None] / m.total_mass
    densities = tmp_path / "densities.tsv"
    write_density_file(densities, m, KEYS, [(r, c, repr(y)) for r, c, y in ROWS],
                       clr_inv_rows(z, m))
    newdata = tmp_path / "newdata.tsv"
    newdata.write_text("\t".join(KEYS) + "\n"
                       + "".join(f"{r}\t{c}\t{y!r}\n" for r, c, y in ROWS[::3]))
    at = {"region": "east", "c_age": "other", "year": 1.0}
    config = {
        "seed": 3,
        "out": str(tmp_path / "out"),
        "data": {"densities": str(densities), "newdata": str(newdata),
                 "model": str(tmp_path / "out" / "model.json")},
        "model": {
            "references": {"region": "west", "c_age": "other", "year": 0.0},
            "density_basis": {"knots": 4},
            "terms": [
                {"name": "intercept", "kind": "intercept"},
                {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
                {"name": "c_age", "kind": "group_intercept", "covariates": ["c_age"]},
                {"name": "year", "kind": "flexible", "covariates": ["year"], "knots": 2},
            ],
        },
        "boosting": {"max_iterations": 20, "stopping": {"method": "cv", "folds": 3}},
        "simulation": {"replicates": 2},
        "interpret": {
            "effects": [{"term": "region", "at": at, "name": "region_east"}],
            "odds": [{"term": "region", "at": at, "t": float(m.locations[0]),
                      "s": float(m.locations[-1])}],
            "did": [{"factor_a": "region", "levels_a": ["east", "west"],
                     "factor_b": "c_age", "levels_b": ["kids", "other"],
                     "fixed": {"year": 1.0}, "name": "did"}],
            "heatmap_resolution": 5,
            "svg": True,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_clean(capsys, argv):
    """Run one command in process; it must exit 0 without a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, f"{argv[0]}: exit {code}: {err}"
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def run_chain(tmp_path, capsys, m, commands=("fit", "predict", "interpret")):
    """Run ``commands`` on densities on ``m``, then ``check`` on the
    predictions; returns the output directory."""
    cfg = write_inputs(tmp_path, m)
    for command in commands:
        run_clean(capsys, [command, "--config", cfg])
    run_clean(capsys, ["check", str(tmp_path / "out" / "predictions.tsv"), "--config", cfg])
    return tmp_path / "out"


@pytest.mark.parametrize("m", [
    make_mixed(0.0, 1.0, [(0.0, 0.5), (1.0, 0.5)], 100),
    make_mixed(-50.0, 200.0, [(-50.0, 1.0), (200.0, 30.0)], 100),
    make_mixed(0.0, 1.0, [(0.5, 1.0), (0.75, 1.0)], 100),
], ids=["weights-0.5-0.5", "weights-1-30", "atoms-0.5-0.75"])
def test_chain_on_weighted_atoms(tmp_path, capsys, m):
    out = run_chain(tmp_path, capsys, m, ("fit", "predict", "interpret", "simulate"))
    fit = json.loads((out / "model.json").read_text())["fits"]
    assert set(fit) == {"continuous", "discrete"}


@st.composite
def chain_measures(draw, kind):
    """A measure of ``kind`` on [0, 10]: "mixed" or "discrete" with one to
    four atoms, or "continuous"."""
    places = [] if kind == "continuous" else draw(
        st.lists(PLACES, min_size=1, max_size=4, unique=True))
    atoms = [(10.0 * p, draw(WEIGHTS)) for p in places]
    try:
        if kind == "discrete":
            return make_discrete(atoms)
        return make_mixed(0.0, 10.0, atoms, draw(st.integers(4, 60)))
    except ValueError:
        reject()


@pytest.mark.parametrize("kind", ["mixed", "discrete", "continuous"])
@settings(max_examples=8, **SETTINGS)
@given(data=st.data())
def test_chain_on_generated_measures(tmp_path_factory, capsys, kind, data):
    run_chain(tmp_path_factory.mktemp("chain"), capsys, data.draw(chain_measures(kind)))


@pytest.mark.parametrize("m", [
    make_discrete([(0.0, 1.0), (0.3, 2.0), (0.5, 0.5), (0.8, 1.0), (1.0, 3.0)]),
    make_mixed(0.0, 1.0, [], 30),
], ids=["discrete", "continuous"])
def test_bands_table_without_a_mixed_measure(tmp_path, capsys, m):
    out = run_chain(tmp_path, capsys, m, ("fit", "predict", "interpret", "simulate"))
    with open(out / "did_bands.tsv") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0] == ["point", "is_atom", "outer_band_log_odds"]
    assert [row[1] for row in rows[1:]].count("true") == m.n_atoms
    # no continuous aggregate to compare an atom with: every cell is empty
    assert all(row[2] == "" for row in rows[1:])


# ---------------------------------------------------------------------------
# The chain from observations: estimate on [0, 1] with atoms at 0 and 1
# ---------------------------------------------------------------------------

def write_estimate_inputs(tmp_path, weights, grid_size):
    """Observations of 6 groups, a newdata table and a config that estimates
    their densities on [0, 1] with atoms of ``weights`` at 0 and 1, then fits
    them with the default density basis; returns the config path."""
    table = synthetic_observations(seed=4, groups=6, n_per_group=40)
    observations = tmp_path / "observations.tsv"
    observations.write_text("region\tc_age\tvalue\tweight\n" + "".join(
        f"{r}\t{c}\t{v!r}\t{w!r}\n"
        for r, c, v, w in zip(table["region"], table["c_age"], table["value"], table["weight"])))
    newdata = tmp_path / "newdata.tsv"
    newdata.write_text("region\tc_age\n" + "".join(
        f"{r}\t{c}\n" for r, c in sorted(set(zip(table["region"], table["c_age"])))))
    at = {"region": "east", "c_age": "kids0_6"}
    config = {
        "seed": 3,
        "out": str(tmp_path / "out"),
        "data": {"observations": str(observations), "newdata": str(newdata),
                 "densities": str(tmp_path / "out" / "densities.tsv"),
                 "model": str(tmp_path / "out" / "model.json")},
        "measure": {"interval": [0.0, 1.0], "grid_size": grid_size,
                    "atoms": [{"location": 0.0, "weight": weights[0]},
                              {"location": 1.0, "weight": weights[1]}]},
        "kde": {"bandwidth": "auto"},
        "model": {
            "references": {"region": "west", "c_age": "other"},
            "terms": [
                {"name": "intercept", "kind": "intercept"},
                {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
                {"name": "c_age", "kind": "group_intercept", "covariates": ["c_age"]},
            ],
        },
        "boosting": {"max_iterations": 30, "stopping": {"method": "cv", "folds": 3}},
        "interpret": {
            "effects": [{"term": "region", "at": at}],
            "did": [{"factor_a": "region", "levels_a": ["east", "west"], "factor_b": "c_age",
                     "levels_b": ["kids0_6", "other"], "fixed": {}}],
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_estimate_chain(tmp_path, capsys, weights, grid_size):
    """``estimate`` to ``check`` from observations; returns the output directory."""
    cfg = write_estimate_inputs(tmp_path, weights, grid_size)
    for command in ("estimate", "fit", "predict", "interpret"):
        run_clean(capsys, [command, "--config", cfg])
    run_clean(capsys, ["check", str(tmp_path / "out" / "predictions.tsv"), "--config", cfg])
    return tmp_path / "out"


@pytest.mark.parametrize("grid_size", [4, 5, 6, 13])
def test_density_basis_finer_than_the_grid(tmp_path, capsys, grid_size):
    # 13 basis columns against a grid of at most 13 nodes: C = B'WB is
    # singular, and its null directions, which the grid cannot see, take no step
    out = run_estimate_chain(tmp_path, capsys, (1.0, 1.0), grid_size)
    model = model_from_dict(json.loads((out / "model.json").read_text()))
    basis = model.bases["continuous"]
    b = basis.clr_matrix
    spectrum, vectors = np.linalg.eigh(b.T @ (b * basis.measure.weights[:, None]))
    null = vectors[:, spectrum <= 1e-12 * spectrum.max()]
    assert null.shape[1] == b.shape[1] - (grid_size - 1)
    for coef in model.states["continuous"].coefficients:
        coef = coef.reshape(-1, basis.n_basis)
        assert np.abs(coef @ null).max() <= 1e-12 * np.linalg.norm(coef)


@settings(max_examples=20, **SETTINGS)
@given(weights=st.tuples(WEIGHTS, WEIGHTS), grid_size=st.integers(4, 300))
@example(weights=(1.0, 1.0), grid_size=4)
@example(weights=(1e-3, 1e3), grid_size=5)
@example(weights=(1e3, 0.5), grid_size=6)
def test_estimate_chain_on_generated_measures(tmp_path_factory, capsys, weights, grid_size):
    run_estimate_chain(tmp_path_factory.mktemp("estimate"), capsys, weights, grid_size)

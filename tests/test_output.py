import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalflow.measures import MeasureVector, ParticleMeasure
from nonlocalflow.output import emit_plotdata, write_trajectory
from nonlocalflow.solver import SolutionRecord

# -0.0, subnormals and values where %.17g switches to an exponent
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e17, 0.1, 1 / 3]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e16, 0.1]), st.floats(min_value=5e-324, max_value=1e300)
)


@st.composite
def records(draw):
    dim = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    snapshots = draw(st.integers(1, 3))
    # a record's times strictly increase; 0.0 and -0.0 are one time
    times = sorted(draw(st.lists(finite, min_size=snapshots, max_size=snapshots, unique=True)))
    weights = [np.array(draw(st.lists(positive, min_size=n, max_size=n))) for n in counts]
    states, densities = [], []
    for _ in range(snapshots):
        species = []
        for n, w in zip(counts, weights):
            pos = draw(st.lists(finite, min_size=n * dim, max_size=n * dim))
            species.append(ParticleMeasure(dim, np.reshape(pos, (n, dim)), w))
        states.append(MeasureVector(tuple(species)))
        densities.append(
            tuple(np.array(draw(st.lists(st.one_of(st.just(0.0), positive), min_size=n, max_size=n)))
                  for n in counts)
        )
    return SolutionRecord(np.array(times), states, densities)


def _oracle(record, head, cells, frame=False):
    """The table cell by cell: every number through f"{x:.17g}"."""
    lines = [",".join(head)]
    for j, (t, state) in enumerate(zip(record.times, record.states)):
        for i, mu in enumerate(state.species):
            for m in range(len(mu)):
                row = ([j] if frame else []) + [t, i, m, *mu.positions[m], *cells(j, i, m, mu)]
                lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(records())
def test_long_tables_match_a_cell_by_cell_oracle(tmp_path_factory, record):
    out = tmp_path_factory.mktemp("tables")
    dim = record.states[0].dim
    xs = [f"x_{a + 1}" for a in range(dim)]

    write_trajectory(record, out / "trajectory.csv")
    expected = _oracle(
        record,
        ["t", "species", "particle", *xs, "weight", "logdensity"],
        lambda j, i, m, mu: [mu.weights[m], np.log(max(record.densities[j][i][m], 1e-300))],
    )
    assert (out / "trajectory.csv").read_text() == expected

    untracked = SolutionRecord(record.times, record.states, None, record.diagnostics)
    write_trajectory(untracked, out / "plain.csv")
    expected = _oracle(
        record, ["t", "species", "particle", *xs, "weight"], lambda j, i, m, mu: [mu.weights[m]]
    )
    assert (out / "plain.csv").read_text() == expected

    if any(len(mu) for mu in record.states[0].species):
        emit_plotdata(record, "particle-cloud", out)
        expected = _oracle(
            record, ["frame", "t", "species", "particle", *xs], lambda j, i, m, mu: [], frame=True
        )
        assert (out / "plot" / "particle-cloud.csv").read_text() == expected


def test_cloud_spanning_the_double_range_has_finite_svg_coordinates(tmp_path):
    big = np.finfo(float).max
    mu = ParticleMeasure(2, np.array([[-big, -big], [big, big], [0.0, 5e-324]]), np.ones(3))
    record = SolutionRecord(np.array([0.0]), [MeasureVector((mu,))])
    emit_plotdata(record, "particle-cloud", tmp_path)
    svg = (tmp_path / "plot" / "particle-cloud.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    assert 'cx="40.00" cy="280.00"' in svg and 'cx="440.00" cy="40.00"' in svg

import dataclasses

import graph_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcjacobi.core import free_spec
from bcjacobi.discrete_wave import solve_semi_infinite
from bcjacobi.errors import InvalidInputError
from bcjacobi.graph_wave import Edge, GraphSpec, simulate


def delta_at_one(T):
    c = np.zeros(T + 1)
    c[1] = 1.0
    return c


def test_path_matches_free_jacobi_exactly():
    T = 9
    g = GraphSpec.path(12)
    fld, _ = simulate(g, {"in": delta_at_one(T)}, T)
    f = np.zeros(T)
    f[0] = 1.0
    wf = solve_semi_infinite(free_spec(T + 1), f, T)
    for t in range(1, T + 1):
        for n in range(0, T + 2):
            if n <= 12:
                assert fld.u[0][n, t] == wf.u[n, t - 1]


def test_zero_controls_zero_field():
    g = GraphSpec.star(3, 4)
    fld, log = simulate(g, {}, 6)
    assert all(np.all(arr == 0.0) for arr in fld.u)
    assert np.all(log[:, 1:] == 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fld.u = ()


def test_star_scattering_amplitudes():
    arm = 6
    T = arm + 3
    g = GraphSpec.star(3, arm)
    fld, _ = simulate(g, {"b0": delta_at_one(T)}, T)
    # vertex fires 2/3 at t = arm + 1; one step later the transmitted pulse is
    # one node into each outgoing edge and the reflected pulse one node back
    assert fld.u[1][arm - 1, arm + 2] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fld.u[2][arm - 1, arm + 2] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fld.u[0][arm - 1, arm + 2] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_degree_two_vertex_is_interior_point():
    # chain of two edges through a degree-2 internal vertex == one long edge
    g2 = GraphSpec(
        vertices=(("in", True), ("mid", False), ("out", True)),
        edges=(Edge("in", "mid", 4), Edge("mid", "out", 4)),
    )
    g1 = GraphSpec.path(8)
    T = 7
    f2, _ = simulate(g2, {"in": delta_at_one(T)}, T)
    f1, _ = simulate(g1, {"in": delta_at_one(T)}, T)
    long_edge = f1.u[0]
    for t in range(T + 1):
        for j in range(5):
            assert f2.u[0][j, t] == long_edge[j, t]
        for j in range(5):
            assert f2.u[1][j, t] == long_edge[4 + j, t]


def test_traveling_pulse_energy_constant():
    T = 10
    fld, log = simulate(GraphSpec.path(14), {"in": delta_at_one(T)}, T)
    totals = log[:, 3]  # rows t = 1..T
    assert np.max(np.abs(totals[1:] - 2.0)) == 0.0  # unit pulse carries T + U = 2


def test_star_energy_plateaus():
    arm = 6
    T = 2 * arm
    fld, log = simulate(GraphSpec.star(3, arm), {"b0": delta_at_one(T)}, T)
    e = log[:, 3]
    pre = e[1 : arm - 1]
    post = e[arm + 2 : T]
    assert np.max(np.abs(pre - 2.0)) <= 1e-15
    assert np.max(np.abs(post - 2.0)) <= 1e-14
    # the transient during the p = 3 vertex interaction is real: the displayed
    # flat energy dips below the plateau for two steps (exact values 25/18
    # and 31/18 for a unit pulse), then returns
    assert e[arm] == pytest.approx(25.0 / 18.0, abs=1e-14)
    assert e[arm + 1] == pytest.approx(31.0 / 18.0, abs=1e-14)


def test_symmetric_controls_symmetric_field():
    g = GraphSpec.star(2, 5)
    T = 8
    ctl = delta_at_one(T)
    fld, _ = simulate(g, {"b0": ctl, "b1": ctl}, T)
    assert np.array_equal(fld.u[0], fld.u[1])


def test_support_growth_one_node_per_step():
    arm = 7
    T = 6
    fld, _ = simulate(GraphSpec.star(3, arm), {"b0": delta_at_one(T)}, T)
    for t in range(T + 1):
        # control enters edge 0 at node 0 at time 1: support <= t - 1 nodes deep
        nz = np.nonzero(fld.u[0][:, t])[0]
        if nz.size:
            assert nz.max() <= max(t - 1, 0)
        assert np.all(fld.u[1][:, t][: max(0, arm - t)] == 0.0)


def test_vertex_continuity():
    g = GraphSpec.star(3, 4)
    T = 9
    fld, _ = simulate(g, {"b0": delta_at_one(T)}, T)
    for t in range(T + 1):
        center_vals = [fld.u[e][4, t] for e in range(3)]  # center is slot n_seg
        assert center_vals[0] == center_vals[1] == center_vals[2]


def test_energies_zero_field():
    _, log = simulate(GraphSpec.path(5), {}, 1)
    assert log.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphSpec(vertices=(("a", True), ("b", True), ("c", True)),
                  edges=(Edge("a", "b", 2), Edge("b", "c", 2)))  # b has degree 2 but boundary
    with pytest.raises(ValueError):
        GraphSpec(vertices=(("a", True), ("b", True), ("c", False)),
                  edges=(Edge("a", "b", 2),))  # c isolated
    with pytest.raises(ValueError):
        Edge("a", "b", 0)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        Edge("a", "b", 2.5)
    with pytest.raises(InvalidInputError, match="T must be an integer"):
        simulate(GraphSpec.path(3), {}, 2.5)


def test_graph_json_roundtrip():
    g = GraphSpec.star(3, 5)
    again = GraphSpec.from_json(g.to_json())
    assert again == g


def test_control_length_mismatch():
    g = GraphSpec.path(4)
    with pytest.raises(ValueError):
        simulate(g, {"in": np.zeros(3)}, 5)
    with pytest.raises(ValueError):
        simulate(g, {"nope": np.zeros(6)}, 5)


def test_vertex_rule_is_action_stationarity():
    # the simulated trajectory makes the discrete action stationary under
    # perturbations of interior values and internal-vertex values; the
    # action's vertex kinetic term carries mass p/2, which is exactly what
    # the printed vertex equation (-p/2, -p/2, +sum of neighbors) varies to
    arm, T = 4, 9
    g = GraphSpec.star(3, arm)
    fld, _ = simulate(g, {"b0": delta_at_one(T)}, T)

    def action(field_arrays, vertex_series):
        # vertex_series: the center values (shared by all edge endpoint slots)
        S = 0.0
        for t in range(1, T + 1):
            for arr in field_arrays:
                S += 0.5 * float(np.sum((arr[1:arm, t] - arr[1:arm, t - 1]) ** 2))
            S += (3 / 2) * 0.5 * (vertex_series[t] - vertex_series[t - 1]) ** 2
        for t in range(0, T + 1):
            for arr in field_arrays:
                S -= 0.5 * float(np.sum((arr[1 : arm + 1, t] - arr[0:arm, t]) ** 2))
        return S

    base_arrays = [a.copy() for a in fld.u]
    vertex = fld.u[0][arm, :].copy()
    # interior perturbation: dS/du must vanish for 1 <= t <= T - 1
    h = 1e-6
    for (e, j, t) in ((0, 2, 3), (1, 1, 6), (2, 3, 8)):
        for sgn in (+1, -1):
            arrays = [a.copy() for a in base_arrays]
            arrays[e][j, t] += sgn * h
            if sgn > 0:
                s_plus = action(arrays, vertex)
            else:
                s_minus = action(arrays, vertex)
        dS = (s_plus - s_minus) / (2 * h)
        assert abs(dS) <= 1e-8
    # vertex perturbation (all endpoint slots move together)
    for t in (5, 6, 7):
        for sgn in (+1, -1):
            arrays = [a.copy() for a in base_arrays]
            v = vertex.copy()
            v[t] += sgn * h
            for arr in arrays:
                arr[arm, t] += sgn * h  # center is slot `arm` of every edge
            if sgn > 0:
                s_plus = action(arrays, v)
            else:
                s_minus = action(arrays, v)
        dS = (s_plus - s_minus) / (2 * h)
        assert abs(dS) <= 1e-8


def test_single_segment_edges_degenerate_stencil():
    # N_i = 1 edges: the neighbor-of-vertex sample is the opposite endpoint
    g = GraphSpec.star(3, 1)
    T = 5
    fld, _ = simulate(g, {"b0": delta_at_one(T)}, T)
    # center at t = 2: (2/3) * (sum of boundary values at t = 1) = 2/3
    assert fld.u[0][1, 2] == pytest.approx(2.0 / 3.0)
    # boundary values stay clamped to their controls
    assert fld.u[1][0, 2] == 0.0
    assert np.all(np.isfinite(fld.u[0]))


def test_graph_without_vertices_is_rejected():
    with pytest.raises(InvalidInputError, match="at least one vertex"):
        GraphSpec(vertices=(), edges=())


@pytest.mark.parametrize("drop", ["vertices", "edges", "vertex boundary", "edge n_interior"])
def test_graph_json_missing_key_is_rejected(drop):
    obj = GraphSpec.path(3).to_json()
    if drop in obj:
        del obj[drop]
    elif drop == "vertex boundary":
        del obj["vertices"][0]["boundary"]
    else:
        del obj["edges"][0]["n_interior"]
    with pytest.raises(InvalidInputError, match="KeyError"):
        GraphSpec.from_json(obj)


@pytest.mark.parametrize("field, value", [
    ("n_interior", 2.7), ("n_interior", True), ("n_interior", "2"),
    ("boundary", "no"), ("boundary", 1), ("id", ["in"]), ("from", 0),
])
def test_graph_json_wrong_type_is_rejected(field, value):
    obj = GraphSpec.path(3).to_json()
    if field in ("n_interior", "from"):
        obj["edges"][0][field] = value
    else:
        obj["vertices"][0][field] = value
    with pytest.raises(InvalidInputError, match="malformed graph JSON"):
        GraphSpec.from_json(obj)


@st.composite
def graph_runs(draw, max_T=24):
    """(graph, controls, T) on a connected graph: a path, or a random tree of
    internal vertices (stars, degree-2 chains, internal leaves of degree 1)
    with extra parallel or cycle-closing edges, edges of 1..5 segments in
    either orientation, and boundary vertices left clamped or driven by
    mixed-sign controls."""
    seg = st.integers(1, 5)
    k = draw(st.sampled_from([1, 2, 3, 4, 0]))
    if k == 0:
        graph = GraphSpec.path(draw(seg))
    else:
        inner = [f"v{i}" for i in range(k)]
        ends = [(inner[draw(st.integers(0, i - 1))], inner[i]) for i in range(1, k)]
        if k > 1:
            for _ in range(draw(st.integers(0, 2))):
                i, j = draw(st.lists(st.sampled_from(inner), min_size=2, max_size=2, unique=True))
                ends.append((i, j))
        outer = [f"b{i}" for i in range(draw(st.integers(1, 5)))]
        ends += [(b, draw(st.sampled_from(inner))) for b in outer]
        edges = tuple(Edge(*(reversed(ab) if draw(st.booleans()) else ab), draw(seg)) for ab in ends)
        graph = GraphSpec(vertices=tuple((v, False) for v in inner) + tuple((b, True) for b in outer),
                          edges=edges)
    T = draw(st.integers(0, max_T))
    values = st.floats(-4.0, 4.0, allow_subnormal=False)
    driven = graph.boundary[:1] + [b for b in graph.boundary[1:] if draw(st.booleans())]
    controls = {b: np.array(draw(st.lists(values, min_size=T + 1, max_size=T + 1))) for b in driven}
    return graph, controls, T


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(graph_runs())
def test_simulate_matches_per_edge_oracle(run):
    fld, log = simulate(*run)
    ref, ref_log = graph_oracle.simulate(*run)
    assert len(fld.u) == len(ref.u)
    assert all(np.array_equal(a, b) for a, b in zip(fld.u, ref.u))
    assert np.array_equal(log, ref_log)


def leapfrog_energy(field):
    """E_t = <u^{t+1}, m u^{t+1}> + <u^t, m u^t> - <u^{t+1}, A u^t> and its two
    mass terms, t = 0..T-1, over the free nodes while boundary values are 0.

    m is 1 at interior points and p/2 at an internal vertex, i.e. 1/2 for each
    edge end there, and A counts every lattice segment once each way, so both
    are sums over the edges.  The vertex rule is m (u^{t+1} + u^{t-1}) = A u^t.
    """
    mass, cross = 0.0, 0.0
    for arr in field.u:
        w = np.ones(arr.shape[0])
        w[[0, -1]] = 0.5
        mass = mass + w @ arr**2
        cross = cross + np.sum(arr[:-1, 1:] * arr[1:, :-1] + arr[1:, 1:] * arr[:-1, :-1], axis=0)
    positive = mass[1:] + mass[:-1]
    return positive - cross, positive


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(graph_runs(max_T=40), st.integers(1, 12))
def test_leapfrog_energy_is_conserved_once_controls_stop(run, t_off):
    graph, controls, T = run
    for c in controls.values():
        c[t_off + 1 :] = 0.0
    fld, _ = simulate(graph, controls, T)
    E, positive = leapfrog_energy(fld)
    E, positive = E[t_off + 1 :], positive[t_off + 1 :]  # boundary values 0 at t and t+1
    if E.size:
        assert np.max(np.abs(E - E[0])) <= 1e-13 * np.max(positive)

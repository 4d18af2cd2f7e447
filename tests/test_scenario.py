"""Scenario file parsing: happy paths over the bundled files, and the
error diagnostics (every message should carry a line number or a name).
"""

import numpy as np
import pytest

import gamedyn as gd

from conftest import ALL_SCENARIOS, get_scenario

MATRIX_TEMPLATE = """\
[actions]
a1, a2

[costs]
a1, all, affine, 1, 0
a2, all, constant, 1

[populations]
p1, 1

[dynamics]
protocol = logit
eta = 0.5
"""


def load_text(tmp_path, text, name="case.scn"):
    p = tmp_path / name
    p.write_text(text)
    return gd.load_scenario(p)


# ---------------------------------------------------------------------------
# Bundled scenarios


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_bundled_scenarios_load_and_build(name):
    scn = get_scenario(name)
    game, rgame = scn.build_game()
    assert scn.eta() > 0
    assert (rgame is not None) == (scn.kind == "routing")
    if rgame is not None:
        assert rgame.game.actions == game.actions


def test_wheatstone_build_details():
    scn = get_scenario("wheatstone")
    game, rgame = scn.build_game()
    assert game.populations == ("p1", "p2")
    np.testing.assert_array_equal(game.masses, [1.0, 3.0])
    assert game.actions == ("r1", "r2", "r3")
    assert rgame.route_set.routes[1] == ("e1", "e4")
    assert scn.eta() == 0.2
    assert scn.seed() == 1702
    assert scn.run_float("horizon", 0.0) == 50.0
    assert scn.run_int("steps", 0) == 60


def test_matrix_scenario_kind():
    scn = get_scenario("coordination")
    assert scn.kind == "explicit"
    game, rgame = scn.build_game()
    assert rgame is None
    assert game.actions == ("a1", "a2")


# ---------------------------------------------------------------------------
# Initial configurations


def test_initial_configuration_modes(tmp_path, rng):
    scn = get_scenario("pigou")
    game, _ = scn.build_game()
    x = scn.initial_configuration(game, rng)          # run says vertex:r2
    np.testing.assert_array_equal(x, [[0.0], [1.0]])

    text = MATRIX_TEMPLATE + "\n[run]\nx0 = explicit: 0.25; 0.75\n"
    scn2 = load_text(tmp_path, text)
    g2, _ = scn2.build_game()
    np.testing.assert_allclose(scn2.initial_configuration(g2, rng),
                               [[0.25], [0.75]])

    text3 = MATRIX_TEMPLATE + "\n[run]\nx0 = random\n"
    scn3 = load_text(tmp_path, text3, "case3.scn")
    g3, _ = scn3.build_game()
    a = scn3.initial_configuration(g3, np.random.default_rng(5))
    b = scn3.initial_configuration(g3, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    gd.validate_configuration(g3, a)


def test_initial_configuration_errors(tmp_path, rng):
    scn = load_text(tmp_path, MATRIX_TEMPLATE + "\n[run]\nx0 = vertex:zz\n")
    game, _ = scn.build_game()
    with pytest.raises(gd.ScenarioError):
        scn.initial_configuration(game, rng)
    scn2 = load_text(tmp_path, MATRIX_TEMPLATE + "\n[run]\nx0 = explicit: 1\n",
                     "c2.scn")
    g2, _ = scn2.build_game()
    with pytest.raises(gd.ScenarioError):
        scn2.initial_configuration(g2, rng)


def test_uniform_default_when_run_absent(tmp_path, rng):
    scn = load_text(tmp_path, MATRIX_TEMPLATE)
    game, _ = scn.build_game()
    np.testing.assert_allclose(scn.initial_configuration(game, rng),
                               [[0.5], [0.5]])
    assert scn.seed() == 0


# ---------------------------------------------------------------------------
# Parse errors


def err(tmp_path, text, name="bad.scn"):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(gd.ScenarioError) as ei:
        gd.load_scenario(p)
    return str(ei.value)


def test_unknown_section_reports_line(tmp_path):
    msg = err(tmp_path, "[actions]\na1, a2\n\n[nonsense]\nz\n")
    assert "nonsense" in msg and "4" in msg


def test_content_before_section(tmp_path):
    msg = err(tmp_path, "a1, a2\n[actions]\na1\n")
    assert "1" in msg


def test_empty_field_flagged(tmp_path):
    msg = err(tmp_path, "[actions]\na1, , a2\n")
    assert "empty" in msg.lower()


def test_actions_and_links_are_exclusive(tmp_path):
    text = ("[actions]\na1\n\n[nodes]\no, d\n\n[links]\ne1, o, d\n\n"
            "[costs]\ne1, all, constant, 1\n\n[populations]\np1, 1\n\n"
            "[od]\no, d\n\n[dynamics]\nprotocol = logit\neta = 1\n")
    msg = err(tmp_path, text)
    assert "actions" in msg and "links" in msg


def test_missing_populations(tmp_path):
    msg = err(tmp_path, "[actions]\na1, a2\n\n[costs]\na1, all, constant, 1\n"
                        "a2, all, constant, 1\n\n[dynamics]\n"
                        "protocol = logit\neta = 1\n")
    assert "populations" in msg


def test_negative_mass(tmp_path):
    text = MATRIX_TEMPLATE.replace("p1, 1", "p1, -2")
    msg = err(tmp_path, text)
    assert "mass" in msg.lower()


def test_duplicate_cost_record(tmp_path):
    text = MATRIX_TEMPLATE.replace("a2, all, constant, 1",
                                   "a2, all, constant, 1\na1, p1, affine, 1, 0\n"
                                   "a1, p1, affine, 2, 0")
    msg = err(tmp_path, text)
    assert "duplicate" in msg.lower() or "twice" in msg.lower()


def test_missing_cost_pair(tmp_path):
    text = MATRIX_TEMPLATE.replace("a2, all, constant, 1\n", "")
    msg = err(tmp_path, text)
    assert "a2" in msg


def test_bad_affine_arity(tmp_path):
    text = MATRIX_TEMPLATE.replace("affine, 1, 0", "affine, 1, 0, 7")
    msg = err(tmp_path, text)
    assert "affine" in msg


def test_bad_table_params(tmp_path):
    text = MATRIX_TEMPLATE.replace("affine, 1, 0", "table, 0, 1, 2")
    msg = err(tmp_path, text)
    assert "table" in msg


def test_unknown_cost_kind(tmp_path):
    text = MATRIX_TEMPLATE.replace("affine", "cubic")
    msg = err(tmp_path, text)
    assert "cubic" in msg


def test_tolls_need_sensitivities(tmp_path):
    text = ("[nodes]\no, d\n\n[links]\ne1, o, d\ne2, o, d\n\n[costs]\n"
            "e1, all, affine, 1, 0\ne2, all, affine, 1, 0\n\n"
            "[tolls]\ne1, 0\ne2, 1\n\n[populations]\np1, 1\n\n[od]\no, d\n\n"
            "[dynamics]\nprotocol = logit\neta = 1\n")
    msg = err(tmp_path, text)
    assert "sensitiv" in msg


def test_tolls_forbid_per_population_costs(tmp_path):
    text = ("[nodes]\no, d\n\n[links]\ne1, o, d\ne2, o, d\n\n[costs]\n"
            "e1, p1, affine, 1, 0\ne2, all, affine, 1, 0\n\n"
            "[tolls]\ne1, 0\ne2, 1\n\n[sensitivities]\np1, 1\n\n"
            "[populations]\np1, 1\n\n[od]\no, d\n\n"
            "[dynamics]\nprotocol = logit\neta = 1\n")
    msg = err(tmp_path, text)
    assert "all" in msg


TOLLS_TEMPLATE = """\
[nodes]
o, d

[links]
e1, o, d
e2, o, d

[costs]
e1, all, affine, 1, 0
e2, all, affine, 1, 0

[tolls]
e1, 0
e2, 1

[sensitivities]
p1, 1

[populations]
p1, 1

[od]
o, d

[dynamics]
protocol = logit
eta = 1
"""


@pytest.mark.parametrize("template, line, bad, what", [
    (TOLLS_TEMPLATE, "e2, 1", "e2, abc", "omega 'abc'"),
    (TOLLS_TEMPLATE, "e2, 1", "e2, nan", "omega 'nan'"),
    (TOLLS_TEMPLATE, "e2, 1", "e2, inf", "omega 'inf'"),
    (TOLLS_TEMPLATE, "p1, 1\n\n[populations]", "p1, abc\n\n[populations]", "alpha 'abc'"),
    (TOLLS_TEMPLATE, "p1, 1\n\n[populations]", "p1, -inf\n\n[populations]", "alpha '-inf'"),
    (TOLLS_TEMPLATE, "e1, all, affine, 1, 0", "e1, all, affine, nan, 0",
     "cost parameter 'nan'"),
    (MATRIX_TEMPLATE, "a2, all, constant, 1", "a2, all, constant, inf",
     "cost parameter 'inf'"),
    (MATRIX_TEMPLATE, "a1, all, affine, 1, 0", "a1, all, affine, 1, x",
     "cost parameter 'x'"),
    (MATRIX_TEMPLATE, "p1, 1", "p1, nan", "mass 'nan'"),
    (MATRIX_TEMPLATE, "p1, 1", "p1, two", "mass 'two'"),
])
def test_record_numbers_must_be_finite(tmp_path, template, line, bad, what):
    assert template.count(line) == 1
    text = template.replace(line, bad)
    lineno = text.splitlines().index(bad.splitlines()[0]) + 1
    msg = err(tmp_path, text)
    assert f"bad.scn:{lineno}: {what} is not a finite number" in msg


def test_routing_needs_od(tmp_path):
    text = ("[nodes]\no, d\n\n[links]\ne1, o, d\n\n[costs]\n"
            "e1, all, affine, 1, 0\n\n[populations]\np1, 1\n\n"
            "[dynamics]\nprotocol = logit\neta = 1\n")
    msg = err(tmp_path, text)
    assert "od" in msg.lower()


def test_unsupported_protocol(tmp_path):
    text = MATRIX_TEMPLATE.replace("protocol = logit", "protocol = imitation")
    msg = err(tmp_path, text)
    assert "imitation" in msg


def test_eta_must_be_positive(tmp_path):
    text = MATRIX_TEMPLATE.replace("eta = 0.5", "eta = -1")
    msg = err(tmp_path, text)
    assert "eta" in msg


def test_trailing_comments_are_stripped(tmp_path):
    text = MATRIX_TEMPLATE.replace("a1, all, affine, 1, 0",
                                   "a1, all, affine, 1, 0   # own-flow cost")
    scn = load_text(tmp_path, text)
    game, _ = scn.build_game()
    c = gd.evaluate_costs(game, gd.uniform_configuration(game))
    assert c[0, 0] == pytest.approx(0.5)


def test_missing_file_raises():
    with pytest.raises(gd.ScenarioError):
        gd.load_scenario("/nonexistent/path/to.scn")

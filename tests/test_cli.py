import hashlib
import json
import os
from decimal import Decimal

import pytest

from geocatch.cli import main
from geocatch.geometry import Point2, build_obstacle_scene
from geocatch.symbolic import Itinerary, solve_itinerary


OBSTACLE = '{"kind":"obstacle","r0":0.05,"outer_radius":2.0}'


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_obstacle_period_two(self, tmp_path):
        c3y = -0.3175426480542942
        code = run("simulate", "--scene", OBSTACLE, "--x", "0.0",
                   "--y", str(c3y), "--angle", "0.0", "--horizon", "20",
                   "--out", str(tmp_path))
        assert code == 0
        csv = (tmp_path / "trajectory.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "t,x,y,wall"
        bounce_ts = [float(ln.split(",")[0]) for ln in lines[2:-1]]
        gaps = [b - a for a, b in zip(bounce_ts, bounce_ts[1:])]
        assert all(abs(g - 1.0) < 1e-9 for g in gaps)
        assert (tmp_path / "trajectory.svg").exists()

    @pytest.mark.parametrize("scene, outline, height", [
        ('{"kind":"rectangle","width":1.5,"height":1.0}',
         '<rect x="29.09" y="29.03" width="581.82" height="387.88" '
         'stroke="black"', 446),
        ('{"kind":"disk","radius":1.0}',
         '<circle cx="320.00" cy="320.00" r="290.91" stroke="black"', 640)])
    def test_bounded_scene_svg(self, tmp_path, scene, outline, height):
        assert run("simulate", "--scene", scene, "--angle", "0.7",
                   "--horizon", "20", "--out", str(tmp_path)) == 0
        svg = (tmp_path / "trajectory.svg").read_text()
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                              f'width="640" height="{height}"')
        assert svg.endswith("</svg>\n")
        assert outline in svg
        assert svg.count('<polyline points="') == 1
        assert 'stroke="steelblue"' in svg

    def test_torus_has_no_bounces(self, tmp_path):
        code = run("simulate", "--scene", '{"kind":"torus","side":1.0}',
                   "--angle", "0.7", "--horizon", "100", "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "simulate.json").read_text())
        assert rep["bounces"] == 0

    @pytest.mark.parametrize("scene", [
        '{"kind":"rectangle","width":1.0,"height":1.0}',
        '{"kind":"disk","radius":1.0}'])
    def test_zero_max_bounces_exits_2(self, tmp_path, scene):
        code = run("simulate", "--scene", scene, "--angle", "0.7",
                   "--max-bounces", "0", "--out", str(tmp_path))
        assert code == 2

    def test_r0_shorthand_builds_the_obstacle_scene(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--r0", "0.05", "--out", str(a)) == 0
        assert run("simulate", "--scene", OBSTACLE, "--out", str(b)) == 0
        config = json.loads((a / "simulate.json").read_text())["config"]
        assert config["scene"] == json.loads(
            (b / "simulate.json").read_text())["config"]["scene"]
        assert run("simulate", "--r0", "0.5", "--out", str(tmp_path)) == 2

    def test_seed_is_refused_where_nothing_reads_it(self, tmp_path, capsys):
        # only evade and tgcc draw random numbers
        with pytest.raises(SystemExit) as ex:
            run("simulate", "--seed", "1", "--out", str(tmp_path))
        assert ex.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_malformed_scene_exits_2(self, tmp_path):
        assert run("simulate", "--scene", "{not json", "--out", str(tmp_path)) == 2

    def test_scene_from_file(self, tmp_path):
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(OBSTACLE)
        code = run("simulate", "--scene", f"@{scene_file}", "--x", "0", "--y",
                   "0", "--angle", "1.0", "--horizon", "5",
                   "--out", str(tmp_path))
        assert code == 0


class TestItinerary:
    def test_verified_round_trip(self, tmp_path):
        code = run("itinerary", "--scene", OBSTACLE, "--word", "123123123",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        assert rep["verified"] is True
        assert rep["interval_lo"] < rep["interval_hi"]

    def test_inadmissible_word_exits_2(self, tmp_path):
        assert run("itinerary", "--scene", OBSTACLE, "--word", "11",
                   "--out", str(tmp_path)) == 2

    def test_depth_one_interval_width(self, tmp_path):
        import math
        code = run("itinerary", "--scene", OBSTACLE, "--word", "1",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        d = 1.1 / math.sqrt(3.0)
        assert rep["width"] == pytest.approx(2 * math.asin(0.05 / d), rel=1e-9)

    def test_interval_strings_carry_the_working_precision(self, tmp_path):
        word = "123" * 4  # width ~1e-19: below float64 resolution at 1.6
        assert run("itinerary", "--scene", OBSTACLE, "--word", word,
                   "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        lo_str, hi_str = rep["interval_lo_str"], rep["interval_hi_str"]
        assert lo_str != hi_str
        iv = solve_itinerary(build_obstacle_scene(0.05, 2.0), Point2(0.0, 0.0),
                             Itinerary.from_string(word))
        tol = Decimal("1e-6") * iv.width
        assert abs(Decimal(lo_str) - iv.lo) <= tol
        assert abs(Decimal(hi_str) - iv.hi) <= tol

    def test_narrow_word_from_a_far_start_is_verified(self, tmp_path):
        # from here C1 hides part of C2, and the interval of 123 is about
        # 1e-6 rad wide
        assert run("itinerary", "--scene", OBSTACLE, "--word", "123",
                   "--x", "0.733", "--y", "1.619", "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        assert rep["verified"] is True
        assert 0 < rep["width"] < 1e-5

    @pytest.mark.parametrize("x, y", [("-0.6192", "-0.34"),  # 1 unreachable
                                      ("-0.396", "1.189"),   # 3 not head-on
                                      ("0.01", "0.635")])    # in scatterer 1
    def test_empty_word_exits_4_with_error_report(self, tmp_path, capsys, x, y):
        # a successful run first: its CSV and SVG must not outlive the failure
        assert run("itinerary", "--scene", OBSTACLE, "--word", "13",
                   "--out", str(tmp_path)) == 0
        code = run("itinerary", "--scene", OBSTACLE, "--word", "13",
                   f"--x={x}", f"--y={y}", "--out", str(tmp_path))
        assert code == 4
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        assert rep["error"]
        assert rep["config"]["word"] == "13"
        assert "construction failed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["itinerary.json"]


class TestCatch:
    def test_zero_speed_exits_2(self, tmp_path):
        assert run("catch", "--v", "0", "--out", str(tmp_path)) == 2

    def test_writes_path(self, tmp_path):
        code = run("catch", "--horizon", "1e5", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "catcher.csv").read_text().startswith("t,cx,cy")


class TestEvadeAndTgcc:
    def test_evade_random_path(self, tmp_path):
        code = run("evade", "--scene", OBSTACLE, "--T", "150", "--seed", "4",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "evasion.json").read_text())
        assert rep["min_distance"] >= 0.05
        assert (tmp_path / "evasion.svg").exists()

    def test_tgcc_refuted_on_obstacle_scene_exits_3(self, tmp_path):
        code = run("tgcc", "--scene", OBSTACLE, "--eps", "0.05", "--v", "0.01",
                   "--T", "100", "--grid-pos", "4", "--grid-ang", "4",
                   "--seed", "2", "--out", str(tmp_path))
        assert code == 3
        rep = json.loads((tmp_path / "tgcc.json").read_text())
        assert rep["caught_fraction"] < 1.0

    def test_tgcc_torus_catcher_exits_0(self, tmp_path):
        code = run("tgcc", "--T", "4e7", "--grid-pos", "16", "--grid-ang", "8",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "tgcc.json").read_text())
        assert rep["t0_estimate"] is not None

    def test_failed_evade_leaves_only_its_error_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("evade", "--scene", OBSTACLE, "--T", "150", "--seed", "4",
                   "--out", str(out)) == 0
        # a wide ball parked at the centre touches every zone at t = 0
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,cx,cy\n0,0,0\n150,0,0\n")
        code = run("evade", "--scene", OBSTACLE, "--T", "150", "--eps", "1.0",
                   "--path", str(path_file), "--out", str(out))
        assert code == 4
        assert "no clean zone" in json.loads((out / "evasion.json").read_text())["error"]
        assert "construction failed" in capsys.readouterr().err
        assert os.listdir(out) == ["evasion.json"]

    def test_tgcc_walk_over_the_cap_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("tgcc", "--T", "1e5", "--grid-pos", "4", "--grid-ang", "4",
                   "--out", str(out)) in (0, 3)
        # a tiny ball parked from t = 10 on: the first oblique sample walks
        # 2e6 of the parked segment's ~6e6 lattice columns with neither a
        # hit nor the periodicity certificate, so it passes the cap
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,x,y\n0,0.5,0.5\n10,0.5,0.5\n")
        code = run("tgcc", "--path", str(path_file), "--eps", "1e-7",
                   "--T", "1e7", "--grid-pos", "1", "--grid-ang", "7",
                   "--out", str(out))
        assert code == 4
        err = json.loads((out / "tgcc.json").read_text())["error"]
        assert "exceeds the cap" in err
        assert "x=0.0 y=0.0 angle=0.8975979010256552" in err
        assert "catcher segment 1 [10.0, 10000000.0]" in err
        assert "t-GCC check failed" in capsys.readouterr().err
        assert os.listdir(out) == ["tgcc.json"]

    @pytest.mark.parametrize("scene", ['{"kind":"torus","side":1.0}',
                                       '{"kind":"disk","radius":1.0}'])
    @pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "-0.1"),
                                             ("--v", "0")])
    def test_tgcc_nonpositive_eps_or_v_exits_2(self, tmp_path, capsys, scene,
                                               flag, value):
        # a parked ball: the radius and speed come from the command line
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,x,y\n0,0.5,0.5\n100,0.5,0.5\n")
        code = run("tgcc", "--scene", scene, "--path", str(path_file),
                   "--T", "100", "--grid-pos", "2", "--grid-ang", "2", flag,
                   value, "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"{flag} must be positive" in capsys.readouterr().err

    def test_tgcc_torus_ball_wider_than_half_the_side_exits_2(self, tmp_path,
                                                             capsys):
        code = run("tgcc", "--eps", "0.6", "--T", "100", "--grid-pos", "2",
                   "--grid-ang", "2", "--out", str(tmp_path))
        assert code == 2
        assert "lattice copies overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("evade", "--eps", "1.0"),
        ("tgcc", "--eps", "1.0", "--grid-pos", "2", "--grid-ang", "2")])
    def test_random_path_without_a_start_exits_2(self, tmp_path, capsys,
                                                 argv):
        code = run(*argv, "--scene", OBSTACLE, "--T", "100",
                   "--out", str(tmp_path))
        assert code == 2
        assert "no admissible start for eps = 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        # the ball dashes into zone 2 between t = 30 and 32
        ("0,-1.4,-0.9\n30,-1.3,-0.9\n32,0.275,0.159\n300,0.275,0.159\n",
         "line 4: the leg from t = 30.0 runs at speed 0.949"),
        ("0,1.2,0.9\n100,1.0,0.9\n50,1.0,0.9\n",
         "line 4: time 50.0 does not follow 100.0"),
        ("0,1.2,0.9\n100,1.0\n", "line 3: need three finite numbers")])
    @pytest.mark.parametrize("command", ["evade", "tgcc"])
    def test_invalid_path_file_exits_2(self, tmp_path, capsys, rows, message,
                                       command):
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,cx,cy\n" + rows)
        grid = ("--grid-pos", "2", "--grid-ang", "2") if command == "tgcc" else ()
        code = run(command, *grid, "--r0", "0.05", "--eps", "0.05", "--v",
                   "0.01", "--T", "200", "--path", str(path_file),
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["4e7", "1e12"])
    def test_catcher_csv_reads_back_at_its_own_speed(self, tmp_path,
                                                      horizon):
        # at 1e12 the rounded times put legs up to 3.2e-6 above v
        out = tmp_path / "catch"
        assert run("catch", "--horizon", horizon, "--out", str(out)) == 0
        code = run("tgcc", "--path", str(out / "catcher.csv"), "--v", "0.05",
                   "--T", "10", "--grid-pos", "1", "--grid-ang", "1",
                   "--out", str(tmp_path / "tgcc"))
        assert code in (0, 3)

    def test_evade_with_path_file(self, tmp_path):
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,cx,cy\n0,1.2,0.9\n200,1.2,0.9\n")
        code = run("evade", "--scene", OBSTACLE, "--T", "200",
                   "--path", str(path_file), "--out", str(tmp_path))
        assert code == 0


class TestGrc:
    def test_dichotomy_periodic(self, tmp_path):
        code = run("grc", "--op", "dichotomy", "--angle", "0.0",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "grc.json").read_text())
        assert rep["periodic"] is True

    def test_disk_triangle(self, tmp_path):
        code = run("grc", "--op", "disk", "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "grc.json").read_text())
        assert rep["period_bounces"] == 3

    def test_occupancy_csv(self, tmp_path):
        code = run("grc", "--op", "occupancy", "--angle", "0.0", "--y", "0.5",
                   "--cy", "0.5", "--horizon", "100", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "occupancy.csv").read_text().startswith("T,fraction")

    def test_occupancy_radius_wider_than_half_the_side_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = run("grc", "--op", "occupancy", "--radius", "0.6",
                   "--horizon", "100", "--out", str(out))
        assert code == 2
        assert not (out / "occupancy.csv").exists()
        assert run("grc", "--op", "occupancy", "--radius", "0.5",
                   "--horizon", "100", "--out", str(out)) == 0

    def test_subsequence_on_the_torus(self, tmp_path):
        code = run("grc", "--op", "subsequence", "--horizon", "200",
                   "--out", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "grc.json").read_text())
        assert rep["n_points"] == 200

    def test_subsequence_off_the_torus_exits_2(self, tmp_path):
        code = run("grc", "--op", "subsequence", "--scene",
                   '{"kind":"rectangle","width":1.0,"height":1.0}',
                   "--out", str(tmp_path))
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("itinerary", "--word", "1213"),
    ("evade", "--T", "150", "--seed", "4")])
def test_obstacle_scene_is_the_default_of_itinerary_and_evade(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--scene", OBSTACLE, "--out", str(b)) == 0
    names = sorted(n for n in os.listdir(a) if not n.endswith(".svg"))
    assert names == sorted(n for n in os.listdir(b) if not n.endswith(".svg"))
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run("evade", "--scene", OBSTACLE, "--T", "120",
                       "--seed", "7", "--out", str(out))
            assert code == 0
        for name in ("evasion.json", "evader.csv", "path.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_tgcc_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("tgcc", "--T", "1e5", "--grid-pos", "4", "--grid-ang",
                       "4", "--out", str(out)) in (0, 3)
        assert (a / "tgcc.json").read_bytes() == (b / "tgcc.json").read_bytes()
        assert (a / "witnesses.csv").read_bytes() == (b / "witnesses.csv").read_bytes()


# One run of each output the CLI writes: simulate on every scene kind, a
# solved and a refused itinerary, catchers (one cut mid-transit by its
# horizon), t-GCC grids on three scenes, three evaders (the last switches
# zones near t = 155) and every grc op.
RECT = '{"kind":"rectangle","width":1.5,"height":1.0}'
DISK = '{"kind":"disk","radius":1.0}'
OUTPUT_MATRIX = [
    ("simulate", "--angle", "0.7", "--horizon", "20"),
    ("simulate", "--scene", RECT, "--angle", "0.7", "--horizon", "20"),
    ("simulate", "--scene", DISK, "--angle", "0.7", "--horizon", "20"),
    ("simulate", "--scene", OBSTACLE, "--x", "0", "--y", "0", "--angle",
     "1.0", "--horizon", "20"),
    ("itinerary", "--scene", OBSTACLE, "--word", "1213"),
    ("itinerary", "--scene", OBSTACLE, "--word", "13", "--x=-0.6192",
     "--y=-0.34"),
    ("catch", "--horizon", "1e5"),
    ("catch", "--scene", RECT, "--horizon", "1e3"),
    ("catch", "--horizon", "70"),
    ("tgcc", "--T", "1e5", "--grid-pos", "4", "--grid-ang", "4"),
    ("tgcc", "--scene", RECT, "--T", "300", "--grid-pos", "4", "--grid-ang",
     "3"),
    ("tgcc", "--scene", OBSTACLE, "--eps", "0.05", "--v", "0.01", "--T",
     "100", "--grid-pos", "4", "--grid-ang", "4", "--seed", "2"),
    ("evade", "--scene", OBSTACLE, "--T", "150", "--seed", "4"),
    ("evade", "--scene", OBSTACLE, "--T", "200", "--seed", "7"),
    ("evade", "--scene", OBSTACLE, "--T", "200", "--seed", "0"),
    ("grc", "--op", "dichotomy", "--angle", "0.0"),
    ("grc", "--op", "disk"),
    ("grc", "--op", "occupancy", "--horizon", "100"),
    ("grc", "--op", "subsequence", "--horizon", "200"),
]


def test_output_digest(tmp_path):
    # sha256 over every run's exit code and its JSON and CSV files, byte for
    # byte; re-recorded when extended precision moved from mpmath to
    # decimal: only interval_lo_str and interval_hi_str of the 1213 run
    # changed (two more digits, within 2e-32 of the width of the mpmath
    # strings), every other byte is as before; re-recorded when the seed-0
    # evade run, the first with a planned switch, joined the matrix (the
    # other 18 runs hashed to the value recorded before it)
    h = hashlib.sha256()
    for k, argv in enumerate(OUTPUT_MATRIX):
        out = tmp_path / str(k)
        h.update(f"{run(*argv, '--out', str(out))}\n".encode())
        for name in sorted(os.listdir(out)):
            if not name.endswith(".svg"):
                h.update(f"{name}\n".encode())
                h.update((out / name).read_bytes())
    assert h.hexdigest() == (
        "690acfbce6119ab6e2c48ca0139dc93050e8e14cd1f33df8df56dbe0085b9766")

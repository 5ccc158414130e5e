import json
import os

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
        import mpmath as mp
        word = "123" * 4  # width ~1e-19: below float64 resolution at 1.6
        assert run("itinerary", "--scene", OBSTACLE, "--word", word,
                   "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "itinerary.json").read_text())
        lo_str, hi_str = rep["interval_lo_str"], rep["interval_hi_str"]
        assert lo_str != hi_str
        iv = solve_itinerary(build_obstacle_scene(0.05, 2.0), Point2(0.0, 0.0),
                             Itinerary.from_string(word))
        with mp.workprec(iv.bits):
            assert abs(mp.mpf(lo_str) - iv.lo) <= 1e-6 * iv.width
            assert abs(mp.mpf(hi_str) - iv.hi) <= 1e-6 * iv.width

    @pytest.mark.parametrize("x, y", [("-0.6192", "-0.34"),  # 1 unreachable
                                      ("-0.396", "1.189"),   # 3 eclipsed
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
        # a tiny ball parked from t = 10 on: the oblique samples would walk
        # ~6e6 lattice columns of the parked segment, past the 2e6 cap
        path_file = tmp_path / "ball.csv"
        path_file.write_text("t,x,y\n0,0.5,0.5\n10,0.5,0.5\n")
        code = run("tgcc", "--path", str(path_file), "--eps", "0.001",
                   "--T", "1e7", "--grid-pos", "1", "--grid-ang", "7",
                   "--out", str(out))
        assert code == 4
        err = json.loads((out / "tgcc.json").read_text())["error"]
        assert "exceeds the cap" in err
        assert "x=0.0 y=0.0 angle=0.8975979010256552" in err
        assert "catcher segment 1 [10.0, 10000000.0]" in err
        assert "t-GCC check failed" in capsys.readouterr().err
        assert os.listdir(out) == ["tgcc.json"]

    def test_tgcc_torus_ball_wider_than_half_the_side_exits_2(self, tmp_path,
                                                             capsys):
        code = run("tgcc", "--eps", "0.6", "--T", "100", "--grid-pos", "2",
                   "--grid-ang", "2", "--out", str(tmp_path))
        assert code == 2
        assert "lattice copies overlap" in capsys.readouterr().err

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

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from vlcmap import experiments
from vlcmap.assoc import DirectSolver, GAConfig, MapLookupSolver, solve_association
from vlcmap.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NO_CONVERGENCE, main
from vlcmap.decmap import build_map, load_map, reduce_map, save_map
from vlcmap.errors import ConfigError
from vlcmap.experiments import (
    AssocExperimentConfig,
    MapExperimentConfig,
    SweepConfig,
    associate,
    run_assoc_experiment,
    run_map_experiment,
    run_sweep_experiment,
    user_grid,
)
from vlcmap.sceneio import reference_scene
from vlcmap.signaling import build_layer_set

from test_decmap import SMALL_SCENE_YAML

SMALL_GA = GAConfig(population=16, generations=30, seed=0)


class TestUserGrid:
    def test_centered_on_anchor(self):
        users = user_grid((0.0, 0.0, 2.0), n_x=4, n_y=4)
        arr = np.array(users)
        assert len(users) == 16
        np.testing.assert_allclose(arr.mean(axis=0), [0.0, 0.0, 2.0], atol=1e-12)
        # Centering makes the placement exactly mirror-symmetric.
        xs = sorted(set(arr[:, 0]))
        np.testing.assert_allclose(xs, [-0.3, -0.1, 0.1, 0.3], atol=1e-15)

    def test_yz_plane_orientation(self):
        users = user_grid((1.0, 0.5, 1.5), n_x=2, n_y=2, plane="yz")
        arr = np.array(users)
        assert np.all(arr[:, 0] == 1.0)
        assert set(np.round(arr[:, 1], 10)) == {0.4, 0.6}
        assert set(np.round(arr[:, 2], 10)) == {1.4, 1.6}


class TestRunMapExperiment:
    def test_artifacts_and_summary(self, pair_scene, tmp_path):
        cfg = MapExperimentConfig()
        summary = run_map_experiment(pair_scene, cfg, tmp_path)
        for name in ("map.json", "cells.csv", "layers.csv", "summary.json", "run.json"):
            assert (tmp_path / name).exists(), name
        assert summary["n_cells"] == summary["n_active"] + summary["n_outage"]
        assert not {"n_computed", "n_derived", "build_seconds", "reduce_seconds"} & set(summary)
        assert summary["cluster_count"] >= 1
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["n_active"] == summary["n_active"]


class TestRunAssocExperiment:
    def test_refined_not_worse(self, corner_scene, tmp_path):
        users = user_grid((0.0, 0.1, corner_scene.plane.height), n_x=2, n_y=2)
        cfg = AssocExperimentConfig(ga=SMALL_GA)
        result = run_assoc_experiment(corner_scene, users, cfg, outdir=tmp_path)
        assert result["sum_rate"] >= result["sum_rate_assoc"] - 1e-9
        assert result["converged"]
        assert result["n_served"] >= 1
        assert (tmp_path / "association.csv").exists()

    def test_no_refine_keeps_fold_rates(self, corner_scene):
        users = user_grid((0.0, 0.1, corner_scene.plane.height), n_x=2, n_y=2)
        cfg = AssocExperimentConfig(ga=SMALL_GA, refine=False)
        result = run_assoc_experiment(corner_scene, users, cfg)
        assert result["sum_rate"] == result["sum_rate_assoc"]
        assert "rounds" not in result


class TestMapOfAnotherScene:
    """Library entry points refuse a map built from another scene."""

    @pytest.fixture(scope="class")
    def pair_map(self, pair_scene):
        return build_map(pair_scene, build_layer_set(pair_scene, 2), 0)

    @pytest.mark.parametrize("entry", ["run_assoc_experiment", "run_sweep_experiment",
                                       "reduce_map"])
    def test_raises_config_error(self, pair_map, tmp_path, entry):
        # The pair scene at 5 dB: the map's geometry, another noise level.
        noisy = reference_scene(1, 2, snr_db=5.0, spacing_x=0.6, spacing_y=0.6)
        cfg = AssocExperimentConfig(ga=SMALL_GA)
        labels = [c.cluster for c in pair_map.cells]
        run = {
            "run_assoc_experiment": lambda: run_assoc_experiment(
                noisy, [(0.1, 0.0, 2.0)], cfg, outdir=tmp_path / "out", dmap=pair_map
            ),
            "run_sweep_experiment": lambda: run_sweep_experiment(
                noisy, SweepConfig(a_range=(0, 0), b_range=(0, 0), assoc=cfg),
                tmp_path / "out", dmap=pair_map,
            ),
            "reduce_map": lambda: reduce_map(pair_map, noisy, build_layer_set(noisy, 2)),
        }[entry]
        with pytest.raises(ConfigError, match="map was built from a different scene"):
            run()
        assert not (tmp_path / "out").exists()
        assert [c.cluster for c in pair_map.cells] == labels


def added_in_user_order(user_rates) -> float:
    """The served users' rates added with ``+=`` in user order."""
    total = 0.0
    for rate in user_rates:
        if not math.isnan(rate):
            total += rate
    return total


class TestSumRateIsTheSumOfUserRates:
    """A record's ``sum_rate`` is exactly the sum of the ``user_rates`` beside it."""

    @pytest.mark.parametrize("refine", [True, False], ids=["refined", "fold"])
    def test_corner_scene(self, corner_scene, refine):
        table = build_layer_set(corner_scene, 2)
        users = user_grid((0.1, 0.0, corner_scene.plane.height))
        cfg = AssocExperimentConfig(ga=SMALL_GA, refine=refine)
        record = associate(corner_scene, table, DirectSolver(corner_scene, table, 0), users, cfg)
        assert record["sum_rate"] == added_in_user_order(record["user_rates"])

    @pytest.mark.parametrize("refine", [True, False], ids=["refined", "fold"])
    def test_sweep_window_anchor(self, benchmark_scene, benchmark_table, benchmark_map, refine):
        # Anchor (0.1, 0.1) of the benchmark's sweep window, GA seed 1: adding
        # the refined rates layer by layer instead gives a sum 2 ulp away.
        users = user_grid((0.1, 0.1, benchmark_scene.plane.height))
        cfg = AssocExperimentConfig(ga=GAConfig(seed=1), refine=refine)
        solver = MapLookupSolver(benchmark_map)
        record = associate(benchmark_scene, benchmark_table, solver, users, cfg)
        assert record["sum_rate"] == added_in_user_order(record["user_rates"])


class TestRunSweepExperiment:
    def test_rows_and_csv(self, corner_scene, tmp_path):
        cfg = SweepConfig(
            a_range=(-0.1, 0.1),
            b_range=(0.0, 0.0),
            step=0.1,
            fixed=corner_scene.plane.height,
            grid_n=2,
            assoc=AssocExperimentConfig(ga=SMALL_GA),
        )
        rows = run_sweep_experiment(corner_scene, cfg, tmp_path)
        assert len(rows) == 3
        csv = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv[0] == "a,b,n_served,sum_rate_assoc,sum_rate,min_user_rate,rounds,converged"
        assert len(csv) == 4
        assert all(r["converged"] for r in rows)
        assert all(line.endswith(",1") for line in csv[1:])

    def test_rows_equal_the_associate_record(self, corner_scene, tmp_path):
        acfg = AssocExperimentConfig(ga=SMALL_GA)
        cfg = SweepConfig(
            a_range=(0.1, 0.1), b_range=(0.0, 0.0), fixed=corner_scene.plane.height,
            grid_n=2, assoc=acfg,
        )
        (row,) = run_sweep_experiment(corner_scene, cfg, tmp_path)
        table = build_layer_set(corner_scene, acfg.layers_per_tx)
        users = user_grid((0.1, 0.0, corner_scene.plane.height), 2, 2)
        record = associate(
            corner_scene, table, DirectSolver(corner_scene, table, 0), users, acfg
        )
        fields = set(row) - {"a", "b"}
        assert {k: row[k] for k in fields} == {k: record[k] for k in fields}

    def test_non_convergence_and_outage_rows(self, corner_scene, tmp_path):
        # One refinement round is too few to converge; the anchor 5 m off
        # the array sees no transmitter at all.
        cfg = SweepConfig(
            a_range=(0.0, 5.0),
            b_range=(0.1, 0.1),
            step=5.0,
            fixed=corner_scene.plane.height,
            grid_n=2,
            assoc=AssocExperimentConfig(ga=SMALL_GA, max_rounds=1),
        )
        lit, dark = run_sweep_experiment(corner_scene, cfg, tmp_path)
        assert (lit["rounds"], lit["converged"]) == (1, False)
        assert (dark["n_served"], dark["rounds"], dark["converged"]) == (0, 0, None)
        csv = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv[1].endswith(",1,0")
        assert csv[2] == "5.0,0.1,0,0.0,0.0,nan,0,"


class TestCli:
    runner = CliRunner()

    def test_validate_default_scene(self):
        res = self.runner.invoke(main, ["validate"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["n_tx"] == 64
        assert payload["n_layers"] == 128
        assert payload["filter_matrix"][0][0] == pytest.approx(0.9)

    def test_validate_yaml_matches_builtin(self):
        res = self.runner.invoke(main, ["validate", "--scene", "configs/indoor_4x4.yaml"])
        assert res.exit_code == 0
        builtin = json.loads(self.runner.invoke(main, ["validate"]).output)
        assert json.loads(res.output)["scene_hash"] == builtin["scene_hash"]

    def test_validate_missing_scene_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("plane: {}\n")
        res = self.runner.invoke(main, ["validate", "--scene", str(bad)])
        assert res.exit_code == EXIT_CONFIG

    def test_map_build_inspect_roundtrip(self, tmp_path):
        out = tmp_path / "m"
        res = self.runner.invoke(
            main, ["map", "build", "--out", str(out), "--no-reduce"]
        )
        assert res.exit_code == 0, res.output
        res = self.runner.invoke(
            main, ["map", "inspect", "--map", str(out / "map.json")]
        )
        assert res.exit_code == 0
        info = json.loads(res.output)
        assert info["n_cells"] == info["shape"][0] * info["shape"][1]
        assert info["cluster_count"] == 0  # not reduced yet
        res = self.runner.invoke(
            main,
            ["map", "inspect", "--map", str(out / "map.json"), "--at", "0.0", "0.0"],
        )
        assert res.exit_code == 0
        cell = json.loads(res.output)
        assert not cell["outage"]
        assert len(cell["groups"]) >= 1

    def test_map_reduce_after_build(self, tmp_path):
        out, full = tmp_path / "m", tmp_path / "full"
        for args in (["--out", str(out), "--no-reduce"], ["--out", str(full)]):
            assert self.runner.invoke(main, ["map", "build", *args]).exit_code == 0
        res = self.runner.invoke(
            main, ["map", "reduce", "--map", str(out / "map.json")]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["cluster_count"] >= 1
        info = json.loads(
            self.runner.invoke(
                main, ["map", "inspect", "--map", str(out / "map.json")]
            ).output
        )
        assert info["cluster_count"] == payload["cluster_count"]
        # Reducing a stored map writes the file that building it reduced does.
        assert (out / "map.json").read_bytes() == (full / "map.json").read_bytes()

    def test_inspect_outside_plane_is_config_error(self, tmp_path):
        out = tmp_path / "m"
        self.runner.invoke(main, ["map", "build", "--out", str(out), "--no-reduce"])
        res = self.runner.invoke(
            main,
            ["map", "inspect", "--map", str(out / "map.json"), "--at", "99", "99"],
        )
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "at, code", [(("0.05", "0.04"), EXIT_CONFIG), (("0.1", "0.0"), 0)],
        ids=["between-samples", "on-a-sample"],
    )
    def test_inspect_at_never_snaps(self, benchmark_map, tmp_path, at, code):
        path = tmp_path / "map.json"
        save_map(benchmark_map, path)
        res = self.runner.invoke(main, ["map", "inspect", "--map", str(path), "--at", *at])
        assert res.exit_code == code, res.output
        if code == 0:
            assert json.loads(res.output)["position"][:2] == [0.1, 0.0]
        else:
            assert "not a sample of the map" in res.output
            assert "Traceback" not in res.output

    @pytest.mark.parametrize(
        "edit", [lambda p: p.update(version=1), lambda p: p.pop("n_layers")],
        ids=["version-1", "no-n_layers"],
    )
    def test_inspect_bad_map_file_is_config_error(self, tmp_path, edit):
        out = tmp_path / "m"
        self.runner.invoke(main, ["map", "build", "--out", str(out), "--no-reduce"])
        path = out / "map.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        res = self.runner.invoke(main, ["map", "inspect", "--map", str(path)])
        assert res.exit_code == EXIT_CONFIG
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "bad map file" in res.output or "version" in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ["assoc", "solve", "--anchor", "1.5", "1.5"],
            ["sweep", "run", "--a-range", "1.2", "1.2", "--b-range", "0", "0"],
            # The first anchor's users lie on the map, the last one's do not.
            ["sweep", "run", "--a-range", "1.0", "1.2", "--step", "0.2",
             "--b-range", "0", "0"],
        ],
        ids=["assoc-solve", "sweep-run", "sweep-run-range"],
    )
    def test_users_off_the_map_are_config_errors(
        self, benchmark_map, tmp_path, monkeypatch, args
    ):
        # The user grid reaches past the map's plane: no order to look up.
        map_path = tmp_path / "map.json"
        save_map(benchmark_map, map_path)
        solved = []
        monkeypatch.setattr(
            experiments, "solve_association",
            lambda *a, **k: solved.append(a) or solve_association(*a, **k),
        )
        out = tmp_path / "out"
        res = self.runner.invoke(main, args + ["--map", str(map_path), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "outside the mapped plane" in res.output
        if args[0] == "sweep":
            assert not solved
            assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["assoc", "solve", "--anchor", "0.35", "0.0"],
            ["assoc", "solve", "--anchor", "0.100001", "0.0"],
            ["assoc", "solve", "--users", "USERS"],
            ["sweep", "run", "--plane", "yz", "--a-range", "0", "0",
             "--b-range", "2.0", "2.0"],
        ],
        ids=["anchor-between-samples", "anchor-1um-off", "z-off-the-plane", "yz-plane"],
    )
    def test_users_between_map_samples_are_config_errors(
        self, benchmark_map, tmp_path, args
    ):
        # Each user grid lies on the mapped plane but off its samples: map
        # lookup must not snap it to the nearest one.
        map_path = tmp_path / "map.json"
        save_map(benchmark_map, map_path)
        users = tmp_path / "users.csv"
        users.write_text("0.1,0.0,2.0\n0.1,0.0,1.9\n")
        args = [str(users) if a == "USERS" else a for a in args]
        res = self.runner.invoke(
            main,
            args + ["--map", str(map_path), "--out", str(tmp_path / "out"),
                    "--population", "16", "--generations", "5"],
        )
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "not a sample of the map" in res.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["assoc", "solve", "--users", "USERS"], "not finite"),
            (["assoc", "solve", "--anchor", "nan", "0"], "not finite"),
            (["assoc", "solve", "--anchor", "nan", "0", "--map", "MAP"], "not finite"),
            (["map", "inspect", "--at", "nan", "0", "--map", "MAP"], "not finite"),
            (["assoc", "solve", "--users", "Z_USERS", "--map", "MAP", "--no-refine"],
             "not a sample of the map"),
        ],
        ids=["users-csv", "anchor", "anchor-on-map", "map-inspect", "z-on-map"],
    )
    def test_non_finite_positions_are_config_errors(self, benchmark_map, tmp_path, args, message):
        map_path = tmp_path / "map.json"
        save_map(benchmark_map, map_path)
        (tmp_path / "users.csv").write_text("nan,0,2\n0.1,0,2\n")
        (tmp_path / "z_users.csv").write_text("0.1,0,nan\n")
        paths = {"USERS": "users.csv", "Z_USERS": "z_users.csv", "MAP": "map.json"}
        args = [str(tmp_path / paths[a]) if a in paths else a for a in args]
        if args[0] == "assoc":
            args += ["--population", "16", "--generations", "5"]
        res = self.runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert message in res.output

    def test_assoc_solve_with_users_csv(self, tmp_path):
        users = tmp_path / "users.csv"
        users.write_text(
            "x,y,z\n0.1,0.0,2.0\n-0.1,0.2,2.0\n0.3,-0.2,2.0\n"
        )
        res = self.runner.invoke(
            main,
            [
                "assoc", "solve", "--users", str(users),
                "--population", "16", "--generations", "30",
            ],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["n_users"] == 3
        assert payload["converged"]
        assert payload["sum_rate"] >= payload["sum_rate_assoc"] - 1e-9

    def test_assoc_solve_infeasible(self, tmp_path):
        users = tmp_path / "users.csv"
        users.write_text("50.0,50.0,2.0\n")
        res = self.runner.invoke(
            main, ["assoc", "solve", "--users", str(users)]
        )
        assert res.exit_code == EXIT_INFEASIBLE

    def test_assoc_solve_needs_positions(self):
        res = self.runner.invoke(main, ["assoc", "solve"])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "option", [["--population", "5"], ["--generations", "0"]],
        ids=["population-5", "generations-0"],
    )
    def test_assoc_solve_bad_ga_sizes_are_config_errors(self, option):
        res = self.runner.invoke(main, ["assoc", "solve", "--anchor", "0.0", "0.0", *option])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize(
        "command",
        [
            ["assoc", "solve", "--anchor", "0.1", "0"],
            ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0"],
        ],
        ids=["assoc-solve", "sweep-run"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, command):
        out = tmp_path / "o"
        res = self.runner.invoke(main, command + [
            "--population", "16", "--generations", "3", "--seed", "-1", "--out", str(out),
        ])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "seed -1" in res.output

    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "n_filters"])
    @pytest.mark.parametrize(
        "command",
        [
            ["map", "build", "--no-reduce"],
            ["assoc", "solve", "--anchor", "0.1", "0", "--population", "16",
             "--generations", "3"],
            ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0",
             "--population", "16", "--generations", "3"],
        ],
        ids=["map-build", "assoc-solve", "sweep-run"],
    )
    def test_filter_outside_the_scene_is_config_error(
        self, benchmark_scene, tmp_path, command, past_end
    ):
        n_filters = benchmark_scene.filter_matrix.shape[1]
        out = tmp_path / "o"
        res = self.runner.invoke(main, command + [
            "--filter", str(n_filters if past_end else -1), "--out", str(out),
        ])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert f"{n_filters} filters" in res.output
        assert not list(out.glob("*"))

    def test_filter_outside_the_scene_on_a_map_is_config_error(self, benchmark_map, tmp_path):
        path = tmp_path / "map.json"
        save_map(benchmark_map, path)
        res = self.runner.invoke(main, [
            "assoc", "solve", "--map", str(path), "--anchor", "0.1", "0", "--filter", "9",
            "--population", "16", "--generations", "3",
        ])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output

    @pytest.fixture()
    def small_map(self, tmp_path):
        """A filter 1, tau 2 map of ``SMALL_SCENE_YAML``, and two of its lit samples as users."""
        scene = tmp_path / "scene.yaml"
        scene.write_text(SMALL_SCENE_YAML)
        res = self.runner.invoke(main, [
            "map", "build", "--scene", str(scene), "--filter", "1", "--tau", "2",
            "--out", str(tmp_path / "m"),
        ])
        assert res.exit_code == 0, res.output
        path = tmp_path / "m" / "map.json"
        dmap = load_map(path)
        lit = [p for p, c in zip(dmap.positions(), dmap.cells) if not c.order.outage]
        users = tmp_path / "users.csv"
        users.write_text("".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in (lit[0], lit[-1])))
        return scene, path, users

    @pytest.mark.parametrize("explicit", [[], ["--filter", "1", "--tau", "2"]],
                             ids=["unset", "explicit"])
    def test_a_map_run_takes_filter_and_tau_from_the_map(self, small_map, tmp_path, explicit):
        scene, path, users = small_map
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "assoc", "solve", "--scene", str(scene), "--map", str(path), "--users", str(users),
            *explicit, "--no-refine", "--population", "16", "--generations", "3",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        params = json.loads((out / "run.json").read_text())["params"]
        assert (params["filter_index"], params["tau"], params["map_lookup"]) == (1, 2, True)

    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c in ("assoc-solve", "sweep-run") for o in ("--filter", "--tau", "--layers")],
    )
    def test_settings_that_differ_from_the_map_are_config_errors(
        self, small_map, tmp_path, command, option
    ):
        # The map has filter 1, tau 2 and two layers per transmitter.
        option = [option, {"--filter": "0", "--tau": "1", "--layers": "3"}[option]]
        scene, path, users = small_map
        before = path.read_bytes()
        out = tmp_path / "out"
        args = {
            "assoc-solve": ["assoc", "solve", "--users", str(users)],
            "sweep-run": ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0"],
        }[command] + option + ["--scene", str(scene), "--map", str(path)]
        args += ["--population", "16", "--generations", "3", "--out", str(out)]
        res = self.runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "differs from the map's" in res.output
        assert not out.exists()
        assert path.read_bytes() == before

    @pytest.mark.parametrize("command", ["assoc-solve", "sweep-run", "map-reduce"])
    def test_a_map_of_another_scene_is_a_config_error(self, small_map, tmp_path, command):
        # The map is of SMALL_SCENE_YAML's scene; the run is on the built-in one.
        _, path, users = small_map
        before = path.read_bytes()
        out = tmp_path / "out"
        ga = ["--population", "16", "--generations", "3"]
        args = {
            "assoc-solve": ["assoc", "solve", "--users", str(users), *ga],
            "sweep-run": ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0", *ga],
            "map-reduce": ["map", "reduce"],
        }[command]
        res = self.runner.invoke(main, args + ["--map", str(path), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "map was built from a different scene" in res.output
        assert not out.exists()
        assert path.read_bytes() == before

    @pytest.fixture()
    def three_layer_map(self, tmp_path):
        """A ``--layers 3`` map of ``SMALL_SCENE_YAML``'s scene sampled at 0.1 m."""
        scene = tmp_path / "scene.yaml"
        scene.write_text(SMALL_SCENE_YAML.replace("sample_gap: 0.4", "sample_gap: 0.1"))
        res = self.runner.invoke(main, [
            "map", "build", "--scene", str(scene), "--layers", "3", "--no-reduce",
            "--out", str(tmp_path / "m"),
        ])
        assert res.exit_code == 0, res.output
        return scene, tmp_path / "m" / "map.json"

    @pytest.mark.parametrize("command", ["assoc-solve", "sweep-run", "map-reduce"])
    def test_a_map_run_takes_its_layer_count_from_the_map(
        self, three_layer_map, tmp_path, command
    ):
        scene, path = three_layer_map
        ga = ["--population", "16", "--generations", "3"]
        args = {
            "assoc-solve": ["assoc", "solve", "--anchor", "0", "0", "--no-refine", *ga],
            "sweep-run": ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0", *ga],
            "map-reduce": ["map", "reduce"],
        }[command] + ["--scene", str(scene), "--map", str(path)]
        out = ["--out", str(tmp_path / ("out.json" if command == "map-reduce" else "out"))]
        res = self.runner.invoke(main, args + out)
        assert res.exit_code == 0, res.output
        if command == "map-reduce":
            assert json.loads(res.output)["cluster_count"] >= 1
            return
        params = json.loads((tmp_path / "out" / "run.json").read_text())["params"]
        assert (params["assoc"] if command == "sweep-run" else params)["layers_per_tx"] == 3
        res = self.runner.invoke(main, args + ["--layers", "2", "--out", str(tmp_path / "o2")])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "the run's layer count 16 differs from the map's 24" in res.output

    def test_a_layer_count_that_no_layers_per_transmitter_gives_is_a_config_error(
        self, three_layer_map, tmp_path
    ):
        scene, path = three_layer_map
        payload = json.loads(path.read_text())
        payload["n_layers"] += 1
        path.write_text(json.dumps(payload))
        res = self.runner.invoke(main, ["map", "reduce", "--scene", str(scene),
                                        "--map", str(path)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "layer count 25 is not a whole number" in res.output

    @pytest.mark.parametrize("tau", [0, -1])
    @pytest.mark.parametrize("command", ["assoc-solve", "map-reduce"])
    def test_a_map_file_with_tau_below_1_is_a_config_error(
        self, small_map, tmp_path, command, tau
    ):
        scene, path, users = small_map
        payload = json.loads(path.read_text())
        payload["tau"] = tau
        path.write_text(json.dumps(payload))
        args = {
            "assoc-solve": ["assoc", "solve", "--users", str(users),
                            "--population", "16", "--generations", "3"],
            "map-reduce": ["map", "reduce"],
        }[command]
        res = self.runner.invoke(main, args + ["--scene", str(scene), "--map", str(path)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "bad map file" in res.output

    @pytest.mark.parametrize(
        "key, index, value",
        [("xs", 0, math.nan), ("ys", -1, math.inf), ("z", None, math.inf)],
        ids=["nan-xs", "infinite-ys", "infinite-z"],
    )
    @pytest.mark.parametrize("command", ["map-inspect-at", "map-reduce"])
    def test_a_map_file_with_a_non_finite_grid_is_a_config_error(
        self, small_map, command, key, index, value
    ):
        scene, path, _ = small_map
        payload = json.loads(path.read_text())
        at = [repr(payload["xs"][1]), repr(payload["ys"][1])]  # a sample left finite
        if index is None:
            payload[key] = value
        else:
            payload[key][index] = value
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        args = {
            "map-inspect-at": ["map", "inspect", "--map", str(path), "--at", *at],
            "map-reduce": ["map", "reduce", "--scene", str(scene), "--map", str(path)],
        }[command]
        res = self.runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert res.output.startswith("error: bad map file") and res.output.count("\n") == 1
        assert "sample grid (xs, ys, z) must be finite" in res.output
        assert path.read_bytes() == before

    @pytest.mark.parametrize("command", ["map-reduce", "map-build", "assoc-solve", "sweep-run"])
    def test_unwritable_out_is_config_error(self, small_map, tmp_path, command):
        # --out under a missing directory, under a file, or on a file.
        scene, path, users = small_map
        before = path.read_bytes()
        blocker = tmp_path / "file"
        blocker.write_text("a file\n")
        ga = ["--population", "16", "--generations", "3"]
        args = {
            "map-reduce": ["map", "reduce", "--map", str(path),
                           "--out", str(tmp_path / "missing" / "m.json")],
            "map-build": ["map", "build", "--no-reduce", "--out", str(blocker / "sub")],
            "assoc-solve": ["assoc", "solve", "--map", str(path), "--users", str(users), *ga,
                            "--out", str(blocker)],
            "sweep-run": ["sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0", *ga,
                          "--out", str(blocker)],
        }[command]
        res = self.runner.invoke(main, args + ["--scene", str(scene)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert res.output.startswith("error: ") and res.output.count("\n") == 1
        assert path.read_bytes() == before
        assert blocker.read_text() == "a file\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "option",
        [
            ["--step", "0"],
            ["--step", "-0.1"],
            ["--a-range", "nan", "0"],
            ["--a-range", "0.2", "0"],
        ],
        ids=["step-0", "step-negative", "nan-bound", "reversed-range"],
    )
    def test_sweep_run_bad_ranges_are_config_errors(self, tmp_path, option):
        out = tmp_path / "s"
        res = self.runner.invoke(main, [
            "sweep", "run", "--a-range", "0", "0", "--b-range", "0", "0", *option,
            "--population", "16", "--generations", "5", "--out", str(out),
        ])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert "sweep" in res.output
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("step", ["1e-308", "5e-324"])
    def test_sweep_run_step_too_small_to_build_is_a_config_error(self, tmp_path, step):
        # Both steps are positive and finite; neither axis can be built, and
        # neither asks numpy for an array.
        out = tmp_path / "s"
        res = self.runner.invoke(main, [
            "sweep", "run", "--a-range", "0", "1", "--b-range", "0", "0", "--step", step,
            "--population", "16", "--generations", "5", "--out", str(out),
        ])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "Traceback" not in res.output
        assert res.output.startswith("error: sweep range") and res.output.count("\n") == 1
        assert "anchors on one axis, more than can be built" in res.output
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "run", "--a-range", "0.0", "0.0", "--b-range", "0.2", "0.2"],
            ["assoc", "solve", "--anchor", "0.0", "0.2"],
        ],
        ids=["sweep-run", "assoc-solve"],
    )
    def test_run_json_records_the_whole_config(self, tmp_path, command):
        # Two runs that differ only in --tau must say so in their manifests.
        scene = tmp_path / "scene.yaml"
        scene.write_text(SMALL_SCENE_YAML)
        manifests = []
        for tau in (1, 2):
            out = tmp_path / f"tau{tau}"
            res = self.runner.invoke(main, command + [
                "--scene", str(scene), "--tau", str(tau), "--population", "16",
                "--generations", "5", "--out", str(out),
            ])
            assert res.exit_code == 0, res.output
            manifests.append((out / "run.json").read_bytes())
        assert manifests[0] != manifests[1]
        for tau, raw in zip((1, 2), manifests):
            params = json.loads(raw)["params"]
            assoc = params["assoc"] if command[0] == "sweep" else params
            assert (assoc["tau"], assoc["max_rounds"], assoc["ga"]["population"]) == (tau, 50, 16)
            assert params["map_lookup"] is False

    def test_sweep_run_non_convergence_exits_4(self, tmp_path, monkeypatch):
        refine = experiments.iterative_rate_update
        monkeypatch.setattr(
            experiments, "iterative_rate_update",
            lambda *a, **k: refine(*a, **{**k, "max_rounds": 1}),
        )
        out = tmp_path / "s"
        res = self.runner.invoke(main, [
            "sweep", "run", "--a-range", "0.0", "0.0", "--b-range", "0.0", "0.0",
            "--population", "16", "--generations", "5", "--out", str(out),
        ])
        assert res.exit_code == EXIT_NO_CONVERGENCE, res.output
        assert (out / "run.json").exists()
        assert (out / "sweep.csv").read_text().splitlines()[1].endswith(",1,0")

    def test_sweep_run_deterministic(self, tmp_path):
        args = [
            "sweep", "run",
            "--a-range", "-0.1", "0.1", "--b-range", "0.0", "0.0",
            "--population", "16", "--generations", "30", "--seed", "5",
        ]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        r1 = self.runner.invoke(main, args + ["--out", str(out1)])
        r2 = self.runner.invoke(main, args + ["--out", str(out2)])
        assert r1.exit_code == 0, r1.output
        assert r2.exit_code == 0, r2.output
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

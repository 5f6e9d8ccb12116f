"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_topology, main
from repro.errors import ReproError
from repro.scenarios import UnknownNameError

#: A hand-written base spec: random many-to-one traffic on butterfly(3).
SPEC = {
    "topology": "butterfly",
    "topology_params": {"dim": 3},
    "workload": "random_many_to_one",
    "workload_params": {"num_packets": 6, "seed": 0},
    "selector": "random",
    "selector_params": {"seed": 1},
    "backend": "frontier",
    "seed": 0,
}


def write_spec(path, **overrides):
    path.write_text(json.dumps({**SPEC, **overrides}), encoding="utf-8")
    return str(path)


class TestTopologySpecs:
    @pytest.mark.parametrize(
        "spec,depth",
        [
            ("butterfly:3", 3),
            ("mesh:4x6", 8),
            ("mesh:5", 8),  # square shorthand
            ("hypercube:4", 4),
            ("line:9", 9),
            ("omega:3", 3),
            ("fattree:3", 3),
            ("btree:3", 3),
            ("random:4x10", 10),
        ],
    )
    def test_specs_parse(self, spec, depth):
        net = build_topology(spec)
        assert net.depth == depth

    def test_unknown_topology(self):
        with pytest.raises(UnknownNameError) as excinfo:
            build_topology("torus:4")
        message = str(excinfo.value)
        assert "unknown topology 'torus'" in message
        assert "available:" in message and "butterfly" in message

    def test_typo_suggests_closest_name(self):
        with pytest.raises(UnknownNameError, match=r"did you mean 'butterfly'\?"):
            build_topology("buterfly:4")

    def test_unknown_name_is_repro_error(self):
        # main() maps ReproError to exit code 2 with the message on stderr.
        assert issubclass(UnknownNameError, ReproError)

    def test_bad_arguments(self):
        with pytest.raises(SystemExit):
            build_topology("butterfly:abc")


class TestCommands:
    def test_topo_command(self, capsys):
        assert main(["topo", "mesh:4x4"]) == 0
        out = capsys.readouterr().out
        assert "validation" in out and "OK" in out

    def test_params_command(self, capsys):
        assert main(["params", "4", "8", "32"]) == 0
        out = capsys.readouterr().out
        assert "practical parameters" in out
        assert "theory-exact" in out

    def test_frames_command(self, capsys):
        assert main(["frames", "4", "10", "16", "--m", "4", "--w", "8"]) == 0
        out = capsys.readouterr().out
        assert "phase |" in out

    def test_route_frontier_audited(self, tmp_path, capsys):
        # An audited run is a spec with backend_params.audit set.
        spec = write_spec(
            tmp_path / "spec.json", backend_params={"audit": True}, seed=1
        )
        code = main(["run", "--spec", spec])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "audit: all invariants held" in out

    @pytest.mark.parametrize(
        "router", ["naive", "greedy", "randgreedy", "storeforward"]
    )
    def test_route_baselines(self, tmp_path, capsys, router):
        target = tmp_path / "spec.json"
        assert main(["spec", f"butterfly_{router}", "--out", str(target)]) == 0
        code = main(["run", "--spec", str(target)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok" in out

    def test_route_unknown_router(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", backend="quantum")
        assert main(["run", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'quantum'" in err
        assert "available:" in err

    def test_topo_typo_message(self, capsys):
        assert main(["topo", "buterfly:4"]) == 2
        err = capsys.readouterr().err
        assert "unknown topology 'buterfly'" in err
        assert "(did you mean 'butterfly'?)" in err

    def test_experiment_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "a4" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "zz"]) == 2

    def test_experiment_ids_resolve_to_one_module(self, capsys):
        from repro.cli import _benchmarks_dir, _experiment_modules

        bench_dir = _benchmarks_dir()
        modules = _experiment_modules(bench_dir)
        assert main(["experiment"]) == 0
        listed = capsys.readouterr().out.splitlines()[0].split(": ")[1]
        assert listed.split(", ") == sorted(modules)
        assert "presets" in modules
        assert not any(".py" in exp for exp in modules)
        # No two bench modules collapse onto one id.
        experiments = {
            p for p in bench_dir.glob("bench_*.py")
            if p.name != "bench_engine_throughput.py"
        }
        assert set(modules.values()) == experiments
        for exp, module in modules.items():
            assert module.stem == f"bench_{exp}" or module.stem.startswith(
                f"bench_{exp}_"
            )

    def test_experiment_runs_one(self, capsys):
        # E1 is the cheapest experiment (topology validation only).
        assert main(["experiment", "e1"]) == 0

    @pytest.mark.parametrize("router", ["naive", "greedy"])
    def test_dynamic_command(self, tmp_path, capsys, router):
        """Continuous injection runs as an arrival spec through ``run``."""
        target = tmp_path / "dynamic.json"
        name = f"dynamic_{router}"
        assert main(["spec", name, "--seed", "1", "--out", str(target)]) == 0
        assert "~bernoulli" in capsys.readouterr().out
        code = main(["run", "--spec", str(target)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok" in out


class TestSpecCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "butterfly_random" in out
        assert "topologies:" in out and "backends:" in out
        # Arrival-driven entries show their process, like RunSpec.describe.
        assert "butterfly / ~bernoulli / random -> greedy" in out

    def test_spec_prints_json(self, capsys):
        assert main(["spec", "butterfly_random"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "run_spec"' in out

    def test_spec_unknown_name(self, capsys):
        assert main(["spec", "no_such_entry"]) == 2
        assert "unknown catalog spec" in capsys.readouterr().err

    def test_spec_roundtrip_through_run(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "butterfly_greedy", "--out", str(target)]) == 0
        assert main(["run", "--spec", str(target)]) == 0
        out = capsys.readouterr().out
        assert "GreedyHotPotatoRouter" in out and "ok" in out

    def test_run_missing_spec_file(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "absent.json")]) == 2
        assert "spec file not found" in capsys.readouterr().err

    def test_run_with_cache(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "butterfly_naive", "--out", str(target)]) == 0
        cache = str(tmp_path / "cache")
        args = ["run", "--spec", str(target), "--cache", "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache : hit" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache : hit" in second
        # The cached result is the same record the live run produced.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_sweep_matches_serial(self, tmp_path, capsys):
        # The sweep store is byte-identical regardless of worker count.
        spec = write_spec(tmp_path / "spec.json", seed=5)
        args = ["sweep", "--spec", spec, "--trials", "3", "--no-compact"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(args + ["--store", str(serial)]) == 0
        assert main(args + ["--store", str(parallel), "--workers", "2"]) == 0
        capsys.readouterr()
        (serial_dir,) = serial.iterdir()
        (parallel_dir,) = parallel.iterdir()
        assert serial_dir.name == parallel_dir.name
        shards = sorted((serial_dir / "shards").glob("*.jsonl.gz"))
        assert shards
        for shard in shards:
            assert shard.read_bytes() == (
                parallel_dir / "shards" / shard.name
            ).read_bytes()

    def test_run_spec_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SPEC)))
        assert main(["run", "--spec", "-"]) == 0
        out = capsys.readouterr().out
        assert "butterfly / random_many_to_one / random -> frontier" in out
        assert "ok" in out

    def test_sweep_and_tune_need_a_spec(self, capsys):
        assert main(["sweep", "--trials", "2"]) == 2
        assert "--spec is required" in capsys.readouterr().err
        assert main(["tune"]) == 2
        assert "--spec is required" in capsys.readouterr().err

    def test_tune_rejects_non_frontier_spec(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "butterfly_greedy", "--out", str(target)]) == 0
        assert main(["tune", "--spec", str(target)]) == 2
        assert "frontier" in capsys.readouterr().err

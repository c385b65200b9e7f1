import json
import time

import pytest

from fuzzcyl import cli
from fuzzcyl.cli import main

TOPO = {
    "ground_set": ["a", "b"],
    "opens": [
        {"name": "T0", "values": {"a": "0", "b": "0"}},
        {"name": "T1", "values": {"a": "1", "b": "1"}},
        {"name": "T2", "values": {"a": "1/3", "b": "1/3"}},
        {"name": "T3", "values": {"a": "2/3", "b": "2/3"}},
    ],
}


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(TOPO))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_counterexample(capsys):
    code, doc = run(capsys, "counterexample")
    assert code == 0
    assert doc["verdict"] == "unequal"
    fiber = doc["psi_of_T"]["fibers"]["x"]
    assert fiber == [{"lo": "0", "hi": "1/3", "lo_open": False, "hi_open": True}]
    comp = doc["set_complement_of_psi"]["fibers"]["x"]
    assert comp == [{"lo": "1/3", "hi": "1", "lo_open": False, "hi_open": True}]
    alg = doc["psi_of_algebraic_complement"]["fibers"]["x"]
    assert alg == [{"lo": "0", "hi": "2/3", "lo_open": False, "hi_open": True}]


def test_validate_ok_and_failure(capsys, tmp_path, topo_file):
    code, doc = run(capsys, "validate", "--topology", topo_file)
    assert code == 0 and doc["ok"]

    bad = dict(TOPO, opens=TOPO["opens"][:1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc = run(capsys, "validate", "--topology", str(path))
    assert code == 1
    assert ["missing-constant-1"] in doc["problems"]


def test_malformed_input_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", "--topology", str(path)]) == 2
    capsys.readouterr()


def test_cylinder_dump(capsys, topo_file):
    code, doc = run(capsys, "cylinder", "--topology", topo_file, "--open", "T2")
    assert code == 0
    assert doc["T2"]["fibers"]["a"][0]["hi"] == "1/3"


def test_connectivity(capsys, topo_file):
    code, doc = run(capsys, "connectivity", "--topology", topo_file)
    assert code == 0
    assert doc["pc"] and doc["lpc"]


def test_laws_sweep(capsys):
    code, docs = run(capsys, "laws", "--sweeps", "5", "--seed", "3")
    assert code == 0
    assert all(entry["ok"] for entry in docs)


def test_retraction_emit_and_replay(capsys, tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--sweeps", "12", "--seed", "4", "--emit", str(cert))
    assert code == 0 and doc["ok"]
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(cert))
    assert code == 0
    assert doc["replayed"] == 12 and doc["ok"]


def test_replay_rejects_degenerate_time_box(capsys, tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    code, _ = run(capsys, "verify-retraction", "--topology", topo_file,
                  "--sweeps", "12", "--seed", "4", "--emit", str(cert))
    assert code == 0
    # shrink every time box to its anchor time: no longer a neighbourhood
    forged = json.loads(cert.read_text())
    for w in forged:
        t = w["anchor_t"]
        w["t_interval"] = {"lo": t, "hi": t, "lo_open": False, "hi_open": False}
    cert.write_text(json.dumps(forged))
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(cert))
    assert code == 1
    assert not doc["ok"] and doc["failures"] == list(range(12))


@pytest.mark.parametrize("forge", [
    lambda w: w["anchor"].update(x="zz"),
    lambda w: w.update(target={"kind": "tstar", "gamma": "0", "open": "Tz"}),
], ids=["unknown-ground-element", "unknown-open"])
def test_replay_rejects_unknown_names(capsys, tmp_path, topo_file, forge):
    cert = tmp_path / "certs.json"
    code, _ = run(capsys, "verify-retraction", "--topology", topo_file,
                  "--sweeps", "12", "--seed", "4", "--emit", str(cert))
    assert code == 0
    forged = json.loads(cert.read_text())
    forge(forged[3])
    cert.write_text(json.dumps(forged))
    assert main(["verify-retraction", "--topology", topo_file,
                 "--replay", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate 3: unknown ")
    assert captured.err.count("\n") == 1


def test_laws_rejects_bad_topology_before_sweeping(capsys, tmp_path, monkeypatch):
    bad = json.loads(json.dumps(TOPO))
    bad["opens"][2]["values"]["a"] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))

    def no_sweep(*args):
        raise AssertionError("swept before loading the topology")

    monkeypatch.setattr(cli, "sweep_psi_laws", no_sweep)
    started = time.monotonic()
    assert main(["laws", "--topology", str(path)]) == 2
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 1.0


def test_zero_denominator_exits_2(capsys, tmp_path):
    bad = json.loads(json.dumps(TOPO))
    bad["opens"][2]["values"]["a"] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["laws", "--sweeps", "1", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["paths", "--grid-step", "1/0"]) == 2
    capsys.readouterr()


def test_paths_sweep(capsys):
    code, doc = run(capsys, "paths", "--sweeps", "2", "--seed", "5")
    assert code == 0 and doc["ok"]


def test_decide_complement(capsys, topo_file):
    code, doc = run(capsys, "decide-complement", "--topology", topo_file,
                    "--f", "T2", "--g", "T3")
    assert code == 0
    assert doc["inversion"] and doc["direct"]
    assert not doc["cylinder_complement_compatible"]["equal"]

    code, doc = run(capsys, "decide-complement", "--topology", topo_file,
                    "--f", "T2", "--g", "T2")
    assert code == 1
    assert not doc["inversion"]


def test_oracle_sweep(capsys):
    code, doc = run(capsys, "oracle", "--sweeps", "4", "--seed", "6")
    assert code == 0 and doc["ok"]


def test_deterministic_given_seed(capsys):
    _, first = run(capsys, "laws", "--sweeps", "3", "--seed", "9")
    _, second = run(capsys, "laws", "--sweeps", "3", "--seed", "9")
    assert first == second

import contextlib
import hashlib
import inspect
import io
import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from jsonfuzz import FUZZ, field_paths, json_values, replaced

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


# Certificate files in the format that also stored each certificate's
# realized region fibers (``region``) next to its clause, emitted before the
# writer dropped them: for TOPO at --sweeps 12 --seed 4, for STEP at
# --sweeps 60, and for the README's topology, which is TOPO, at the README's
# flags.  Replay still reads and checks the fibers, so the tests that edit
# them start from these files.
OLD_CERTS = Path(__file__).resolve().parent / "old_certs"
OLD_TOPO, OLD_STEP, OLD_README = (OLD_CERTS / name for name in (
    "topo_sweeps12_seed4.json", "step_sweeps60.json", "readme_certs.json"))


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(TOPO))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def run_cli(argv):
    """Exit code of the CLI on argv, which must be 0, 1 or 2; exit 2 must
    print nothing on stdout and exactly one error: line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code


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
    assert doc["components"] == [["a", "b"]]


def test_laws_sweep(capsys, topo_file):
    code, docs = run(capsys, "laws", "--sweeps", "5", "--seed", "3")
    assert code == 0
    assert all(entry["ok"] for entry in docs)
    # a file topology adds its own psi law record, with checks made
    code, docs = run(capsys, "laws", "--sweeps", "20", "--seed", "7",
                     "--topology", topo_file)
    assert code == 0
    (record,) = [r for r in docs if r["name"] == "psi-laws-input"]
    assert record["ok"] and record["checked"] > 0


def test_laws_builds_no_oracle_ledger(capsys, monkeypatch):
    """``laws`` reports its sweeps and fills no grid-oracle ledger, which
    nothing would verify; ``oracle`` still builds one and verifies it."""
    def no_ledger():
        raise AssertionError("laws built an oracle ledger")

    monkeypatch.setattr(cli, "OracleLedger", no_ledger)
    code, docs = run(capsys, "laws", "--sweeps", "5", "--seed", "3")
    assert code == 0
    assert [r["name"] for r in docs] == ["psi-laws", "round-trip",
                                         "indicator-compat", "sigma-laws"]
    monkeypatch.undo()
    code, doc = run(capsys, "oracle", "--sweeps", "4", "--seed", "6")
    assert code == 0 and doc["name"] == "grid-oracle-N64" and doc["checked"] > 0


def test_retraction_emit_and_replay(capsys, tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--sweeps", "12", "--seed", "4", "--emit", str(cert))
    assert code == 0 and doc["ok"]
    # without --emit the same sweep runs and writes no file
    assert run(capsys, "verify-retraction", "--topology", topo_file,
               "--sweeps", "12", "--seed", "4") == (code, doc)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["certs.json", "topo.json"]
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(cert))
    assert code == 0
    assert doc["replayed"] == 12 and doc["ok"]
    text = cert.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), separators=(",", ":"))
    # a target the region's image does not reach fails that certificate
    forged = json.loads(text)
    forged[0]["target"] = {"kind": "pi2", "gamma": "99/100"}
    cert.write_text(json.dumps(forged))
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(cert))
    assert code == 1
    assert doc == {"replayed": 12, "ok": False, "failures": [0]}


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


def test_replay_rejects_a_forged_region(capsys, tmp_path, topo_file):
    """A stored region must equal the realization of its clause: the old
    TOPO file replays ok, and emptying the anchor's fiber in its certificate
    7, which leaves the file well formed, fails that certificate alone."""
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(OLD_TOPO))
    assert (code, doc) == (0, {"replayed": 12, "ok": True, "failures": []})
    forged = json.loads(OLD_TOPO.read_text())
    fibers, x = forged[7]["region"]["fibers"], forged[7]["anchor"]["x"]
    assert fibers[x] != []
    fibers[x] = []
    cert = tmp_path / "certs.json"
    cert.write_text(json.dumps(forged))
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file,
                    "--replay", str(cert))
    assert (code, doc) == (1, {"replayed": 12, "ok": False, "failures": [7]})


@pytest.mark.parametrize("forge, message", [
    (lambda w: w["anchor"].update(x="zz"),
     "anchor of certificate 3 names unknown ground element 'zz'"),
    (lambda w: w.update(target={"kind": "tstar", "gamma": "0", "open": "Tz"}),
     "target of certificate 3 names unknown open 'Tz'"),
], ids=["unknown-ground-element", "unknown-open"])
def test_replay_rejects_unknown_names(capsys, tmp_path, topo_file, forge, message):
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
    assert captured.err == f"error: malformed certificate: {message}\n"


@pytest.mark.parametrize("forge, old", [
    (lambda w: w["region"]["fibers"].update(zz=[]), True),
    (lambda w: w.update(target={"kind": "pi2", "gamma": "0", "open": "zz"}), False),
    (lambda w: w["region_expr"][0].append({"kind": "pi2", "gamma": "0", "open": "T1"}),
     False),
    (lambda w: w["target"].update(gamma=0.5), False),
    (lambda w: w.update(anchor_t="2"), False),
    (lambda w: w.update(anchor_t="-1/2"), False),
    (lambda w: next(fib for fib in w["region"]["fibers"].values() if fib)[0].update(lo="1/0"),
     True),
    (lambda w: w["target"].update(gamma="2"), False),
    (lambda w: w["region_expr"][0][0].update(gamma="-3/2"), False),
], ids=["fiber-outside-ground-set", "pi2-target-with-open", "pi2-member-with-open",
        "inexact-gamma", "anchor-time-above-1", "anchor-time-below-0",
        "zero-denominator", "gamma-above-1", "gamma-below-minus-1"])
def test_replay_rejects_malformed_fields(capsys, tmp_path, topo_file, forge, old):
    """Each forge edits certificate 3 of the TOPO file at --sweeps 12 --seed
    4: an emitted one, or the old one where it edits the region fibers."""
    cert = tmp_path / "certs.json"
    if not old:
        code, _ = run(capsys, "verify-retraction", "--topology", topo_file,
                      "--sweeps", "12", "--seed", "4", "--emit", str(cert))
        assert code == 0
    forged = json.loads((OLD_TOPO if old else cert).read_text())
    forge(forged[3])
    cert.write_text(json.dumps(forged))
    assert main(["verify-retraction", "--topology", topo_file,
                 "--replay", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed certificate: ")
    assert captured.err.count("\n") == 1


# a two-point topology whose open T2 is 0 at b: some regions are empty there
STEP = {
    "ground_set": ["a", "b"],
    "opens": [
        {"name": "T0", "values": {"a": "0", "b": "0"}},
        {"name": "T1", "values": {"a": "1", "b": "1"}},
        {"name": "T2", "values": {"a": "1/2", "b": "0"}},
    ],
}


def non_array_fiber(value):
    """Replace the first empty region fiber of the certificates."""
    def forge(certs):
        fibers = next(w["region"]["fibers"] for w in certs
                      if [] in w["region"]["fibers"].values())
        fibers[next(x for x, fib in fibers.items() if fib == [])] = value
    return forge


def non_array_expr(value):
    def forge(certs):
        certs[0]["region_expr"] = value
    return forge


def non_array_clause(value):
    def forge(certs):
        certs[0]["region_expr"][0] = value
    return forge


# the first empty region fiber of the old file for STEP
FIBER_18 = "interval in fiber 'b' of region of certificate 18"


@pytest.mark.parametrize("forge, old, message", [
    (non_array_fiber({}), True, f"{FIBER_18}: interval set must be an array of intervals"),
    (non_array_fiber(""), True, f"{FIBER_18}: interval set must be an array of intervals"),
    (non_array_expr({}), False, "certificate 0: open expression must be an array of clauses"),
    (non_array_expr(""), False, "certificate 0: open expression must be an array of clauses"),
    (non_array_clause({}), False,
     "certificate 0: clause must be an array of subbasis elements"),
    (non_array_clause(""), False,
     "certificate 0: clause must be an array of subbasis elements"),
], ids=["fiber-object", "fiber-string", "region-expr-object", "region-expr-string",
        "clause-object", "clause-string"])
def test_replay_requires_arrays(capsys, tmp_path, forge, old, message):
    """A JSON object or string where a certificate holds an array is
    malformed (exit 2), not read as an empty array, and the message names
    its place first; among the 60 certificates for ``STEP`` are regions
    with an empty fiber, which the old file holds."""
    topo = write_topology(tmp_path, STEP)
    cert = tmp_path / "certs.json"
    if not old:
        code, _ = run(capsys, "verify-retraction", "--topology", topo,
                      "--sweeps", "60", "--emit", str(cert))
        assert code == 0
    forged = json.loads((OLD_STEP if old else cert).read_text())
    forge(forged)
    cert.write_text(json.dumps(forged))
    assert main(["verify-retraction", "--topology", topo, "--replay", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed certificate: {message}\n"


VALUES_NOT_AN_OBJECT = "membership values must be an object keyed by ground element"
OPEN_NOT_AN_OBJECT = "each open must be an object with a name and values"


@pytest.mark.parametrize("command", ["validate", "cylinder"])
@pytest.mark.parametrize("place, value, message", [
    ("values", ["a"], VALUES_NOT_AN_OBJECT),
    ("values", ["a", "b"], VALUES_NOT_AN_OBJECT),
    ("values", "ab", VALUES_NOT_AN_OBJECT),
    ("values", 5, VALUES_NOT_AN_OBJECT),
    ("open", ["T0", {"a": "0", "b": "0"}], OPEN_NOT_AN_OBJECT),
], ids=["array", "full-array", "string", "number", "open-entry"])
def test_opens_and_their_values_must_be_objects(capsys, tmp_path, command,
                                                place, value, message):
    doc = json.loads(json.dumps(TOPO))
    if place == "values":
        doc["opens"][0]["values"] = value
    else:
        doc["opens"][0] = value
    path = write_topology(tmp_path, doc)
    assert main([command, "--topology", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed topology file: {message}\n"


@pytest.mark.parametrize("opens", [{}, ""], ids=["object", "string"])
def test_opens_must_be_an_array(capsys, tmp_path, opens):
    path = write_topology(tmp_path, dict(TOPO, opens=opens))
    assert main(["validate", "--topology", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed topology file: opens must be an array\n"


@pytest.mark.parametrize("target", ["missing/certs.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_emit_path_exits_2_before_sweeping(monkeypatch, tmp_path,
                                                       topo_file, target):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before opening the emit path")

    monkeypatch.setattr(cli, "sweep_retraction_on", no_sweep)
    assert run_cli(["verify-retraction", "--topology", topo_file,
                    "--emit", str(tmp_path / target)]) == 2


def test_replay_rejects_non_boolean_interval_flags(capsys, tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    code, _ = run(capsys, "verify-retraction", "--topology", topo_file,
                  "--sweeps", "3", "--seed", "4", "--emit", str(cert))
    assert code == 0
    forged = json.loads(cert.read_text())
    forged[0]["t_interval"].update(lo_open="yes", hi_open="no")
    cert.write_text(json.dumps(forged))
    assert main(["verify-retraction", "--topology", topo_file,
                 "--replay", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed certificate: ")
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "_grid_step" not in err


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


def test_unknown_open_message_has_no_extra_quotes(capsys, topo_file):
    assert main(["decide-complement", "--topology", topo_file,
                 "--f", "T2", "--g", "T9"]) == 2
    assert capsys.readouterr().err == "error: no open named 'T9'\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


@pytest.mark.parametrize("old, topology, flags", [
    (OLD_TOPO, TOPO, ["--sweeps", "12", "--seed", "4"]),
    (OLD_STEP, STEP, ["--sweeps", "60"]),
    # the README's verify-retraction --emit flags, on its topology
    (OLD_README, None, ["--sweeps", "60"]),
], ids=["topo", "step", "readme"])
def test_old_files_replay_and_hold_todays_certificates(capsys, tmp_path, old, topology,
                                                       flags):
    """Each old file replays with no failure, and with its region fibers
    taken out it is what the CLI emits today at its flags: the format lost
    that one field and nothing else changed."""
    if topology is None:
        (text,) = readme_blocks("json")
        topology = json.loads(text)
    topo = write_topology(tmp_path, topology)
    doc = json.loads(old.read_text())
    assert len(doc) == int(flags[1]) and all("region" in w for w in doc)
    code, report = run(capsys, "verify-retraction", "--topology", topo, "--replay", str(old))
    assert (code, report) == (0, {"replayed": len(doc), "ok": True, "failures": []})
    cert = tmp_path / "certs.json"
    code, _ = run(capsys, "verify-retraction", "--topology", topo, *flags, "--emit", str(cert))
    assert code == 0
    assert json.loads(cert.read_text()) == [{k: v for k, v in w.items() if k != "region"}
                                            for w in doc]


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    # the README's topology as topo.json, and each fuzzcyl line of its
    # shell blocks run in order, so --replay reads what --emit wrote
    (topology,) = readme_blocks("json")
    (tmp_path / "topo.json").write_text(topology)
    monkeypatch.chdir(tmp_path)
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fuzzcyl"]:
                commands.append(argv[1:])
    assert len(commands) == 10
    for argv in commands:
        assert run_cli(argv) == 0, argv


def test_oracle_sweep(capsys):
    code, doc = run(capsys, "oracle", "--sweeps", "4", "--seed", "6")
    assert code == 0 and doc["ok"]
    # a grid of 7 divides few level denominators: both integer sides of
    # the oracle off the grid
    code, doc = run(capsys, "oracle", "--sweeps", "40", "--seed", "7",
                    "--resolution", "7")
    assert code == 0 and doc["ok"] and doc["checked"] > 0


def test_deterministic_given_seed(capsys):
    _, first = run(capsys, "laws", "--sweeps", "3", "--seed", "9")
    _, second = run(capsys, "laws", "--sweeps", "3", "--seed", "9")
    assert first == second


def write_topology(tmp_path, doc):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "cylinder", "connectivity"])
def test_duplicate_open_names_exit_2(tmp_path, command):
    doc = json.loads(json.dumps(TOPO))
    doc["opens"][2]["name"] = "T0"
    path = write_topology(tmp_path, doc)
    assert run_cli([command, "--topology", path]) == 2


@pytest.mark.parametrize("command", ["validate", "cylinder"])
def test_non_string_open_name_exits_2(tmp_path, command):
    doc = json.loads(json.dumps(TOPO))
    doc["opens"][1]["name"] = []
    path = write_topology(tmp_path, doc)
    assert run_cli([command, "--topology", path]) == 2


@pytest.mark.parametrize("command", ["validate", "cylinder"])
def test_membership_values_for_unknown_elements_exit_2(tmp_path, capsys, command):
    doc = json.loads(json.dumps(TOPO))
    doc["opens"][0]["values"].update(zz="oops", c="0")
    path = write_topology(tmp_path, doc)
    assert main([command, "--topology", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed topology file: membership values "
                            "for unknown elements ['c', 'zz']\n")


# each subcommand that loads a topology, with the flags it needs besides
# --topology
TOPOLOGY_COMMANDS = {
    "validate": [],
    "cylinder": [],
    "connectivity": [],
    "laws": ["--sweeps", "1"],
    "verify-retraction": ["--sweeps", "1"],
    "decide-complement": ["--f", "T0", "--g", "T1"],
}


def without(doc, *path):
    """A deep copy of doc with the key at path removed."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    del target[key]
    return doc


@pytest.mark.parametrize("command", sorted(TOPOLOGY_COMMANDS))
@pytest.mark.parametrize("doc, message", [
    ([], "topology must be a JSON object"),
    ("topology", "topology must be a JSON object"),
    (without(TOPO, "ground_set"), "topology has no 'ground_set' field"),
    (without(TOPO, "opens"), "topology has no 'opens' field"),
    (without(TOPO, "opens", 2, "name"), "open 2 has no 'name' field"),
    (without(TOPO, "opens", 0, "values"), "open 0 has no 'values' field"),
    ({"ground_set": [], "opens": []}, "ground set must be nonempty"),
], ids=["array", "string", "no-ground-set", "no-opens", "no-name", "no-values",
        "empty-ground-set"])
def test_malformed_topology_message_names_the_fault(capsys, tmp_path, command, doc,
                                                    message):
    path = write_topology(tmp_path, doc)
    assert main([command, "--topology", path, *TOPOLOGY_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed topology file: {message}\n"


def emitted_seed4(capsys, tmp_path, topo_file):
    """The 12 certificates emitted for TOPO at --sweeps 12 --seed 4: the
    targets of certificates 2 and 11 are both pi2(0), and those of 3 and 9
    both tstar(T1, 1/3)."""
    cert = tmp_path / "certs.json"
    code, _ = run(capsys, "verify-retraction", "--topology", topo_file,
                  "--sweeps", "12", "--seed", "4", "--emit", str(cert))
    assert code == 0
    certs = json.loads(cert.read_text())
    assert certs[2]["target"] == certs[11]["target"] == {"kind": "pi2", "gamma": "0"}
    assert certs[3]["target"] == certs[9]["target"]
    return certs


def replay_exit_2(capsys, tmp_path, topo_file, certs) -> str:
    """The one stderr line of a replay of ``certs``, which must exit 2."""
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps(certs))
    assert main(["verify-retraction", "--topology", topo_file, "--replay", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("forge, message", [
    (lambda certs: [1], "certificate 0 must be an object"),
    (lambda certs: [[]], "certificate 0 must be an object"),
    (lambda certs: [{}], "certificate 0 has no 't_interval' field"),
    (lambda certs: without(certs, 3, "anchor_t"), "certificate 3 has no 'anchor_t' field"),
    (lambda certs: without(certs, 3, "target", "kind"),
     "target of certificate 3 has no 'kind' field"),
    (lambda certs: without(certs, 3, "region_expr", 0, 1, "gamma"),
     "region member of certificate 3 has no 'gamma' field"),
    (lambda certs: replaced(certs, (3, "target"), "pi2"),
     "target of certificate 3 must be an object with a kind and a gamma"),
    (lambda certs: replaced(certs, (3, "region_expr", 0, 0), "pi2"),
     "region member of certificate 3 must be an object with a kind and a gamma"),
    (lambda certs: without(certs, 3, "anchor", "alpha"),
     "anchor of certificate 3 has no 'alpha' field"),
    (lambda certs: replaced(certs, (3, "anchor"), ["a", "1/2"]),
     "anchor of certificate 3 must be an object with an x and an alpha"),
    (lambda certs: without(certs, 3, "t_interval", "lo"),
     "time box of certificate 3 has no 'lo' field"),
    (lambda certs: replaced(certs, (3, "t_interval"), [certs[3]["t_interval"]]),
     "time box of certificate 3 must be an object"),
    (lambda certs: replaced(certs, (3, "t_interval"), "0"),
     "time box of certificate 3 must be an object"),
    (lambda certs: {"certificates": certs}, "certificate file must hold a JSON array"),
    # an older file's region, here added to an emitted certificate
    (lambda certs: replaced(certs, (3, "region"), 5),
     "region of certificate 3 must be an object"),
    (lambda certs: replaced(certs, (3, "region"), {}),
     "region of certificate 3 has no 'fibers' field"),
    (lambda certs: replaced(certs, (3, "region"), {"fibers": {"a": [5]}}),
     "interval in fiber 'a' of region of certificate 3 must be an object"),
    (lambda certs: replaced(certs, (3, "region"), {"fibers": {"b": [{"lo": "0"}]}}),
     "interval in fiber 'b' of region of certificate 3 has no 'hi' field"),
], ids=["int", "array", "empty-object", "no-anchor-time", "target-no-kind",
        "member-no-gamma", "target-string", "member-string", "anchor-no-alpha",
        "anchor-array", "time-box-no-lo", "time-box-array", "time-box-string", "file-object",
        "region-int", "region-no-fibers", "fiber-interval-int", "fiber-interval-no-hi"])
def test_malformed_certificate_message_names_the_fault(capsys, tmp_path, topo_file, forge,
                                                       message):
    certs = emitted_seed4(capsys, tmp_path, topo_file)
    err = replay_exit_2(capsys, tmp_path, topo_file, forge(certs))
    assert err == f"error: malformed certificate: {message}\n"


# certificate 3 of the README's certs.json, which stores its region, with one
# field changed: each reader's message that names no place gets the place
# its field's missing-field message names (the anchor is at "b")
@pytest.mark.parametrize("forge, message", [
    (lambda certs: replaced(certs, (3, "target", "kind"), "foo"),
     "target of certificate 3: unknown subbasis kind 'foo'"),
    (lambda certs: without(certs, 3, "target", "open"),
     "target of certificate 3: tstar subbasis element needs an open name string"),
    (lambda certs: replaced(certs, (3, "target"), {"kind": "pi2", "gamma": "0", "open": "T1"}),
     "target of certificate 3: pi2 subbasis element takes no open name"),
    (lambda certs: replaced(certs, (3, "target", "gamma"), "3/2"),
     "target of certificate 3: gamma outside [-1,1): 3/2"),
    (lambda certs: replaced(certs, (3, "target", "gamma"), "abc"),
     "target of certificate 3: invalid literal for int() with base 10: 'abc'"),
    (lambda certs: replaced(certs, (3, "target", "gamma"), True),
     "target of certificate 3: cannot interpret True as an exact rational"),
    (lambda certs: replaced(certs, (3, "region_expr", 0, 1, "kind"), None),
     "region member of certificate 3: unknown subbasis kind None"),
    (lambda certs: replaced(certs, (3, "anchor_t"), "3/2"),
     "certificate 3: homotopy time outside [0,1]: 3/2"),
    (lambda certs: replaced(certs, (3, "anchor", "alpha"), "1"),
     "anchor of certificate 3: level outside [0,1): 1"),
    (lambda certs: replaced(certs, (3, "anchor", "x"), 5),
     "anchor of certificate 3: ground element must be a string: 5"),
    (lambda certs: replaced(certs, (3, "t_interval"),
                            {"lo": "1/2", "hi": "1/3", "lo_open": True, "hi_open": True}),
     "time box of certificate 3: empty interval: (1/2,1/3)"),
    (lambda certs: replaced(certs, (3, "t_interval", "lo_open"), "yes"),
     "time box of certificate 3: interval flags lo_open and hi_open must be booleans"),
    (lambda certs: replaced(certs, (3, "region_expr"), [[]]),
     "certificate 3: clauses must be nonempty"),
    (lambda certs: replaced(certs, (3, "region", "fibers", "zz"), []),
     "region of certificate 3: fiber for 'zz', which is not a ground element"),
    (lambda certs: replaced(certs, (3, "region", "fibers", "b"), [{"lo": "0", "hi": "1"}]),
     "region of certificate 3: fiber for 'b' holds the level 1, outside [0,1)"),
], ids=["target-kind", "tstar-no-open", "pi2-with-open", "gamma-above", "gamma-text",
        "gamma-bool", "member-kind-null", "anchor-time-above", "anchor-level-1",
        "anchor-x-int", "time-box-empty", "time-box-flag-text", "empty-clause",
        "fiber-not-ground", "fiber-holds-1"])
def test_malformed_value_message_names_its_place(capsys, tmp_path, forge, message):
    certs = json.loads(OLD_README.read_text())
    assert certs[3]["anchor"]["x"] == "b" and certs[3]["target"]["open"] == "T1"
    topo = write_topology(tmp_path, TOPO)
    err = replay_exit_2(capsys, tmp_path, topo, forge(certs))
    assert err == f"error: malformed certificate: {message}\n"


def test_a_level_1_region_fiber_is_malformed(capsys, tmp_path):
    """A region fiber is a level set in J = [0,1): one holding 1 is
    malformed input (exit 2), as an anchor at level 1 is, not a failed
    certificate."""
    certs = json.loads(OLD_README.read_text())
    topo = write_topology(tmp_path, TOPO)
    for x in ("a", "b"):
        for fiber in ([{"lo": "0", "hi": "1"}], [{"lo": "1", "hi": "1"}],
                      [{"lo": "0", "hi": "1/2"}, {"lo": "2/3", "hi": "1"}]):
            forged = replaced(certs, (3, "region", "fibers", x), fiber)
            assert replay_exit_2(capsys, tmp_path, topo, forged) == \
                "error: malformed certificate: region of certificate 3: " \
                f"fiber for {x!r} holds the level 1, outside [0,1)\n"
    near = replaced(certs, (3, "region", "fibers", "b"), [{"lo": "0", "hi": "1",
                                                           "hi_open": True}])
    cert = tmp_path / "near.json"
    cert.write_text(json.dumps(near))
    code, doc = run(capsys, "verify-retraction", "--topology", topo, "--replay", str(cert))
    assert (code, doc) == (1, {"replayed": 60, "ok": False, "failures": [3]})


def test_a_forged_copy_of_a_repeated_target_fails_alone(capsys, tmp_path, topo_file):
    """Certificate 11's target repeats certificate 2's, pi2(0); forged to
    pi2(99/100), above every anchor level, it reads to its own element and
    fails that one certificate."""
    certs = emitted_seed4(capsys, tmp_path, topo_file)
    certs[11]["target"] = {"kind": "pi2", "gamma": "99/100"}
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps(certs))
    code, doc = run(capsys, "verify-retraction", "--topology", topo_file, "--replay", str(cert))
    assert (code, doc) == (1, {"replayed": 12, "ok": False, "failures": [11]})


@pytest.mark.parametrize("first, later, message", [
    ("0", "1/0", "target of certificate 11: zero denominator in '1/0'"),
    ("0", 0.0, "target of certificate 11: cannot interpret 0.0 as an exact rational"),
    (0, 0.0, "target of certificate 11: cannot interpret 0.0 as an exact rational"),
    (0, False, "target of certificate 11: cannot interpret False as an exact rational"),
    ("0", None, "target of certificate 11 has no 'gamma' field"),
], ids=["zero-denominator", "float", "float-after-int", "bool-after-int", "no-gamma"])
def test_malformed_copy_of_a_repeated_target_exits_2(capsys, tmp_path, topo_file, first,
                                                      later, message):
    """Certificate 2's target read first, as "0" or 0, does not let a
    malformed copy at certificate 11 through: equal text is shared, but an
    int, a float or a bool is never looked up (0 == 0.0 == False)."""
    certs = emitted_seed4(capsys, tmp_path, topo_file)
    certs[2]["target"]["gamma"] = first
    if later is None:
        del certs[11]["target"]["gamma"]
    else:
        certs[11]["target"]["gamma"] = later
    err = replay_exit_2(capsys, tmp_path, topo_file, certs)
    assert err == f"error: malformed certificate: {message}\n"


def test_emit_and_replay_are_exclusive(monkeypatch, tmp_path, topo_file):
    def no_run(*args, **kwargs):
        raise AssertionError("ran with both --emit and --replay")

    monkeypatch.setattr(cli, "sweep_retraction_on", no_run)
    monkeypatch.setattr(cli, "_load_topology", no_run)
    emit = tmp_path / "a.json"
    for flags in (["--emit", str(emit), "--replay", "b.json"],
                  ["--replay", "b.json", "--emit", str(emit)]):
        assert run_cli(["verify-retraction", "--topology", topo_file, *flags]) == 2
    assert not emit.exists()


def test_ground_set_must_be_an_array(tmp_path):
    # a string would otherwise be read as the ground set of its characters
    doc = dict(TOPO, ground_set="ab")
    path = write_topology(tmp_path, doc)
    for command in ("validate", "cylinder"):
        assert run_cli([command, "--topology", path]) == 2


def test_validate_reports_axiom_failures_with_exit_1(capsys, tmp_path):
    doc = json.loads(json.dumps(TOPO))
    doc["opens"][3]["values"]["b"] = "1/4"
    path = write_topology(tmp_path, doc)
    code, report = run(capsys, "validate", "--topology", path)
    assert code == 1 and not report["ok"]
    assert all(p[0] in ("meet-missing", "join-missing") for p in report["problems"])
    assert run_cli(["cylinder", "--topology", path]) == 2


def test_non_utf8_file_exits_2(tmp_path, topo_file):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(TOPO).replace("T2", "Té").encode("latin-1"))
    assert run_cli(["validate", "--topology", str(path)]) == 2
    assert run_cli(["verify-retraction", "--topology", topo_file,
                    "--replay", str(path)]) == 2


def test_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run_cli(["cylinder", "--topology", str(path)]) == 2


def test_replay_rejects_fibers_that_are_not_an_object(tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    forged = json.loads(OLD_TOPO.read_text())
    forged[5]["region"]["fibers"] = [[]]
    cert.write_text(json.dumps(forged))
    assert run_cli(["verify-retraction", "--topology", topo_file,
                    "--replay", str(cert)]) == 2


def test_unknown_open_flag_exits_2(topo_file):
    assert run_cli(["cylinder", "--topology", topo_file, "--open", "Tz"]) == 2


def test_empty_open_flag_names_no_open(topo_file):
    # an empty name is a given name, not an absent flag
    assert run_cli(["cylinder", "--topology", topo_file, "--open", ""]) == 2


@pytest.mark.parametrize("elements", ["a,a", ","])
def test_repeated_elements_exit_2(monkeypatch, elements):
    def forbidden(args):
        raise AssertionError("the subcommand ran")
    monkeypatch.setattr(cli, "_cmd_counterexample", forbidden)
    assert run_cli(["counterexample", "--elements", elements]) == 2


@pytest.mark.parametrize("argv", [
    ["laws", "--sweeps", "0"],
    ["paths", "--sweeps", "-2"],
    ["verify-retraction", "--topology", "{topo}", "--sweeps", "0"],
    ["oracle", "--sweeps", "0"],
    ["oracle", "--resolution", "1"],
    ["oracle", "--resolution", "-64"],
    ["paths", "--sweeps", "ten"],
])
def test_numeric_flag_below_minimum_exits_2_before_running(monkeypatch, topo_file, argv):
    def forbidden(args):
        raise AssertionError("the subcommand ran")
    for name in ("_cmd_laws", "_cmd_paths", "_cmd_verify_retraction", "_cmd_oracle"):
        monkeypatch.setattr(cli, name, forbidden)
    assert run_cli([a.format(topo=topo_file) for a in argv]) == 2


PARSER_SEQUENCE = [
    ["cylinder", "--topology", "{topo}", "--open", "T1"],
    ["cylinder", "--topology", "{topo}"],
    ["laws", "--sweeps", "5", "--seed", "3", "--topology", "{topo}"],
    ["laws"],
    ["verify-retraction", "--topology", "{topo}", "--emit", "certs.json", "--sweeps", "7"],
    ["verify-retraction", "--topology", "{topo}", "--replay", "certs.json"],
    ["counterexample", "--elements", "a,b"],
    ["counterexample"],
    ["paths", "--grid-step", "1/8", "--sweeps", "2"],
    ["oracle", "--resolution", "8"],
    ["paths"],
    ["decide-complement", "--topology", "{topo}", "--f", "T2", "--g", "T3"],
    ["oracle"],
]


def test_one_parser_serves_every_call(capsys, topo_file):
    """The parser is built once per process; each parse must give what a
    freshly built parser gives, whatever the calls before it set."""
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for argv in PARSER_SEQUENCE:
        argv = [a.format(topo=topo_file) for a in argv]
        fresh = cli.build_parser.__wrapped__()
        assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv)), argv
    # the same through main: an --open given once is not remembered
    code, one = run(capsys, "cylinder", "--topology", topo_file, "--open", "T1")
    assert code == 0 and list(one) == ["T1"]
    code, every = run(capsys, "cylinder", "--topology", topo_file)
    assert code == 0 and list(every) == ["T0", "T1", "T2", "T3"]
    code, report = run(capsys, "counterexample", "--elements", "a,b")
    code, default = run(capsys, "counterexample")
    assert report != default
    assert main(["--help"]) == 0
    assert main(["cylinder", "--help"]) == 0
    capsys.readouterr()
    assert run_cli(["validate", "--topology", topo_file]) == 0
    assert run_cli(["validate", "--topology", topo_file, "--bogus"]) == 2
    assert run_cli(["laws", "--sweeps", "0"]) == 2
    assert run_cli(["validate"]) == 2
    assert run_cli(["validate", "--topology", topo_file]) == 0


@pytest.mark.parametrize("values", [(False, True), (0, 0.5)])
def test_json_booleans_and_floats_are_not_rationals(tmp_path, values):
    path = write_topology(tmp_path, {
        "ground_set": ["a"],
        "opens": [{"name": f"T{i}", "values": {"a": v}} for i, v in enumerate(values)]})
    assert run_cli(["validate", "--topology", path]) == 2
    assert run_cli(["cylinder", "--topology", path]) == 2


# Rationals outside the "p/q" or "p" grammar that int() reads part by
# part, each written so that it has the value of the rational it replaces.
OFF_GRAMMAR = {
    "plus": lambda v: "+" + v,
    "underscore": lambda v: "{}_0/{}0".format(*(v.split("/") + ["1"])[:2]),
    "blanks": lambda v: " / ".join((v.split("/") + ["1"])[:2]),
    "arabic-indic": lambda v: v.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}


@pytest.mark.parametrize("spell", list(OFF_GRAMMAR))
def test_rationals_outside_the_grammar_exit_2(tmp_path, spell):
    spelled = OFF_GRAMMAR[spell]
    doc = json.loads(json.dumps(TOPO))
    doc["opens"][2]["values"]["a"] = spelled("1/3")
    assert run_cli(["validate", "--topology", write_topology(tmp_path, doc)]) == 2
    topo = write_topology(tmp_path, TOPO)
    cert = tmp_path / "certs.json"
    forged = json.loads(OLD_TOPO.read_text())
    interval = next(fib for fib in forged[3]["region"]["fibers"].values() if fib)[0]
    interval["lo"] = spelled(interval["lo"])
    cert.write_text(json.dumps(forged))
    assert run_cli(["verify-retraction", "--topology", topo, "--replay", str(cert)]) == 2
    assert run_cli(["paths", "--sweeps", "1", "--grid-step", spelled("1/8")]) == 2


# SHA-256 of the stdout of each README subcommand at small fixed flags, and
# of the certificate file the --emit run writes. For a fixed seed the CLI's
# output is part of its contract, so a refactor must leave every digest as
# it is; the same digests hold under Python 3.10 and 3.11.
GOLDEN = [
    (["laws", "--sweeps", "10", "--seed", "7"],
     "edc3b1a88851d8e28b1e92e06e33297b6bc0efe70c27c1701f6b8eba2d693b2a"),
    (["paths", "--sweeps", "10", "--seed", "7"],
     "c0e5594bc1330c60cd498bfedffc3cb308f203023f945c80151d162db83a6bb3"),
    (["oracle", "--sweeps", "8", "--seed", "7"],
     "87b5708751cbae1e6796a3df10081750d2e7b9a5d5b1ff98224ed2cdc257539a"),
    (["verify-retraction", "--topology", "{topo}", "--sweeps", "30", "--seed", "3",
      "--emit", "{cert}"],
     "c7385a767f873adc33ffdf80f00cae235cbd4936062faf974d84aa8dfa166a1c"),
    (["verify-retraction", "--topology", "{topo}", "--replay", "{cert}"],
     "10c90d8ad93dd856f5ec8c1bfde9fe1a579e0aa944aa1e417b7f7bafae9c19ad"),
    (["validate", "--topology", "{topo}"],
     "f7ccf510f83e79e9a3bd25f28ba6e8a26a50681c9ace2536f80026eb26fff2f5"),
    (["cylinder", "--topology", "{topo}"],
     "af9de14d730b356db1dcbed621d26af485759eb7258dd9728cdc1f4de77ddcde"),
    (["counterexample"],
     "ee51ca05a583ed3ce216dfe71e610bd936eaa0b7893b040a419b50ff7004fc1a"),
    (["connectivity", "--topology", "{topo}"],
     "8aae1a04e6cc0b9f9d1c9268e4eeae5c74e23c9e5105647ab9e2f7a3085a1753"),
    (["decide-complement", "--topology", "{topo}", "--f", "T2", "--g", "T3"],
     "1ed5819b4a86b413d2c62ee514d9a7cd528f4b028c8b33f5cb7a02bd0a18ba09"),
]
GOLDEN_CERT = "76eb9f8d17a181f68e72d8e4dcbd0a39a80c09f99affe8a8aa2e7003edb8c62b"


def golden_digests(capsys, rows, topo_file, cert):
    """The sha256 of the stdout of each of ``rows``, run in order."""
    digests = []
    for argv, _ in rows:
        argv = [a.format(topo=topo_file, cert=cert) for a in argv]
        assert main(argv) == 0, argv
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return digests


def test_stdout_and_certificates_byte_identical(capsys, tmp_path, topo_file):
    cert = tmp_path / "certs.json"
    assert golden_digests(capsys, GOLDEN, topo_file, cert) == \
        [digest for _, digest in GOLDEN]
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN_CERT


def test_no_command_but_oracle_consults_the_oracle(capsys, tmp_path, topo_file,
                                                   monkeypatch):
    """Every GOLDEN row but ``oracle`` prints the same bytes, and the emit
    writes the same certificates, with each function of ``fuzzcyl.oracle``
    replaced by one that raises, in every loaded module that holds it."""
    def consulted(*args, **kwargs):
        raise AssertionError("the grid oracle was consulted")

    for module in [m for name, m in sys.modules.items() if name.startswith("fuzzcyl.")]:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == "fuzzcyl.oracle":
                monkeypatch.setattr(module, name, consulted)
    rows = [row for row in GOLDEN if row[0][0] != "oracle"]
    cert = tmp_path / "certs.json"
    assert golden_digests(capsys, rows, topo_file, cert) == [digest for _, digest in rows]
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN_CERT


# Mutation fuzzing of the CLI's file inputs (see jsonfuzz). Each example
# starts from a valid topology document, an emitted certificate file or the
# old TOPO certificate file (so that region fibers are fuzzed too),
# replaces one field (or the whole document) with an arbitrary JSON value,
# and runs the CLI in-process. Whatever the value, the CLI must exit 0, 1
# or 2 without an exception, and exit 2 must come with exactly one error:
# line.

JSON = json_values("a", "b", "T0", "T2", "tstar", "pi2")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def emitted(workdir):
    """A topology file, and the certificate document emitted for it with the
    document of the old TOPO file."""
    topo = workdir / "topo.json"
    topo.write_text(json.dumps(TOPO))
    cert = workdir / "certs.json"
    assert run_cli(["verify-retraction", "--topology", str(topo), "--sweeps", "6",
                    "--seed", "4", "--emit", str(cert)]) == 0
    return str(topo), [json.loads(cert.read_text()), json.loads(OLD_TOPO.read_text())]


@FUZZ
@given(path=st.sampled_from(list(field_paths(TOPO))), value=JSON)
def test_mutated_topology_never_escapes(workdir, path, value):
    topo = workdir / "mutated-topo.json"
    topo.write_text(json.dumps(replaced(TOPO, path, value)))
    run_cli(["validate", "--topology", str(topo)])
    run_cli(["cylinder", "--topology", str(topo)])


@FUZZ
@given(data=st.data(), value=JSON)
def test_mutated_certificate_never_escapes(workdir, emitted, data, value):
    topo, documents = emitted
    certs = data.draw(st.sampled_from(documents), label="document")
    path = data.draw(st.sampled_from(list(field_paths(certs))), label="path")
    cert = workdir / "mutated-certs.json"
    cert.write_text(json.dumps(replaced(certs, path, value)))
    run_cli(["verify-retraction", "--topology", topo, "--replay", str(cert)])

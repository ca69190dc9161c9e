import json

import pytest

from chardeg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_degrees(capsys):
    code, out = run_cli(capsys, "graph", "--degrees", "1,6,15")
    assert code == 0
    data = json.loads(out)
    assert data["analysis"]["articulation_points"] == [3]


def test_graph_family(capsys):
    code, out = run_cli(capsys, "graph", "--family", "psl2", "--q", "13")
    assert code == 0
    data = json.loads(out)
    assert sorted(map(sorted, data["analysis"]["components"])) == [[2, 3, 7], [13]]


def test_byte_identical_reruns(capsys):
    _, out1 = run_cli(capsys, "graph", "--family", "sl2", "--q", "9")
    _, out2 = run_cli(capsys, "graph", "--family", "sl2", "--q", "9")
    assert out1 == out2


def test_group_command(capsys):
    code, out = run_cli(capsys, "group", "--group", "sl2:7")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 336 == data["expected_order"]


def test_module_catalog_and_orbits(tmp_path, capsys):
    code, out = run_cli(
        capsys, "module", "catalog", "--group", "sl2:4", "--char", "3", "--cap", "8"
    )
    assert code == 0
    data = json.loads(out)
    assert [e["dim"] for e in data["entries"]] == [1, 4, 6]

    mod_file = tmp_path / "m.json"
    code, _ = run_cli(
        capsys,
        "module", "select", "--group", "sl2:4", "--char", "3", "--cap", "8",
        "--dim", "4", "--out", str(mod_file),
    )
    assert code == 0
    code, out = run_cli(
        capsys, "orbits", "classify", "--module", str(mod_file), "--r", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["space_order"] == 81
    assert sum(o["size"] for o in report["orbits"]) == 81


def test_extension_command(tmp_path, capsys):
    nat = tmp_path / "nat.json"
    code, _ = run_cli(capsys, "module", "natural", "--group", "sl2:5", "--out", str(nat))
    assert code == 0
    code, out = run_cli(capsys, "extension", "--group", "sl2:5", "--module", str(nat))
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [1, 2, 3, 4, 5, 6, 24]
    assert sorted(map(sorted, data["analysis"]["components"])) == [[2, 3], [5]]


@pytest.mark.parametrize("command", ["extension", "orbits"])
def test_group_override_refuses_a_module_of_another_group(tmp_path, capsys, command):
    """--group sl2:7 with a module written for sl2:5 is refused (exit 2)
    before the module's images are read against the wrong generators."""
    nat = tmp_path / "nat5.json"
    assert run_cli(capsys, "module", "natural", "--group", "sl2:5", "--out", str(nat))[0] == 0
    argv = {"extension": ["extension"], "orbits": ["orbits", "decompose"]}[command]
    assert main([*argv, "--group", "sl2:7", "--module", str(nat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the module was built for another group than the one given\n"
    assert main([*argv, "--group", "sl2:5", "--module", str(nat)]) == 0


def _drop(key):
    def edit(data):
        del data[key]

    return edit


def _set_entry(value):
    def edit(data):
        image = data["gen_images"][0]
        image[image.index(1)] = value

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_entry(6), "outside [0, 5)"),
        (_set_entry(-4), "outside [0, 5)"),
        (lambda data: data["gen_images"][0].pop(), "needs 4 entries, not 3"),
        (_set_entry(1.7), "flat list of integers"),
        (_set_entry("1"), "flat list of integers"),
        (_drop("dim"), "malformed module data (KeyError: 'dim')"),
        (_drop("field"), "malformed module data (KeyError: 'field')"),
        (_drop("gen_images"), "malformed module data (KeyError: 'gen_images')"),
        (lambda data: data.update(dim="2"), "dim must be a positive integer"),
        (lambda data: data["field"].pop("k"), "malformed module data (KeyError: 'k')"),
        (lambda data: data["field"].update(p="x"), "p and k must be JSON integers"),
        (lambda data: data["field"].update(p=5.0), "p and k must be JSON integers"),
        (lambda data: data["field"].update(p=2.5), "p and k must be JSON integers"),
        (lambda data: data["field"].update(k="1"), "p and k must be JSON integers"),
        (lambda data: data["field"].update(k=10**30), "exceeds the cap"),
        (lambda data: data["field"].update(modulus=[0, 1.0]), "modulus must be a list of JSON integers"),
        (lambda data: data["field"].update(modulus="x"), "modulus must be a list of JSON integers"),
        ("{not json", "is not JSON"),
        ("[1, 2]", "malformed module data (TypeError: "),
    ],
    ids=[
        "entry-6",
        "entry-minus-4",
        "image-one-short",
        "entry-float",
        "entry-string",
        "no-dim",
        "no-field",
        "no-gen-images",
        "dim-string",
        "field-no-k",
        "field-p-string",
        "field-p-float",
        "field-p-fraction",
        "field-k-string",
        "field-k-huge",
        "field-modulus-float",
        "field-modulus-string",
        "not-json",
        "json-list",
    ],
)
def test_malformed_module_file_is_a_module_error(tmp_path, capsys, edit, message):
    """A module file edited by hand: an entry that only agrees with a valid
    one mod 5 or after int(), an image a value short, a missing key, a field
    entry that is not a JSON integer, or a file that is not a JSON object, is
    refused as a ModuleError or FieldError (exit 2)."""
    nat = tmp_path / "nat.json"
    assert run_cli(capsys, "module", "natural", "--group", "sl2:5", "--out", str(nat))[0] == 0
    bad = tmp_path / "bad.json"
    if isinstance(edit, str):
        bad.write_text(edit)
    else:
        data = json.loads(nat.read_text())
        edit(data)
        bad.write_text(json.dumps(data))
    for argv in (["orbits", "decompose", "--module", str(bad)], ["extension", "--group", "sl2:5", "--module", str(bad)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def _set_generators(edit):
    def apply(data):
        edit(data["group"]["generators"])

    return apply


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_generators(lambda gens: gens.__setitem__(slice(None), [[1, 2, 3]])), "4-entry integer lists"),
        (_set_generators(lambda gens: gens.clear()), "non-empty list"),
        (_set_generators(lambda gens: gens[0].__setitem__(1, 1.0)), "4-entry integer lists"),
        (_set_generators(lambda gens: gens[0].__setitem__(1, 5)), "entry outside [0, 5)"),
        (_set_generators(lambda gens: gens[0].__setitem__(1, -4)), "entry outside [0, 5)"),
        (_set_generators(lambda gens: gens[0].__setitem__(2, 1)), "[1, 1, 1, 1] does not have determinant 1"),
        (_set_generators(lambda gens: gens.__setitem__(0, [2, 0, 0, 2])), "[2, 0, 0, 2] does not have determinant 1"),
    ],
    ids=["three-entries", "no-generators", "entry-float", "entry-5", "entry-minus-4", "det-0", "det-4"],
)
def test_malformed_group_generators_are_a_group_error(tmp_path, capsys, edit, message):
    """A module file whose stored group has a generator of the wrong shape,
    an entry outside the field or a determinant other than 1 is refused
    as a GroupError (exit 2) when the group is read from the file."""
    nat = tmp_path / "nat.json"
    assert run_cli(capsys, "module", "natural", "--group", "sl2:5", "--out", str(nat))[0] == 0
    data = json.loads(nat.read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["orbits", "decompose", "--module", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_a_group_over_a_field_above_the_cap_is_a_group_error(tmp_path, capsys):
    """A module file whose group lies over F_53, past the enumeration bound
    of 49, is refused as a GroupError (exit 2) instead of being enumerated."""
    trivial = {
        "group": {"field": {"p": 53, "k": 1, "modulus": [0, 1]}, "generators": [[1, 1, 0, 1]]},
        "field": {"p": 2, "k": 1, "modulus": [0, 1]},
        "dim": 1,
        "gen_images": [[1]],
    }
    path = tmp_path / "f53.json"
    path.write_text(json.dumps(trivial))
    assert main(["orbits", "decompose", "--module", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: groups are enumerated over fields of order <= 49, got 53\n"


def test_module_select_index_out_of_range_is_a_module_error(capsys):
    """The sl2:4/F3 catalog below dim 8 has one 4-dim entry: --index 0 picks
    it, while 1 and -1 are refused (exit 2) instead of raising or picking
    from the end."""
    argv = ["module", "select", "--group", "sl2:4", "--char", "3", "--cap", "8", "--dim", "4"]
    assert run_cli(capsys, *argv, "--index", "0")[0] == 0
    for index in ("1", "-1"):
        assert main([*argv, "--index", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --index {index} is outside [0, 1) for this selection\n"


def test_extension_command_with_non_abelian_stabilizers(tmp_path, capsys):
    """The 4-dim F2 module of SL2(5) with ell = 2 has stabilizers Q8, outside
    any fixed table; their degrees are computed."""
    mod = tmp_path / "m.json"
    code, _ = run_cli(
        capsys,
        "module", "select", "--group", "sl2:5", "--char", "2", "--cap", "8",
        "--dim", "4", "--ell", "2", "--out", str(mod),
    )
    assert code == 0
    code, out = run_cli(capsys, "extension", "--group", "sl2:5", "--module", str(mod))
    assert code == 0
    assert json.loads(out)["degrees"] == [1, 2, 3, 4, 5, 6, 15, 30]


def test_classify_command(capsys):
    code, out = run_cli(capsys, "classify", "--case", "c", "--q", "13", "--p", "2", "--vgk", "2")
    assert code == 0
    data = json.loads(out)
    assert data["analysis"]["articulation_points"] == [2]
    assert data["violations"] == []


def test_classify_ledger_command(capsys):
    code, out = run_cli(capsys, "classify", "--ledger", "f2-order5")
    assert code == 0
    assert json.loads(out)["failing"] == [[9, 4], [9, 8], [11, 5], [19, 9]]


def test_usage_error_exit_code(capsys):
    assert main(["graph"]) == 2
    assert main(["nonsense"]) == 2


def test_cap_exit_code(capsys):
    assert main(["group", "--group", "sl2:97"]) == 3


def test_verify_single_suite(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--suite", "ledgers", "--out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["failed"] == 0
    assert report["passed"] == len(report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_verify_out_is_byte_identical_outside_timings(capsys, tmp_path):
    """Two identical runs write the same report once the wall-clock block is
    set aside, and that block holds one time per check."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "--suite", "ledgers", "--out", str(path)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    names = [c["name"] for c in ra["checks"]]
    for report in (ra, rb):
        assert sorted(report.pop("timings")["elapsed_s"]) == names
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert all(set(c) == {"name", "suite", "status", "expected", "observed"} for c in ra["checks"])


def test_catalog_build_times_sit_in_the_timings_block():
    """The harness times each catalog build once, apart from its group, and
    the report carries those times inside "timings" only."""
    import chardeg.verify as verify

    h = verify.Harness(seed=42)
    results = verify.run_checks("ledgers", h)
    assert verify.report_json(results, h.catalog_seconds)["timings"]["catalog_build_s"] == {}
    first = h.catalog(4, 2)
    assert h.catalog(4, 2) is first and h.catalog(5, 2) is not first
    assert list(h.catalog_seconds) == ["sl2:4/F2", "sl2:5/F2"]
    assert all(t > 0 for t in h.catalog_seconds.values())
    report = verify.report_json(results, h.catalog_seconds)
    assert report["timings"]["catalog_build_s"] == {k: round(v, 3) for k, v in h.catalog_seconds.items()}
    assert "sl2:4/F2" not in json.dumps({k: v for k, v in report.items() if k != "timings"})


@pytest.mark.parametrize(
    "argv,message",
    [
        (["graph", "--family", "sl2", "--q", "6"], "argument --q: q must be a prime power"),
        (["group", "--group", "sl2:6"], "argument --group: q must be a prime power"),
        (["group", "--group", "gl2:5"], "argument --group: a group spec looks like sl2:13"),
        (["classify", "--case", "a", "--q", "6", "--p", "7"], "argument --q: q must be a prime power"),
        (["classify", "--case", "c", "--q", "13", "--p", "2", "--vgk", "a"], "argument --vgk: a comma-separated list of primes"),
        (["classify", "--case", "a", "--q", "9"], "classify needs --ledger, or --case with --q and --p"),
        (["classify", "--case", "a", "--q", "9", "--p", "4"], "argument --p: a prime is needed"),
        (["orbits", "classify", "--module", "m.json", "--r", "9"], "argument --r: a prime is needed"),
        (["orbits", "classify", "--module", "m.json", "--s", "x"], "argument --s: a prime is needed"),
        (["group", "--group", "sl2:3"], "argument --group: sl2:q needs q >= 4"),
        (["group", "--group", "sl2:2"], "argument --group: sl2:q needs q >= 4"),
        (["module", "catalog", "--group", "sl2:5", "--char", "3", "--cap", "0"], "argument --cap: a positive integer"),
        (["module", "catalog", "--group", "sl2:5", "--cap", "-3"], "argument --cap: a positive integer"),
        (["classify", "--ledger", "dim-l-q", "--q-max", "-5"], "argument --q-max: a positive integer"),
        (["classify", "--ledger", "dim-l-q", "--q-max", "0"], "argument --q-max: a positive integer"),
        (["classify", "--ledger", "dim-l-q", "--ell-max", "0"], "argument --ell-max: a positive integer"),
    ],
    ids=[
        "graph-q-6",
        "group-sl2-6",
        "group-gl2",
        "classify-q-6",
        "classify-vgk-a",
        "classify-no-p",
        "classify-p-4",
        "orbits-r-9",
        "orbits-s-x",
        "group-sl2-3",
        "group-sl2-2",
        "module-cap-0",
        "module-cap-minus-3",
        "classify-q-max-minus-5",
        "classify-q-max-0",
        "classify-ell-max-0",
    ],
)
def test_bad_arguments_are_a_one_line_usage_error(capsys, argv, message):
    """A bad value or a missing --p ends in exit 2 with one error line on
    stderr, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in captured.err


def test_verify_isolates_a_raising_check(monkeypatch, capsys, tmp_path):
    import chardeg.verify as verify
    from chardeg.groups import CapExceeded

    def raising(h):
        raise CapExceeded("cap hit on purpose")

    def passing(h):
        return 1, 1

    monkeypatch.setattr(verify, "CHECKS", (("a-raises", "groups", raising), ("b-passes", "groups", passing)))
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--out", str(out_file)]) == 1
    report = json.loads(out_file.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["a-raises"]["status"] == "error"
    assert by_name["a-raises"]["observed"] == "CapExceeded: cap hit on purpose"
    assert by_name["b-passes"]["status"] == "pass"
    assert (report["passed"], report["failed"], report["inconclusive"]) == (1, 1, 0)


def test_verify_isolates_a_degree_set_error(monkeypatch, tmp_path):
    """A sum-of-squares guard that fires inside a check ends that check as
    error; the run goes on, writes its report and exits 1."""
    import chardeg.verify as verify
    from chardeg.graphs import DegreeSetError

    def raising(family, q):
        raise DegreeSetError("guard fired on purpose")

    monkeypatch.setattr(verify, "degree_set", raising)
    keep = ("degree-square-identity", "graph-analyzer-oracle")
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c[0] in keep))
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "graphs", "--out", str(out_file)]) == 1
    report = json.loads(out_file.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["degree-square-identity"]["status"] == "error"
    assert by_name["degree-square-identity"]["observed"] == "DegreeSetError: guard fired on purpose"
    assert by_name["graph-analyzer-oracle"]["status"] == "pass"
    assert (report["passed"], report["failed"], report["inconclusive"]) == (1, 1, 0)


@pytest.mark.parametrize("error", ["FieldError", "ModuleError", "ZeroDivisionError", "ValueError"])
def test_run_checks_isolates_field_and_module_errors(monkeypatch, error):
    """Any exception other than an exhausted randomized budget ends its check
    as error, the package's own errors and Python's alike."""
    import chardeg.verify as verify
    from chardeg.fields import FieldError
    from chardeg.modules import ModuleError

    exc = {
        "FieldError": FieldError,
        "ModuleError": ModuleError,
        "ZeroDivisionError": ZeroDivisionError,
        "ValueError": ValueError,
    }[error]

    def raising(h):
        raise exc("raised on purpose")

    def passing(h):
        return 1, 1

    monkeypatch.setattr(verify, "CHECKS", (("a-raises", "modules", raising), ("b-passes", "modules", passing)))
    results = verify.run_checks("all")
    assert [(r.name, r.status) for r in results] == [("a-raises", "error"), ("b-passes", "pass")]
    assert results[0].observed == f"{error}: raised on purpose"


def test_verify_isolates_an_error_outside_the_package(monkeypatch, tmp_path):
    """A check that raises a ZeroDivisionError ends as error; the run goes on,
    writes its report and exits 1."""
    import chardeg.verify as verify

    def raising(family, q):
        return 1 // 0

    monkeypatch.setattr(verify, "degree_set", raising)
    keep = ("degree-square-identity", "graph-analyzer-oracle")
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c[0] in keep))
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "graphs", "--out", str(out_file)]) == 1
    report = json.loads(out_file.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["degree-square-identity"]["status"] == "error"
    assert by_name["degree-square-identity"]["observed"] == "ZeroDivisionError: integer division or modulo by zero"
    assert by_name["graph-analyzer-oracle"]["status"] == "pass"
    assert (report["passed"], report["failed"], report["inconclusive"]) == (1, 1, 0)


def test_run_checks_runs_at_the_harness_seed(monkeypatch):
    """The harness carries the seed: there is no second seed to ignore."""
    import chardeg.verify as verify

    monkeypatch.setattr(verify, "CHECKS", (("seed", "ledgers", lambda h: (7, h.seed)),))
    assert [r.status for r in verify.run_checks("ledgers", verify.Harness(7))] == ["pass"]
    assert [r.observed for r in verify.run_checks("all")] == [42]
    with pytest.raises(TypeError):
        verify.run_checks("all", seed=7)


def test_verify_spent_chop_budget_is_inconclusive(monkeypatch, tmp_path):
    """chop-dimension-conservation leaves InconclusiveError to run_checks, so
    a spent chop budget is reported as inconclusive (exit 3), not fail."""
    import chardeg.verify as verify
    from chardeg.modules import InconclusiveError

    def spent(m, seed=42, certified=None):
        raise InconclusiveError("budget spent on purpose")

    monkeypatch.setattr(verify, "chop", spent)
    monkeypatch.setattr(verify, "CATALOG_SPECS", ((4, 2, 8), (4, 3, 8)))
    monkeypatch.setattr(
        verify, "CHECKS", tuple(c for c in verify.CHECKS if c[0] == "chop-dimension-conservation")
    )
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "modules", "--out", str(out_file)]) == 3
    report = json.loads(out_file.read_text())
    (check,) = report["checks"]
    assert (check["status"], check["observed"]) == ("inconclusive", "budget spent on purpose")
    assert (report["passed"], report["failed"], report["inconclusive"]) == (0, 0, 1)


@pytest.mark.parametrize("other,code", [("fail", 1), ("error", 1), ("pass", 3)])
def test_verify_exit_code_puts_a_failure_before_an_inconclusive_check(monkeypatch, tmp_path, other, code):
    """A failed or erroring check exits 1 even when another check is
    inconclusive; 3 is left for runs whose only non-pass is inconclusive."""
    import chardeg.verify as verify
    from chardeg.modules import InconclusiveError

    def spent(h):
        raise InconclusiveError("budget spent on purpose")

    def stub(h):
        if other == "error":
            raise ValueError("raised on purpose")
        return 1, (1 if other == "pass" else 2)

    monkeypatch.setattr(verify, "CHECKS", (("a-spent", "groups", spent), ("b-other", "groups", stub)))
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--out", str(out_file)]) == code
    report = json.loads(out_file.read_text())
    assert [c["status"] for c in report["checks"]] == ["inconclusive", other]


def test_verify_isolates_a_failed_orbit_stabilizer_identity(monkeypatch, tmp_path):
    import chardeg.orbits as orbits
    import chardeg.verify as verify
    from chardeg.kernels import orbit_stabilizers

    def dropping(*args):
        # the zero vector's stabilizer loses one member
        reps, sizes, members = orbit_stabilizers(*args)
        return reps, sizes, [members[0][:-1], *members[1:]]

    def passing(h):
        return 1, 1

    monkeypatch.setattr(orbits, "orbit_stabilizers", dropping)
    monkeypatch.setattr(
        verify, "CHECKS", (("orbit-sizes", "orbits", verify.check_orbit_sizes), ("z-passes", "orbits", passing))
    )
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "orbits", "--out", str(out_file)]) == 1
    report = json.loads(out_file.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["orbit-sizes"]["status"] == "error"
    assert by_name["orbit-sizes"]["observed"] == "GroupError: orbit-stabilizer identity failed"
    assert by_name["z-passes"]["status"] == "pass"
    assert (report["passed"], report["failed"], report["inconclusive"]) == (1, 1, 0)


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": 9, "family": "psl2"}))
    code, out = run_cli(capsys, "--config", str(conf), "graph")
    assert code == 0
    assert json.loads(out)["graph"]["vertices"] == [2, 3, 5]
    # explicit flags beat the config file
    code, out = run_cli(capsys, "--config", str(conf), "graph", "--q", "13")
    assert code == 0
    assert json.loads(out)["graph"]["vertices"] == [2, 3, 7, 13]


def test_config_file_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    for text, message in (("{bad", "is not JSON"), ("[1, 2]", "must hold a JSON object")):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        assert main(["--config", str(conf), "graph", "--degrees", "1,6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {conf} ")
        assert message in captured.err and captured.err.count("\n") == 1


def test_config_values_go_through_the_flag_converters(tmp_path, capsys, monkeypatch):
    """A config value is converted by its flag's type: a seed of -1 is refused
    exactly as --seed -1 is, and 7 or "7" become the integer 7.  A flag that
    takes no argument accepts only true or false, and null leaves a flag at
    its default."""
    from chardeg.cli import _apply_config, build_parser

    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": -1}))
    assert main(["--config", str(conf), "verify", "--suite", "ledgers"]) == 2
    from_config = capsys.readouterr()
    assert main(["verify", "--suite", "ledgers", "--seed", "-1"]) == 2
    from_flag = capsys.readouterr()
    assert from_config.out == from_flag.out == ""
    assert from_config.err == from_flag.err
    assert "argument --seed: a seed must be a non-negative integer, got '-1'" in from_config.err
    for value in (7, "7"):
        conf.write_text(json.dumps({"seed": value, "q": "13", "family": "psl2"}))
        ap = build_parser()
        args = ap.parse_args(_apply_config(ap, ["--config", str(conf), "verify"]))
        assert args.seed == 7
        ap = build_parser()
        args = ap.parse_args(_apply_config(ap, ["--config", str(conf), "graph"]))
        assert (args.q, args.family) == (13, "psl2")
    # a flag with no converter reads the value as its argument text too:
    # {"out": 7} writes a file named 7, as --out 7 does
    conf.write_text(json.dumps({"out": 7}))
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "--config", str(conf), "graph", "--degrees", "1,6")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "7").read_text())["graph"]["vertices"] == [2, 3]
    # null leaves a flag at its default: stdout for --out, 20 for --cap
    conf.write_text(json.dumps({"out": None, "cap": None}))
    code, out = run_cli(capsys, "--config", str(conf), "graph", "--degrees", "1,6")
    assert code == 0 and json.loads(out)["graph"]["vertices"] == [2, 3]
    ap = build_parser()
    assert ap.parse_args(_apply_config(ap, ["--config", str(conf), "module", "catalog", "--group", "sl2:5"])).cap == 20
    # a flag that takes no argument accepts only true, false or null
    for value in ("no", 1):
        conf.write_text(json.dumps({"faithful": value}))
        assert main(["--config", str(conf), "module", "select", "--group", "sl2:4", "--char", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: config key 'faithful': ")
    conf.write_text(json.dumps({"faithful": False}))
    argv = ["--config", str(conf), "module", "select", "--group", "sl2:4", "--char", "3", "--cap", "8"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["dim"] == 1  # the one non-faithful entry of SL2(4) = A5


def test_config_value_outside_the_choices_is_a_usage_error(tmp_path, capsys):
    """A config value is held to its flag's choices: {"suite": "bogus"} is a
    one-line usage error (exit 2), as --suite bogus is."""
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"suite": "bogus"}))
    assert main(["--config", str(conf), "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key 'suite': invalid choice 'bogus' (choose from 'graphs', ")
    assert captured.err.count("\n") == 1
    conf.write_text(json.dumps({"suite": "ledgers"}))
    assert main(["--config", str(conf), "verify", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "decompose", "--module", "{dir}"],
        ["--config", "{dir}", "graph", "--degrees", "1,6"],
        ["graph", "--degrees", "1,6", "--out", "{dir}"],
    ],
    ids=["module", "config", "out"],
)
def test_directory_path_is_a_usage_error(tmp_path, capsys, argv):
    """A directory where a file is expected is a one-line usage error (exit 2)."""
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["1,x", "1,,6", "1,-6", "0,6", "1.5"])
def test_graph_degrees_must_be_positive_integers(tmp_path, capsys, text):
    """--degrees, from the command line or a config file, is a comma-separated
    list of positive integers; anything else, a config list included, is a
    usage error (exit 2)."""
    message = f"argument --degrees: degrees must be a comma-separated list of positive integers, got {text!r}"
    assert main(["graph", "--degrees", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    conf = tmp_path / "c.json"
    for value, shown in ((text, text), ([1, 6], "[1, 6]")):
        conf.write_text(json.dumps({"degrees": value}))
        assert main(["--config", str(conf), "graph"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"got {shown!r}" in captured.err
    code, out = run_cli(capsys, "graph", "--degrees", "1, 6,15")
    assert code == 0 and json.loads(out)["analysis"]["articulation_points"] == [3]


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("CHARDEG_SEED", "7")
    from chardeg.cli import build_parser

    args = build_parser().parse_args(["verify", "--suite", "ledgers"])
    assert args.seed == 7


@pytest.mark.parametrize("value", ["abc", "-1", "4.5", "\u00b2"])
def test_seed_must_be_a_non_negative_integer(monkeypatch, capsys, value):
    """Through CHARDEG_SEED or --seed, a seed that is not a non-negative
    integer is a usage error (exit 2), not a silent 42 or a traceback."""
    message = f"a seed must be a non-negative integer, got {value!r}"
    monkeypatch.setenv("CHARDEG_SEED", value)
    assert main(["verify", "--suite", "ledgers"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"CHARDEG_SEED: {message}" in captured.err
    monkeypatch.delenv("CHARDEG_SEED")
    for argv in (["verify", "--suite", "graphs"], ["module", "catalog", "--group", "sl2:4", "--char", "3"]):
        assert main([*argv, "--seed", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument --seed: {message}" in captured.err


def test_verify_seed_independent_outcomes(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--suite", "ledgers", "--seed", "7", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "ledgers", "--seed", "42", "--out", str(b)]) == 0
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    outcomes_a = [(c["name"], c["status"]) for c in ra["checks"]]
    outcomes_b = [(c["name"], c["status"]) for c in rb["checks"]]
    assert outcomes_a == outcomes_b
    # the suites whose catalogs, chops and orbit sweeps are seeded
    from chardeg.verify import Harness, run_checks

    for seed in (1, 7):
        h = Harness(seed=seed)
        results = run_checks("modules", harness=h) + run_checks("orbits", harness=h)
        assert {r.suite for r in results} == {"modules", "orbits"}
        assert [(r.name, r.status) for r in results if r.status != "pass"] == [], f"seed {seed}"

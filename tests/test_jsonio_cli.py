import gc
import json
import time
import weakref
from pathlib import Path

import pytest

from edlattice import catalog, cli, ed_solver, jsonio
from edlattice.catalog import build_list_L, parse_catalog_key, trivial_lattice
from edlattice.cli import _oracle_groups, main
from edlattice.ed_solver import min_permutation_rank
from edlattice.group_core import MAX_SUBGROUPS, dihedral8, make_cyclic
from edlattice.int_lattice import MAX_MODULE_DIM
from edlattice.jsonio import (
    group_to_json,
    module_to_json,
    parse_expected_table,
    parse_group,
    parse_module,
    parse_presentation,
    result_to_json,
)


def rt(module):
    return parse_module(module_to_json(module), module.prime)


def test_module_round_trip_preserves_behaviour():
    m = build_list_L("M7", 3).module
    n = rt(m)
    assert n.free_rank == m.free_rank and n.torsion == m.torsion
    for g in m.group.elements():
        assert n.action(g) == m.action(g)


def test_module_json_uses_decimal_strings():
    m = build_list_L("M3", 2).module
    data = module_to_json(m)
    entries = [x for row in data["action"]["1"] for x in row]
    assert all(isinstance(x, str) for x in entries)
    assert data["group"]["type"] == "table"
    # integer entries must be accepted on input too
    data["action"]["1"] = [[int(x) for x in row] for row in data["action"]["1"]]
    n = parse_module(data, 2)
    assert n.action(1) == m.action(1)


def test_torsion_canonicalization():
    data = {
        "group": {"type": "cyclic", "order": 3},
        "free_rank": 0,
        "torsion": [9, 3],
        "action": {"1": [["4", "0"], ["0", "1"]]},
    }
    m = parse_module(data, 3)
    assert list(m.torsion) == [3, 9]
    # the twisted ℤ/9 coordinate moved to slot 1
    assert m.action(1) == [[1, 0], [0, 4]]
    result = min_permutation_rank(m, 3)
    assert (result.min_rank, result.ed) == (4, 4)


def test_parse_group_errors():
    with pytest.raises(ValueError):
        parse_group({})
    with pytest.raises(ValueError):
        parse_group({"type": "beluga"})
    with pytest.raises(ValueError):
        parse_group({"type": "product", "factors": []})
    with pytest.raises(ValueError):
        parse_module({"group": {"type": "cyclic", "order": 2},
                      "free_rank": 1, "torsion": [],
                      "action": {"1": [[True]]}}, 2)


def test_group_round_trip():
    g = parse_group({"type": "product", "factors": [
        {"type": "cyclic", "order": 2}, {"type": "cyclic", "order": 2},
    ]})
    h = parse_group(group_to_json(g))
    assert h.order == 4 and h.cayley == g.cayley


def test_product_of_one_factor_has_that_factor_table():
    d8 = dihedral8()
    g = parse_group({"type": "product", "factors": [group_to_json(d8)]})
    assert (g.order, g.cayley) == (8, d8.cayley)


def test_parse_presentation():
    group, summands, vector = parse_presentation({
        "group": {"type": "cyclic", "order": 9},
        "summands": [[0, 3, 6]],
        "vector": [1, 1, 1],
    })
    assert group.order == 9
    assert [(c.representative, c.index, c.generators) for c in summands] == [((0, 3, 6), 3, (3,))]
    assert vector == [1, 1, 1]


def test_result_serialization_shape():
    m = build_list_L("M3", 3).module
    result = min_permutation_rank(m, 3)
    data = result_to_json(result, {"prime": 3})
    assert data["min_rank"] == 3 and data["ed"] == 1
    cert = data["certificate"]["summands"]
    assert all(set(s) == {"subgroup", "generator"} for s in cert)
    assert all(isinstance(x, str) for s in cert for x in s["generator"])
    # M3 at p=3 is covered by one summand of index 3
    assert data["diagnostics"]["cost_filtration"] == [[3, 1]]
    assert data["diagnostics"]["prime"] == 3


def test_parse_expected_table_shape():
    rows = parse_expected_table({"rows": [
        {"family": "M1", "r_values": [], "rank": 1, "ed": 0},
    ]})
    assert rows == [("M1", (), 1, 0)]
    with pytest.raises((KeyError, ValueError)):
        parse_expected_table({"rows": [{"family": "M1"}]})


# --- CLI ---------------------------------------------------------------


def test_cli_ed_catalog(capsys):
    assert main(["ed", "--catalog", "M7@p=3"]) == 0
    assert capsys.readouterr().out.strip() == "min_rank=9 ed=3"


def test_cli_ed_json(capsys):
    assert main(["ed", "--catalog", "M3@p=2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["min_rank"] == 2 and data["ed"] == 1
    assert data["certificate"]["summands"]


def test_cli_ed_oracle_agrees(capsys):
    assert main(["ed", "--catalog", "M8@p=2", "--oracle"]) == 0
    assert "min_rank=4 ed=1" in capsys.readouterr().out


def test_cli_ed_oracle_exits_2_past_the_search_cap(capsys):
    # A D8 module of dimension 9 whose oracle search would not end.
    path = Path(__file__).parent / "data" / "d8_dim9_oracle.json"
    start = time.perf_counter()
    assert main(["ed", "--oracle", "--prime", "2", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 10.0
    assert "visited more than" in capsys.readouterr().err


def test_cli_ed_oracle_honors_a_zero_budget(capsys):
    # A rank budget of 0 admits no cover of a nonzero module.
    assert main(["ed", "--catalog", "M7@p=3", "--oracle", "--budget", "0"]) == 2
    assert "no cover within rank budget 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ed", "--catalog", "M7@p=3", "--oracle"],
    ["ed", "--catalog", "M7@p=3"],
    ["genus", "--catalog", "M2@p=2", "--catalog", "M1@p=2"],
    ["verify", "--prime", "2"],
])
def test_cli_refuses_a_negative_budget(capsys, argv):
    start = time.perf_counter()
    assert main(argv + ["--budget", "-1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: --budget must be nonnegative")


def test_cli_ed_refuses_a_budget_without_the_oracle(capsys):
    # Only the oracle reads the budget; the greedy used to ignore it and
    # print min_rank=9 ed=3 with exit 0.
    assert main(["ed", "--catalog", "M7@p=3", "--budget", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget applies only with --oracle\n"


def test_cli_ed_file_requires_prime(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_json(build_list_L("M3", 2).module)))
    assert main(["ed", "--input", str(path)]) == 2
    assert "prime" in capsys.readouterr().err
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 0
    assert capsys.readouterr().out.strip() == "min_rank=2 ed=1"


def test_cli_ed_rejects_both_sources(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{}")
    assert main(["ed", "--input", str(path), "--catalog", "M1@p=2"]) == 2


def test_cli_prime_conflict(capsys):
    assert main(["ed", "--catalog", "M7@p=3", "--prime", "2"]) == 2
    assert "prime" in capsys.readouterr().err


def test_cli_prime_conflict_names_the_prime_not_the_flag(capsys):
    # genus reads the second module at the first one's prime, not at --prime.
    assert main(["genus", "--catalog", "M2@p=2", "--catalog", "M2@p=3"]) == 2
    err = capsys.readouterr().err
    assert "prime 2 conflicts with catalog key 'M2@p=3'" in err
    assert "--prime" not in err
    assert main(["ed", "--prime", "3", "--catalog", "M7@p=5"]) == 2
    assert "prime 3 conflicts with catalog key 'M7@p=5'" in capsys.readouterr().err


def test_cli_table_json(capsys):
    assert main(["table", "--prime", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 12
    by_family = {r["family"]: r for r in rows}
    for fam in ("M10r", "M11r", "M12r"):
        assert by_family[fam]["status"] == "N/A (range empty)"
        assert by_family[fam]["computed"] == []
    m7 = by_family["M7"]
    assert m7["status"] == "ok"
    assert m7["expected"] == {"rank": 2, "ed": 2}
    assert m7["computed"][0]["rank"] == 2 and m7["computed"][0]["ed"] == 2


def test_cli_table_skips_the_r_families_past_max_r(capsys):
    assert main(["table", "--prime", "3", "--max-r", "0", "--json"]) == 0
    by_family = {r["family"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    for fam in catalog.PARAM_FAMILIES:
        assert by_family[fam]["status"] == "skipped"
        assert by_family[fam]["computed"] == []
    assert by_family["M8"]["status"] == "ok"
    assert main(["table", "--prime", "3", "--max-r", "1", "--json"]) == 0
    by_family = {r["family"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    for fam in catalog.PARAM_FAMILIES:
        assert by_family[fam]["status"] == "ok"
        assert [c["r"] for c in by_family[fam]["computed"]] == [1]


def test_cli_table_fails_only_the_family_whose_row_is_altered(capsys, monkeypatch):
    real = catalog.expected_table
    monkeypatch.setattr(catalog, "expected_table", lambda p: [
        (fam, r_values, rank, ed + (fam == "M9r")) for fam, r_values, rank, ed in real(p)])
    assert main(["table", "--prime", "3", "--json"]) == 3
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {r["family"] for r in rows if r["status"] == "FAIL"} == {"M9r"}
    assert all(r["status"] == "ok" for r in rows if r["family"] != "M9r")


def test_cli_table_holds_about_one_entry_module_at_a_time(monkeypatch):
    # table streams the catalog: when an entry is solved, at most it and
    # the entry before it (still bound in the caller's loop) are alive,
    # besides the modules that every entry at the prime shares.
    p = 7
    _, zg, zh = catalog._cyclic_bases(p)
    shared = {id(zg), id(zh), id(catalog._regular_plus_coset(p))}
    modules = []
    alive_at_solve = []
    build, solve = catalog.build_list_L, cli.min_permutation_rank

    def building(*args):
        entry = build(*args)
        modules.append(weakref.ref(entry.module))
        return entry

    def solving(module, prime):
        gc.collect()
        alive_at_solve.append(sum(ref() is not None and id(ref()) not in shared
                                  for ref in modules))
        return solve(module, prime)

    monkeypatch.setattr(catalog, "build_list_L", building)
    monkeypatch.setattr(cli, "min_permutation_rank", solving)
    rows = cli._table_rows(p, None)
    assert all(row["status"] == "ok" for row in rows)
    assert len(alive_at_solve) == len(modules) == 29
    assert max(alive_at_solve) <= 2


def test_cli_table_text(capsys):
    assert main(["table", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "M9r" in out and "ok" in out
    assert "N/A (range empty)" not in out  # every family is populated at p=3


def test_cli_table_deterministic(capsys):
    main(["table", "--prime", "3", "--json"])
    first = capsys.readouterr().out
    main(["table", "--prime", "3", "--json"])
    assert capsys.readouterr().out == first


def test_cli_catalog_listing(capsys):
    assert main(["catalog", "--prime", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("M1@p=2 ")


def test_cli_genus(tmp_path, capsys):
    entry = parse_catalog_key("M2@p=2")
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(module_to_json(entry.module)))
    code = main(["genus", "--catalog", "M2@p=2", "--input", str(path),
                 "--prime", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "genus_equal=yes"
    code = main(["genus", "--catalog", "M2@p=2", "--catalog", "M1@p=2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "genus_equal=no"


def test_cli_genus_keeps_the_order_of_catalog_and_input(capsys):
    # The catalog key comes first and fixes the prime the file is read at;
    # taking the file first would ask for --prime.
    data = Path(__file__).parent / "data" / "c16_regular_random_basis.json"
    code = main(["genus", "--catalog", "perm@p=2,n=16,indices=16", "--input", str(data)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "genus_equal=yes"


def test_cli_genus_honors_a_zero_budget(capsys):
    # A budget of 0 forbids the exhaustive pass, which alone can answer no.
    argv = ["genus", "--catalog", "M2@p=2", "--catalog", "perm@p=2,n=4,indices=1+1"]
    assert main(argv + ["--budget", "0"]) == 0
    assert capsys.readouterr().out.strip() == "genus_equal=unknown"
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "genus_equal=no"


def test_cli_genus_rejects_oversized_hom_system_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the Hom system was built")

    # If the cap were bypassed, this raises (exit 3) instead of allocating.
    monkeypatch.setattr(ed_solver, "hom_module", refuse)
    key = "perm@p=2,n=64,indices=64"  # rank 64: 4,096 unknowns
    start = time.perf_counter()
    assert main(["genus", "--catalog", key, "--catalog", key]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: genus comparison") and str(ed_solver.MAX_HOM_UNKNOWNS) in err


def test_cli_genus_needs_two_modules(capsys):
    assert main(["genus", "--catalog", "M1@p=2"]) == 2


def test_cli_classify(capsys):
    # README's presentation file.
    path = Path(__file__).parent / "data" / "c9_presentation.json"
    assert json.loads(path.read_text()) == {
        "group": {"type": "cyclic", "order": 9},
        "summands": [[0, 3, 6]],
        "vector": [1, 1, 1],
    }
    assert main(["classify", "--input", str(path), "--prime", "3"]) == 0
    assert capsys.readouterr().out.strip() == "ed=1"


@pytest.mark.parametrize("name,prime,code,out", [
    ("c9_presentation", "9", 2, ""),
    # (0, 1, 2) is not normal in H27; a one-point orbit with a unit
    # coefficient brings the value down to 0.
    ("h27_presentation", "3", 0, "ed=1"),
    ("h27_presentation_with_fixed_point", "3", 0, "ed=0"),
])
def test_cli_classify_committed_presentations(capsys, name, prime, code, out):
    path = Path(__file__).parent / "data" / f"{name}.json"
    assert main(["classify", "--input", str(path), "--prime", prime]) == code
    assert capsys.readouterr().out.strip() == out


def test_cli_verify_passes(capsys):
    assert main(["verify", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    assert "table:" in out and "oracle:" in out


def test_verify_oracle_covers_nonabelian_groups():
    assert {"D8", "Q8"} <= {g.name for g in _oracle_groups(2) if not g.is_abelian()}
    assert "H27" in {g.name for g in _oracle_groups(3) if not g.is_abelian()}


def test_cli_verify_passes_at_p3(capsys):
    assert main(["verify", "--prime", "3", "--max-r", "1"]) == 0
    out = capsys.readouterr().out
    assert "oracle: 25/25 modules OK" in out


@pytest.mark.parametrize("p, totals", [
    (2, [9, 36, 9, 1, 3, 25]),
    (3, [13, 78, 13, 5, 7, 25]),
])
def test_cli_verify_json_pins_every_section(capsys, p, totals):
    assert main(["verify", "--prime", str(p), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert [(s["name"], s["ok"], s["total"]) for s in report["sections"]] == [
        (name, total, total) for name, total in
        zip(["table", "additivity", "genus", "fixed-image", "rank-C", "oracle"], totals)]


def test_cli_verify_table_section_drops_by_the_altered_family(tmp_path, capsys):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"rows": [
        {"family": fam, "r_values": list(r_values), "rank": rank, "ed": ed + (fam == "M9r")}
        for fam, r_values, rank, ed in catalog.expected_table(3)]}))
    assert main(["verify", "--prime", "3", "--expected", str(path), "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    sections = {s["name"]: (s["ok"], s["total"]) for s in report["sections"]}
    assert sections.pop("table") == (13 - len(catalog.admissible_r("M9r", 3)), 13)
    assert all(ok == total for ok, total in sections.values())


def test_cli_verify_detects_bad_expectations(tmp_path, capsys):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"rows": [
        {"family": "M1", "r_values": [], "rank": 1, "ed": 1},
    ]}))
    assert main(["verify", "--prime", "2", "--expected", str(path)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_rejects_non_homomorphism(tmp_path, capsys):
    # non-commuting involutions cannot act through the abelian C2 x C2
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "group": {"type": "product", "factors": [{"type": "cyclic", "order": 2},
                                                 {"type": "cyclic", "order": 2}]},
        "free_rank": 2,
        "action": {"1": [[0, 1], [1, 0]], "2": [[1, 0], [0, -1]]},
    }))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    assert "not a group homomorphism" in capsys.readouterr().err


def test_cli_rejects_action_keys_that_do_not_generate_the_group(tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "order": 4}, "free_rank": 1, "action": {"2": [[1]]},
    }))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "do not generate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("action", [
    None,  # tests/data/duplicate_action_key.json: "1" then "01"
    '{"01": [["1"]], "1": [["-1"]]}',
    '{"1": [["-1"]], "1": [["1"]]}',
], ids=["1-then-01", "01-then-1", "1-twice"])
def test_cli_refuses_an_action_that_names_one_element_twice(tmp_path, capsys, action):
    # "1" and "01" both name the generator of C2.  The last matrix used to
    # win, so one key order solved the trivial action (min_rank=1 ed=0) and
    # the other the sign action (min_rank=2 ed=1).
    path = Path(__file__).parent / "data" / "duplicate_action_key.json"
    if action is not None:
        path = tmp_path / "module.json"
        path.write_text('{"group": {"type": "cyclic", "order": 2}, "free_rank": 1, '
                        f'"action": {action}}}')
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "twice" in captured.err and "Traceback" not in captured.err


def test_cli_trivial_group_takes_an_empty_action(tmp_path, capsys):
    # The trivial group has no generators, so its action has no matrix.
    assert module_to_json(trivial_lattice(make_cyclic(1), 2, 2))["action"] == {}
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "order": 1}, "free_rank": 2, "action": {},
    }))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 0
    assert capsys.readouterr().out.strip() == "min_rank=2 ed=0"


def test_cli_rejects_an_empty_action_of_a_nontrivial_group(tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "order": 4}, "free_rank": 1, "action": {},
    }))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "do not generate" in err
    assert "Traceback" not in err


def test_cli_refuses_a_group_past_the_subgroup_cap(tmp_path, capsys):
    # C2^8 passes the group-order cap but has 417,199 subgroups; the
    # enumeration stops at MAX_SUBGROUPS instead of running for minutes.
    group = parse_group({"type": "product", "factors": [{"type": "cyclic", "order": 2}] * 8})
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(trivial_lattice(group, 2))))
    start = time.perf_counter()
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"more than {MAX_SUBGROUPS} subgroups" in err
    assert "Traceback" not in err


def test_cli_ed_huge_prime_is_fast(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "order": 1}, "free_rank": 1, "action": {"0": [[1]]},
    }))
    assert main(["ed", "--input", str(path), "--prime", "1000000000000000003"]) == 0
    assert capsys.readouterr().out.strip() == "min_rank=1 ed=0"


def test_cli_ed_long_torsion_modulus_is_fast(capsys):
    # Z/3^200000: the p-power test of the modulus took 17 s with one
    # division per factor of 3.
    start = time.perf_counter()
    assert main(["ed", "--catalog", "cyclic@p=3,n=200000,a=1"]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.strip() == "min_rank=1 ed=1"


def test_cli_invalid_input_is_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    assert main(["ed", "--catalog", "M99@p=2"]) == 2
    assert main(["ed", "--catalog", "M1@p=6"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("group", [
    {"type": "cyclic", "order": 100000},
    {"type": "product", "factors": [{"type": "cyclic", "order": 64}] * 2},
    # a zero-order factor must not hide an oversized one
    {"type": "product", "factors": [{"type": "cyclic", "order": 100000},
                                    {"type": "cyclic", "order": 0}]},
])
def test_cli_rejects_oversized_group_before_building(tmp_path, capsys, monkeypatch, group):
    def refuse(*args):
        raise AssertionError("a group table was built")

    # If the cap were bypassed, these raise instead of allocating.
    monkeypatch.setattr(jsonio, "make_cyclic", refuse)
    monkeypatch.setattr(jsonio, "direct_product", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"group": group, "free_rank": 1, "action": {"1": [[1]]}}))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: group order") and str(jsonio.MAX_GROUP_ORDER) in err


@pytest.mark.parametrize("argv", [
    ["ed", "--catalog", "perm@p=2,n=100000,indices=1"],
    ["ed", "--catalog", "norm_one@p=2,n=100000,indices=1"],
    ["ed", "--catalog", "M1@p=53"],  # C_{p^2} has order 2809
    ["ed", "--catalog", "M12r@p=47,r=1"],
    ["table", "--prime", "53"],
    ["ed", "--catalog", "cyclic@p=2,n=200,a=3"],  # 3 has order 2^198 mod 2^200
    ["ed", "--catalog", "cyclic@p=2,n=14,a=3"],  # order 4096
    ["ed", "--catalog", "cyclic@p=3,n=2,a=2"],  # order 6, not a power of 3
])
def test_cli_rejects_oversized_catalog_group_before_building(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a group table was built")

    monkeypatch.setattr(catalog, "make_cyclic", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(jsonio.MAX_GROUP_ORDER) in err


@pytest.mark.parametrize("free_rank, torsion", [
    (MAX_MODULE_DIM + 1, []),
    (0, [2] * (MAX_MODULE_DIM + 1)),
    (MAX_MODULE_DIM, [4]),
    (10 ** 30, []),
])
def test_cli_rejects_oversized_module_before_building(tmp_path, capsys, monkeypatch,
                                                       free_rank, torsion):
    def refuse(*args):
        raise AssertionError("a module was built")

    monkeypatch.setattr(jsonio, "GaloisModule", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"group": {"type": "cyclic", "order": 2}, "free_rank": free_rank,
                                "torsion": torsion, "action": {"1": [[1]]}}))
    assert main(["ed", "--input", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module dimension") and str(MAX_MODULE_DIM) in err


@pytest.mark.parametrize("key", [
    f"perm@p=2,n=512,indices={MAX_MODULE_DIM * 2}",
    "perm@p=2,n=2,indices=" + "+".join(["2"] * (MAX_MODULE_DIM // 2 + 1)),
    f"norm_one@p=2,n=1024,indices={MAX_MODULE_DIM + 1}",
])
def test_cli_rejects_oversized_catalog_module_before_building(capsys, monkeypatch, key):
    def refuse(*args):
        raise AssertionError("a group table was built")

    monkeypatch.setattr(catalog, "make_cyclic", refuse)
    assert main(["ed", "--catalog", key]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module dimension") and str(MAX_MODULE_DIM) in err


def test_module_dimension_cap_admits_the_p13_catalog():
    # M9r..M12r are quotients of Z[G] + Z[G/H], of dimension p^2 + p.
    assert 13 * 13 + 13 <= MAX_MODULE_DIM
    m = parse_catalog_key(f"perm@p=2,n=4,indices={'+'.join(['4'] * (MAX_MODULE_DIM // 4))}")
    assert m.module.dim == MAX_MODULE_DIM


@pytest.mark.parametrize("message, shown", [
    ("the trivial class alone spans W", "the trivial class alone spans W"),
    ("", "assertion without message"),
])
def test_cli_internal_check_failure_is_exit_3(monkeypatch, capsys, message, shown):
    def broken(m, p):
        raise AssertionError(message)

    monkeypatch.setattr(cli, "min_permutation_rank", broken)
    assert main(["ed", "--catalog", "M1@p=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {shown}\n"


_C2 = {"type": "cyclic", "order": 2}
_SIGN = {"group": _C2, "free_rank": 1, "action": {"1": [[-1]]}}


@pytest.mark.parametrize("command, data, message", [
    ("verify", {}, "expected table is missing 'rows'"),
    ("verify", {"rows": [{"family": "M1", "rank": 1}]}, "expected table row 0 is missing 'ed'"),
    ("verify", {"rows": [{"rank": 1, "ed": 0}]}, "expected table row 0 is missing 'family'"),
    ("ed", {"free_rank": 1, "action": {"1": [[-1]]}}, "module is missing 'group'"),
    ("ed", {"group": _C2, "free_rank": 1}, "module is missing 'action'"),
    ("ed", dict(_SIGN, group={"type": "cyclic"}), "cyclic group is missing 'order'"),
    ("ed", dict(_SIGN, group={"type": "product"}), "product group is missing 'factors'"),
    ("ed", dict(_SIGN, group={"type": "table"}), "table group is missing 'cayley'"),
    ("classify", {"group": _C2, "summands": [[0, 1]]}, "presentation is missing 'vector'"),
    ("classify", {"summands": [[0]], "vector": [1, 1]}, "presentation is missing 'group'"),
])
def test_cli_names_the_missing_key_and_its_object(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {
        "verify": ["verify", "--prime", "2", "--expected", str(path)],
        "ed": ["ed", "--input", str(path), "--prime", "2"],
        "classify": ["classify", "--input", str(path), "--prime", "3"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"

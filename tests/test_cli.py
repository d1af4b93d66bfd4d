"""Command-line surface: formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linhyp import cli, hgio
from linhyp.catalog import special
from linhyp.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, main
from linhyp.core import hypergraph_isomorphic, onh
from linhyp.algebra import affine_plane, g30, random_linear

from corpus import bridged

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_gen_header(capsys):
    code, out, _ = run(capsys, "gen", "--family", "ag", "--q", "3")
    assert code == EXIT_OK
    assert "p hg 9 12" in out.splitlines()


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "f9.hg"
    code, _, _ = run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    assert code == EXIT_OK
    assert hypergraph_isomorphic(hgio.load(path), affine_plane(3))


def test_solve_f9(tmp_path, capsys):
    path = tmp_path / "f9.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    code, payload, _ = run_json(capsys, "solve", str(path))
    assert code == EXIT_OK
    assert payload["tau"] == 5
    assert len(payload["witness"]) == 5
    assert all(1 <= v <= 9 for v in payload["witness"])
    assert payload["manifest"]["version"]


def test_solve_determinism(tmp_path, capsys):
    path = tmp_path / "f9.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    _, a, _ = run_json(capsys, "solve", str(path))
    _, b, _ = run_json(capsys, "solve", str(path))
    a["manifest"].pop("elapsed_ms")
    b["manifest"].pop("elapsed_ms")
    assert a == b


def test_gen_random_requires_seed(capsys):
    code, _, err = run(
        capsys, "gen", "--family", "random", "--n", "10", "--k", "3",
        "--max-deg", "2", "--m-target", "4",
    )
    assert code == EXIT_USAGE
    assert "--seed" in err


def test_gen_random_deterministic(tmp_path, capsys):
    args = (
        "gen", "--family", "random", "--n", "12", "--k", "3", "--max-deg",
        "2", "--m-target", "5", "--seed", "77",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_gen_random_large_pinned(tmp_path, capsys):
    """The n = 2000 file keeps the bytes of the draw-every-time generator."""
    path = tmp_path / "r2000.hg"
    code, payload, _ = run_json(
        capsys, "gen", "--family", "random", "--n", "2000", "--k", "4",
        "--max-deg", "3", "--m-target", "1400", "--seed", "1", "--out", str(path),
    )
    assert code == EXIT_OK
    assert (payload["n"], payload["m"], payload["manifest"]["seed"]) == (2000, 1400, 1)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "29dab9a7c86fb2cca68f2c2d03a87b9b8d267284424367021fbbd6f3b304f31b"


def test_prob_envelope(capsys):
    code, payload, _ = run_json(capsys, "prob", "envelope")
    assert code == EXIT_OK
    assert abs(payload["max"] - 1.5037) < 1e-3
    assert abs(payload["argmax"] - 3.753) < 1e-2


def test_prob_threshold(capsys):
    code, payload, _ = run_json(
        capsys, "prob", "threshold", "--k-lo", "2750", "--k-hi", "2756"
    )
    assert code == EXIT_OK
    assert payload["threshold"] == 2753


def test_prob_shrink_and_mc(tmp_path, capsys):
    path = tmp_path / "pg3.hg"
    run(capsys, "gen", "--family", "pg", "--q", "3", "--out", str(path))
    out_path = tmp_path / "shrunk.hg"
    code, payload, _ = run_json(
        capsys, "prob", "shrink", str(path), "--k", "2", "--seed", "3",
        "--out", str(out_path),
    )
    assert code == EXIT_OK and payload["n"] == 13
    shrunk = hgio.load(out_path)
    assert all(len(e) == 2 for e in shrunk.edges)
    code, payload, _ = run_json(
        capsys, "prob", "mc", "--p", "3", "--trials", "5", "--seed", "1"
    )
    assert code == EXIT_OK
    assert payload["trials"] == 5


def test_dual_identity(tmp_path, capsys):
    path = tmp_path / "h10.hg"
    run(capsys, "gen", "--family", "special", "--name", "H10", "--out", str(path))
    code, payload, _ = run_json(capsys, "dual", str(path))
    assert code == EXIT_OK
    assert payload == {
        **payload,
        "m": 5,
        "alpha_prime": 2,
        "tau": 3,
        "identity_holds": True,
    }


def test_defic(tmp_path, capsys):
    path = tmp_path / "h10.hg"
    run(capsys, "gen", "--family", "special", "--name", "H10", "--out", str(path))
    code, payload, _ = run_json(capsys, "defic", str(path))
    assert code == EXIT_OK
    assert payload["value"] == 10
    assert payload["partition_counts"]["X10"] == 1


def test_verify_catalog(capsys):
    code, payload, _ = run_json(capsys, "verify", "catalog")
    assert code == EXIT_OK
    assert payload["all_passed"]
    assert set(payload["subjects"]) == set(
        __import__("linhyp.catalog", fromlist=["NAMES"]).NAMES
    )


def test_verify_mainyy(capsys):
    code, payload, _ = run_json(capsys, "verify", "mainyy", "--q", "4")
    assert code == EXIT_OK
    assert payload["all_passed"]


def test_verify_bounds_builtin(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "bounds", "--bound", "Q46", "--corpus", "builtin"
    )
    assert code == EXIT_OK
    assert payload["all_passed"]


def test_verify_bounds_directory_corpus(tmp_path, capsys):
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(tmp_path / "a.hg"))
    run(capsys, "gen", "--family", "residual", "--q", "3", "--s", "1",
        "--out", str(tmp_path / "b.hg"))
    code, payload, _ = run_json(
        capsys, "verify", "bounds", "--bound", "K23", "--corpus", str(tmp_path)
    )
    assert code == EXIT_OK
    assert len(payload["results"]) == 2
    assert payload["all_passed"]


def test_verify_mainyy_table(capsys):
    code, out, _ = run(capsys, "verify", "mainyy", "--q", "4", "--table")
    assert code == EXIT_OK
    assert "tau" in out and "(n+m)/(q+1)" in out


def test_gen_dot_output(tmp_path, capsys):
    dot = tmp_path / "h4.dot"
    code, _, _ = run(
        capsys, "gen", "--family", "special", "--name", "H4",
        "--out", str(tmp_path / "h4.hg"), "--dot", str(dot),
    )
    assert code == EXIT_OK
    text = dot.read_text()
    assert text.startswith("graph incidence {")
    assert "v0 -- e0;" in text


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "gen", "--family", "nonsense")
    assert code == EXIT_USAGE


def test_unknown_special_name_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--family", "special", "--name", "H15")
    assert code == EXIT_USAGE
    assert "unknown special hypergraph" in err


def test_library_key_error_propagates(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f9.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))

    def broken_tau(h):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "tau", broken_tau)
    with pytest.raises(KeyError, match="internal"):
        main(["solve", str(path)])


def test_library_value_error_propagates(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f9.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))

    def broken_tau(h):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "tau", broken_tau)
    with pytest.raises(ValueError, match="internal"):
        main(["solve", str(path)])


def test_probability_argument_exit_code(capsys):
    code, _, err = run(capsys, "prob", "bound", "--k", "1", "--n", "10", "--c", "0.5")
    assert code == EXIT_USAGE
    assert "k >= 2" in err


@pytest.mark.parametrize("coefficient", ["0", "-1", "nan"])
def test_non_positive_coefficient_exit_code(capsys, coefficient):
    code, out, err = run(capsys, "prob", "threshold", "--coefficient", coefficient)
    assert code == EXIT_USAGE and out == ""
    assert "coefficient > 0" in err


def test_prob_bound_beyond_float_range(capsys):
    code, out, _ = run(capsys, "prob", "bound", "--k", "1000", "--n", "1000000000", "--c", "0.3")
    assert code == EXIT_OK
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert payload["bound"] is None and payload["less_than_one"] is False


@pytest.mark.parametrize("c,bound,less_than_one", [("0.3", None, False), ("1e-9", 0.0, True)])
def test_prob_bound_for_n_beyond_float_range(capsys, c, bound, less_than_one):
    code, out, _ = run(capsys, "prob", "bound", "--k", "2", "--n", str(10**400), "--c", c)
    assert code == EXIT_OK
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert payload["n"] == 10**400
    assert payload["bound"] == bound and payload["less_than_one"] is less_than_one


def test_non_integer_guard_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f9.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "sixty")
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_USAGE
    assert "LINHYP_GUARD_SOLVE_N" in err


def test_bad_plane_order_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--family", "pg", "--q", "6")
    assert code == EXIT_USAGE
    assert "prime power" in err


def test_non_ascii_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_bytes("c caf\u00e9\np hg 2 1\ne 1 2\n".encode("utf-8"))
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_USAGE
    assert "ASCII" in err


def test_missing_family_params(capsys):
    code, _, err = run(capsys, "gen", "--family", "lk")
    assert code == EXIT_USAGE
    assert "--k" in err


def test_guard_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "5")
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_GUARD
    assert "guard" in err


def test_dual_honours_solve_guard(tmp_path, capsys, monkeypatch):
    # dual runs the exact tau search, so the solve guard bounds it too
    path = tmp_path / "h10.hg"
    run(capsys, "gen", "--family", "special", "--name", "H10", "--out", str(path))
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "5")
    code, out, err = run(capsys, "dual", str(path))
    assert code == EXIT_GUARD
    assert "guard" in err and not out


def test_bad_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("p hg 3 1\ne 1 9\n")
    code, _, _ = run(capsys, "solve", str(path))
    assert code == EXIT_USAGE


def test_dual_rejects_high_degree(tmp_path, capsys):
    path = tmp_path / "plane.hg"
    run(capsys, "gen", "--family", "ag", "--q", "3", "--out", str(path))
    code, _, err = run(capsys, "dual", str(path))
    assert code == EXIT_USAGE
    assert "degree" in err


def test_solve_edgeless_file(tmp_path, capsys):
    path = tmp_path / "empty.hg"
    path.write_text("p hg 4 0\n")
    code, payload, _ = run_json(capsys, "solve", str(path))
    assert code == EXIT_OK
    assert payload["tau"] == 0 and payload["witness"] == []


# One value per gen option; each family takes the ones FAMILIES names.
GEN_VALUES = {
    "q": 3, "s": 2, "k": 4, "i": 2, "name": "H10",
    "n": 12, "max_deg": 2, "m_target": 5, "seed": 7,
}


def _gen_options(names):
    return [
        tok
        for n in names
        for tok in (f"--{n.replace('_', '-')}", str(GEN_VALUES[n]))
    ]


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_gen_family_matches_constructor(family, capsys):
    make, names = cli.FAMILIES[family]
    code, out, err = run(capsys, "gen", "--family", family, *_gen_options(names))
    assert (code, err) == (EXIT_OK, "")
    want = make(*(GEN_VALUES[n] for n in names))
    assert out == hgio.dumps(want, comment=f"generated by linhyp gen --family {family}")


@pytest.mark.parametrize(
    "family", [f for f, (_, names) in cli.FAMILIES.items() if names]
)
def test_gen_family_lists_missing_options_in_order(family, capsys):
    _, names = cli.FAMILIES[family]
    code, out, err = run(capsys, "gen", "--family", family)
    assert (code, out) == (EXIT_USAGE, "")
    flags = ", ".join(f"--{n.replace('_', '-')}" for n in names)
    assert err == f"error: family {family!r} requires {flags}\n"


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_leaf_command_has_its_own_handler():
    leaves = dict(_leaves(cli.build_parser()))
    assert sorted(" ".join(p) for p in leaves) == sorted(
        ["gen", "solve", "defic", "dual"]
        + [f"prob {x}" for x in ("bound", "threshold", "envelope", "shrink", "mc")]
        + [f"verify {x}" for x in ("catalog", "bounds", "mainyy")]
    )
    handlers = [leaf.get_default("func") for leaf in leaves.values()]
    assert all(callable(h) for h in handlers)
    assert len(set(handlers)) == len(handlers)


@pytest.mark.parametrize("group", ["prob", "verify"])
def test_bare_group_is_usage_error(group, capsys):
    code, out, _ = run(capsys, group)
    assert (code, out) == (EXIT_USAGE, "")


@pytest.mark.parametrize("kind", ["missing", "file", "empty"])
def test_verify_bounds_corpus_without_hosts_is_usage_error(kind, tmp_path, capsys):
    corpus = tmp_path / kind
    if kind == "file":
        corpus.write_text("p hg 1 0\n")
    elif kind == "empty":
        corpus.mkdir()
    code, out, err = run(
        capsys, "verify", "bounds", "--bound", "K23", "--corpus", str(corpus)
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert str(corpus) in err


def test_verify_bounds_corpus_of_skipped_hosts_reports_each(tmp_path, capsys):
    for name in ("H4", "H10"):
        run(capsys, "gen", "--family", "special", "--name", name,
            "--out", str(tmp_path / f"{name}.hg"))
    code, payload, _ = run_json(
        capsys, "verify", "bounds", "--bound", "TD37", "--corpus", str(tmp_path)
    )
    assert code == EXIT_OK
    assert payload["results"] == [
        {"name": "H10.hg", "skipped": "TD37 takes a graph"},
        {"name": "H4.hg", "skipped": "TD37 takes a graph"},
    ]


@pytest.mark.parametrize("q", ["-1", "0", "1"])
@pytest.mark.parametrize("table", [(), ("--table",)])
def test_verify_mainyy_order_below_two_is_usage_error(q, table, capsys):
    code, out, err = run(capsys, "verify", "mainyy", "--q", q, *table)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --q must be at least 2, not {q}\n"


@pytest.mark.parametrize("table", [(), ("--table",)])
def test_verify_mainyy_honours_solve_guard(table, capsys, monkeypatch):
    # the order-3 residuals have n = 6..8, so a guard of 5 refuses the largest
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "5")
    code, out, err = run(capsys, "verify", "mainyy", "--q", "3", *table)
    assert (code, out) == (EXIT_GUARD, "")
    assert err.startswith("guard exceeded: n=8 ")


def test_verify_bounds_honours_solve_guard(tmp_path, capsys, monkeypatch):
    run(capsys, "gen", "--family", "special", "--name", "H10",
        "--out", str(tmp_path / "H10.hg"))
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "5")
    code, out, err = run(
        capsys, "verify", "bounds", "--bound", "MAIN5", "--corpus", str(tmp_path)
    )
    assert (code, out) == (EXIT_GUARD, "")
    assert err.startswith("guard exceeded: n=10 ")


def test_verify_mainyy_guards_before_building_a_plane(capsys, monkeypatch):
    # AG(2,8)'s first residual has n = 63 > 60, known from --q alone
    def refuse(q):
        raise AssertionError(f"AG(2,{q}) built before the guard")

    monkeypatch.setattr(cli.algebra, "affine_plane", refuse)
    code, out, err = run(capsys, "verify", "mainyy", "--q", "8")
    assert (code, out) == (EXIT_GUARD, "")
    assert err.startswith("guard exceeded: n=63 ")


@pytest.mark.parametrize("q", ["6", "1000"])
def test_verify_mainyy_non_prime_power_is_usage_error(q, capsys):
    # 1000 is above the guard as well: the usage error comes first
    code, out, err = run(capsys, "verify", "mainyy", "--q", q)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {q} is not a prime power\n"


def test_verify_mainyy_undecidable_q_is_usage_error(capsys):
    # 2**89 - 1 is prime but beyond the range where Miller-Rabin is exact
    code, out, err = run(capsys, "verify", "mainyy", "--q", str(2**89 - 1))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: cannot decide whether {2**89 - 1} is prime")


def test_verify_mainyy_guards_a_large_prime(capsys):
    # the prime-power test is fast, so the solve guard refuses the order
    code, out, err = run(capsys, "verify", "mainyy", "--q", str(10**18 + 3))
    assert (code, out) == (EXIT_GUARD, "")
    assert err.startswith(f"guard exceeded: n={(10**18 + 3) ** 2 - 1} ")


def test_verify_bounds_guard_spares_skipped_hosts(tmp_path, capsys, monkeypatch):
    # TD37 skips a hypergraph on its hypotheses, so the guard never sees it
    run(capsys, "gen", "--family", "special", "--name", "H10",
        "--out", str(tmp_path / "H10.hg"))
    monkeypatch.setenv("LINHYP_GUARD_SOLVE_N", "5")
    code, out, err = run(
        capsys, "verify", "bounds", "--bound", "TD37", "--corpus", str(tmp_path)
    )
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["results"] == [{"name": "H10.hg", "skipped": "TD37 takes a graph"}]
    assert payload["all_passed"]


# A JSON command's argv ({host} is an H10 file, {dir} the folder holding it),
# and the manifest keys it adds to argv, version and elapsed_ms.
MANIFEST_CASES = {
    "solve": (["solve", "{host}"], {"input_sha256"}),
    "defic": (["defic", "{host}"], {"input_sha256"}),
    "dual": (["dual", "{host}"], {"input_sha256"}),
    "gen": (["gen", "--family", "ag", "--q", "3", "--out", "{dir}/ag.hg"], set()),
    "gen-seed": (
        ["gen", "--family", "random", "--n", "12", "--k", "3", "--max-deg", "2",
         "--m-target", "5", "--seed", "3", "--out", "{dir}/r.hg"],
        {"seed"},
    ),
    "prob-shrink": (
        ["prob", "shrink", "{host}", "--k", "2", "--seed", "3", "--out", "{dir}/s.hg"],
        {"input_sha256", "seed"},
    ),
    "prob-shrink-in-place": (
        ["prob", "shrink", "{host}", "--k", "2", "--seed", "3", "--out", "{host}"],
        {"input_sha256", "seed"},
    ),
    "prob-mc": (["prob", "mc", "--p", "3", "--trials", "2", "--seed", "3"], {"seed"}),
    "prob-bound": (["prob", "bound", "--k", "5", "--n", "100", "--c", "0.5"], set()),
    "prob-threshold": (["prob", "threshold", "--k-lo", "2750", "--k-hi", "2751"], set()),
    "prob-envelope": (["prob", "envelope"], set()),
    "verify-catalog": (["verify", "catalog"], set()),
    "verify-bounds": (["verify", "bounds", "--bound", "MAIN5", "--corpus", "{dir}"], set()),
    "verify-mainyy": (["verify", "mainyy", "--q", "3"], set()),
}


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_keys(case, tmp_path, capsys):
    host = tmp_path / "H10.hg"
    run(capsys, "gen", "--family", "special", "--name", "H10", "--out", str(host))
    before = host.read_bytes()
    template, extra = MANIFEST_CASES[case]
    argv = [a.format(host=host, dir=tmp_path) for a in template]
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    manifest = payload["manifest"]
    assert set(manifest) == {"argv", "version", "elapsed_ms"} | extra
    assert manifest["argv"] == argv
    if "input_sha256" in extra:
        # the digest of the input as read, even when the command overwrote it
        assert manifest["input_sha256"] == {str(host): hashlib.sha256(before).hexdigest()}
    if case == "prob-shrink-in-place":
        assert host.read_bytes() != before
    if "seed" in extra:
        assert manifest["seed"] == 3


# (command, host): each is run in a fresh interpreter under four hash seeds
DETERMINISM_CASES = {
    "defic-H21_5": ("defic", special("H21_5")),
    "defic-bridged-H14_2-H10": ("defic", bridged(("H14_2", "H10"), 1, 8)),
    "defic-random-28": ("defic", random_linear(28, 4, 3, 10, 1)),
    "solve-onh-g30": ("solve", onh(g30())),
}


@pytest.mark.parametrize("case", list(DETERMINISM_CASES))
def test_json_is_identical_under_every_hash_seed(case, tmp_path):
    command, host = DETERMINISM_CASES[case]
    path = tmp_path / "host.hg"
    path.write_text(hgio.dumps(host), encoding="ascii")
    outputs = set()
    for hash_seed in range(4):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        out = subprocess.run(
            [sys.executable, "-m", "linhyp.cli", command, str(path)],
            env=env, capture_output=True, timeout=120, check=True,
        ).stdout
        outputs.add(re.sub(rb'"elapsed_ms": [0-9.]+', b'"elapsed_ms": 0', out))
    assert len(outputs) == 1, case
    payload = json.loads(outputs.pop())
    assert payload["manifest"]["elapsed_ms"] == 0

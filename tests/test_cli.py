"""End-to-end command-line behavior: exit codes, formats, plumbing."""

import io
import json
from fractions import Fraction

import pytest

from tropsdp import Pencil, SignedTrop, jsonio
from tropsdp.cli import run

from conftest import example_path

F = Fraction
POS = SignedTrop.pos
NEG = SignedTrop.neg

RUNNING = example_path("running.json")
DOMINION = example_path("dominion_game.json")


def write_pencil(tmp_path, name, n, m, entries, affine=False):
    P = Pencil.from_entries(n, m, entries, affine=affine)
    path = tmp_path / name
    jsonio.dump_json(jsonio.pencil_to_json(P), str(path))
    return str(path)


@pytest.fixture
def trivial_pencil(tmp_path):
    return write_pencil(tmp_path, "trivial.json", 1, 1, [(0, 0, 0, NEG(F(0)))])


@pytest.fixture
def zero_cycle_pencil(tmp_path):
    return write_pencil(tmp_path, "cycle0.json", 2, 2, [
        (0, 0, 0, POS(F(0))), (0, 1, 1, NEG(F(0))),
        (1, 0, 0, NEG(F(0))), (1, 1, 1, POS(F(0))),
    ])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_feasible(capsys):
    assert run(["check", RUNNING]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Feasible"
    assert report["iterations"] == 20
    assert report["witness"] == ["2139951/2097152", "0", "2289749/2097152"]
    assert report["epsilon"] == "1/100000000"


def test_check_builds_no_stoch_game(tmp_path, monkeypatch, capsys):
    import tropsdp.cli
    from tropsdp import StochGame
    from tropsdp.bench import GenSpec, gen_random

    path = tmp_path / "random.json"
    jsonio.dump_json(jsonio.pencil_to_json(gen_random(GenSpec(30, 4, 3))),
                     str(path))
    assert run(["check", str(path)]) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("check built a StochGame")

    monkeypatch.setattr(tropsdp.cli, "game_from_pencil", refuse)
    monkeypatch.setattr(StochGame, "__post_init__", refuse)
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_check_trivial_instance(trivial_pencil, capsys):
    assert run(["check", trivial_pencil]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report == {"verdict": "Infeasible", "iterations": 0,
                      "witness": [], "epsilon": "1/100000000"}


def test_check_free_ray(tmp_path, capsys):
    path = write_pencil(tmp_path, "ray.json", 1, 1, [(0, 0, 0, POS(F(0)))])
    assert run(["check", path]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["verdict"] == "Feasible"
    assert "feasible ray" in out.err


def test_check_indeterminate(zero_cycle_pencil, capsys):
    assert run(["check", zero_cycle_pencil, "--max-iters", "50"]) == 20
    out = capsys.readouterr()
    assert json.loads(out.out)["verdict"] == "Indeterminate"
    assert "indeterminate at this precision" in out.err


def test_check_rejects_non_metzler(tmp_path, capsys):
    path = write_pencil(tmp_path, "bad.json", 1, 2, [
        (0, 0, 0, POS(F(0))), (0, 0, 1, POS(F(1))), (0, 1, 1, NEG(F(0))),
    ])
    assert run(["check", path]) == 1
    assert "Metzler" in capsys.readouterr().err


def test_check_scans_for_metzler_once(monkeypatch):
    calls = []
    is_metzler = Pencil.is_metzler

    def counted(self):
        calls.append(self)
        return is_metzler(self)

    monkeypatch.setattr(Pencil, "is_metzler", counted)
    assert run(["check", RUNNING]) == 0
    assert len(calls) == 1


def test_check_exact_flag_matches(capsys):
    assert run(["check", RUNNING, "--exact"]) == 0
    exact_report = json.loads(capsys.readouterr().out)
    assert run(["check", RUNNING]) == 0
    assert json.loads(capsys.readouterr().out) == exact_report


# ---------------------------------------------------------------------------
# exact / game / solve-game
# ---------------------------------------------------------------------------

def test_exact_worked_example(capsys):
    assert run(["exact", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "Nontrivial"
    assert out["margin"] == "1/28"
    assert out["value"]["chi"] == ["1/56"] * 3
    assert out["value"]["optimal_pair"] == {"sigma": [1, 1, 2], "tau": [1, 1, 1]}
    assert out["value"]["saddle_verified"] is True


def test_exact_policies_and_chain(capsys):
    assert run(["exact", RUNNING, "--policies", "--dump-chain"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["chain"]["gain"] == ["1/56"] * 6
    assert "Min 3" in out.err and "Max 2" in out.err


def test_game_translation(capsys, running_pencil):
    from tropsdp import game_from_pencil

    assert run(["game", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == jsonio.game_to_json(game_from_pencil(running_pencil))
    assert out["min_actions"][2][0] == {"to": [1, 3], "reward": "-3/4"}


def test_game_pipe_matches_exact(tmp_path, capsys):
    game_file = tmp_path / "game.json"
    assert run(["game", RUNNING, "-o", str(game_file)]) == 0
    capsys.readouterr()
    assert run(["solve-game", str(game_file)]) == 0
    piped = json.loads(capsys.readouterr().out)
    assert run(["exact", RUNNING]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert piped == direct["value"]


def test_solve_game_policies_and_chain_match_exact(tmp_path, capsys):
    game_file = tmp_path / "game.json"
    assert run(["game", RUNNING, "-o", str(game_file)]) == 0
    capsys.readouterr()
    assert run(["solve-game", str(game_file), "--policies", "--dump-chain"]) == 0
    piped = capsys.readouterr()
    assert run(["exact", RUNNING, "--policies", "--dump-chain"]) == 0
    direct = capsys.readouterr()
    assert json.loads(piped.out)["chain"] == json.loads(direct.out)["chain"]
    assert piped.err == direct.err
    assert piped.err.startswith("optimal pair:\n  Min 1:")


def test_solve_game_losing(tmp_path, capsys):
    game = {
        "n": 1, "m": 1,
        "min_actions": [[{"to": [1], "reward": "-1"}]],
        "max_actions": [[{"to": 1, "reward": "0"}]],
    }
    path = tmp_path / "losing.json"
    jsonio.dump_json(game, str(path))
    assert run(["solve-game", str(path)]) == 10
    out = json.loads(capsys.readouterr().out)
    assert out["chi"] == ["-1/2"]


# ---------------------------------------------------------------------------
# preprocessing commands
# ---------------------------------------------------------------------------

def test_normalize_reduced(capsys):
    assert run(["normalize", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "reduced"
    assert out["eliminated_variables"] == []
    assert out["pencil"]["n"] == 3


def test_normalize_trivial(trivial_pencil, capsys):
    assert run(["normalize", trivial_pencil]) == 10
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "trivial"
    assert out["pencil"] is None


def test_metzlerize(tmp_path, capsys):
    path = write_pencil(tmp_path, "general.json", 1, 2, [
        (0, 0, 0, POS(F(0))), (0, 0, 1, POS(F(1))), (0, 1, 1, NEG(F(0))),
    ])
    assert run(["metzlerize", path]) == 0
    out = capsys.readouterr()
    lifted = jsonio.pencil_from_json(json.loads(out.out))
    assert (lifted.n, lifted.m) == (2, 6)
    assert lifted.is_metzler()
    assert "auxiliary variables" in out.err


def test_affine_exit_codes(tmp_path, capsys):
    dead = write_pencil(tmp_path, "dead.json", 1, 1,
                        [(0, 0, 0, NEG(F(5)))], affine=True)
    assert run(["affine", dead]) == 10
    assert json.loads(capsys.readouterr().out) == {"feasible": False}
    free = write_pencil(tmp_path, "free.json", 1, 1,
                        [(0, 0, 0, POS(F(3)))], affine=True)
    assert run(["affine", free]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_affine_has_no_pair_cap_option(tmp_path):
    # subgames are capped by the library default; the option never took effect
    path = write_pencil(tmp_path, "aff.json", 1, 1,
                        [(0, 0, 0, POS(F(3)))], affine=True)
    with pytest.raises(SystemExit) as exc:
        run(["affine", path, "--max-pairs", "1"])
    assert exc.value.code == 1


def test_check_warns_on_affine_flag(tmp_path, capsys):
    path = write_pencil(tmp_path, "aff.json", 1, 1,
                        [(0, 0, 0, POS(F(0)))], affine=True)
    assert run(["check", path]) == 0
    assert "tropsdp affine" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    assert run(["certify", RUNNING, "--lambda", "1/100",
                "-o", str(cert_file)]) == 0
    capsys.readouterr()
    assert run(["certify", RUNNING, "--check", str(cert_file)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["holds"] is True
    assert verdict["kind"] == "Feasibility"


def test_certify_detects_tampering(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(["certify", RUNNING, "--lambda", "1/100", "-o", str(cert_file)])
    capsys.readouterr()
    cert = json.loads(cert_file.read_text())
    cert["vector"][0] = "100"
    cert_file.write_text(json.dumps(cert))
    assert run(["certify", RUNNING, "--check", str(cert_file)]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["holds"] is False
    assert "does not verify" in out.err


def test_certify_infeasibility_on_game_file(tmp_path, capsys):
    game = {
        "n": 1, "m": 1,
        "min_actions": [[{"to": [1], "reward": "-1"}]],
        "max_actions": [[{"to": 1, "reward": "0"}]],
    }
    path = tmp_path / "losing.json"
    jsonio.dump_json(game, str(path))
    assert run(["certify", str(path), "--game", "--lambda=-1/2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["kind"] == "Infeasibility"
    assert cert["lambda"] == "-1/2"


def test_certify_needs_lambda_or_check(capsys):
    assert run(["certify", RUNNING]) == 1
    assert "--lambda" in capsys.readouterr().err


def test_certify_above_margin_fails(capsys):
    assert run(["certify", RUNNING, "--lambda", "1"]) == 1
    assert "CertificateInvalid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generation and sweeps
# ---------------------------------------------------------------------------

def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--n", "3", "--m", "3", "--seed", "5", "-o", str(a)]) == 0
    assert run(["gen", "--n", "3", "--m", "3", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["check", str(a)]) in (0, 10, 20)
    capsys.readouterr()


def test_phase_csv(capsys):
    assert run(["phase", "--n-list", "3", "--m-list", "2,3",
                "--samples", "2", "--no-timing", "--max-iters", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,samples,feasible_ratio,indeterminate,mean_iters,mean_time_s"
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])  # timing blanked


def test_bench_csv_discloses_hardware(capsys):
    assert run(["bench", "--sizes", "4x3", "--samples", "1",
                "--max-iters", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# host:")
    assert "n,m,samples" in out


def test_bench_rejects_malformed_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--sizes", "100-10"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_schema_flag(capsys):
    assert run(["--schema"]) == 0
    out = capsys.readouterr().out
    assert '"sign": "+"|"-"' in out
    assert "feasible_ratio" in out


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["check", RUNNING, "--bogus"])
    assert exc.value.code == 1


def test_stdin_input(capsys, monkeypatch):
    text = jsonio.dump_json(jsonio.pencil_to_json(
        Pencil.from_entries(1, 1, [(0, 0, 0, NEG(F(0)))])))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["check"]) == 10
    capsys.readouterr()


def test_output_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert run(["check", RUNNING, "-o", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["verdict"] == "Feasible"
    assert capsys.readouterr().out == ""


def test_missing_input_exits_one(capsys):
    assert run(["check", "/no/such/file.json"]) == 1
    assert "file" in capsys.readouterr().err.lower()


def test_misshapen_pencil_exits_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "m": 1, "matrices": [[{"i": 1, "j": 1, '
                    '"sign": "+", "val": "0"}]]}')
    assert run(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tropsdp: ValidationError")
    assert "Traceback" not in err


def test_bad_epsilon_exits_one(capsys):
    assert run(["check", RUNNING, "--eps", "0"]) == 1
    assert run(["check", RUNNING, "--eps=-1/2"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["check", RUNNING, "--eps", "sqrt2"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_underflowing_epsilon_needs_exact(capsys):
    # 1e-400 is a positive rational but 0.0 as a double; the float loop
    # must refuse it rather than report Infeasible after 0 iterations
    assert run(["check", RUNNING, "--eps", "1e-400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tropsdp: ValidationError" in captured.err
    assert "--exact" in captured.err
    assert run(["check", RUNNING, "--eps", "1e-400", "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["iterations"]) == ("Feasible", 20)


def test_epsilon_accepts_decimal_strings(capsys):
    assert run(["check", RUNNING, "--eps", "0.001"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == "1/1000"

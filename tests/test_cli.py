"""Command surface: exit codes, artifact formats, determinism."""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

import pytest

from cantorcode import cli
from cantorcode.bits import BitString
from cantorcode.cli import main
from cantorcode.clopen import ClopenClass, save_class
from cantorcode.fixtures import fixture_trees
from cantorcode.labeltree import BRUTE_FORCE_HEIGHT_CAP, save_tree

B = BitString
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "trees"


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


class TestEncodeDecode:
    def test_roundtrip_64_bits(self, workdir):
        rng = random.Random(2024)
        source = "".join(rng.choice("01") for _ in range(64))
        src = workdir / "source.txt"
        src.write_text(source + "\n")
        code = workdir / "code.txt"
        out = workdir / "recovered.txt"
        assert run("encode", "--class", "seeded:128:9", "--schedule", "gacs",
                   "--source", str(src), "--out", str(code)) == 0
        text = code.read_text()
        assert text.startswith("bits=64\n")
        assert "levels=11\n" in text  # gacs M(11) = 66 covers 64 bits
        profile = (workdir / "code.txt.use.csv").read_text().splitlines()
        assert profile[0] == "bit,use"
        assert len(profile) == 67  # 66 padded source bits
        assert run("decode", "--class", "seeded:128:9", "--schedule", "gacs",
                   "--code", str(code), "--out", str(out)) == 0
        assert out.read_text().strip() == source

    def test_hex_source(self, workdir):
        src = workdir / "source.txt"
        src.write_text("hex 2b 6\n")  # 101011
        code = workdir / "code.txt"
        out = workdir / "recovered.txt"
        assert run("encode", "--class", "full:16", "--schedule", "gacs",
                   "--source", str(src), "--out", str(code)) == 0
        assert run("decode", "--class", "full:16", "--schedule", "gacs",
                   "--code", str(code), "--out", str(out)) == 0
        assert out.read_text().strip() == "101011"

    def test_malformed_class_file_exit_2(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_text("depth 3\n000\n0011\n")
        src = workdir / "source.txt"
        src.write_text("0")
        assert run("encode", "--class", str(bad), "--schedule", "kucera",
                   "--source", str(src)) == 2
        assert "wrong-length member at line 3" in capsys.readouterr().err

    def test_budget_violation_exit_3(self, workdir, capsys):
        src = workdir / "source.txt"
        src.write_text("11")
        assert run("encode", "--class", "full:8",
                   "--schedule", "custom:m=1,1;l=1,2", "--source", str(src)) == 3
        assert "measure budget exhausted" in capsys.readouterr().err

    def test_missing_file_exit_2(self, workdir):
        assert run("encode", "--class", "full:8", "--schedule", "kucera",
                   "--source", str(workdir / "nope.txt")) == 2


class TestPruneVerify:
    def test_prune_then_verify_passes(self, workdir):
        pstar = workdir / "pstar.txt"
        assert run("prune", "--class", "seeded:13:4", "--schedule", "kucera",
                   "--levels", "3", "--out", str(pstar)) == 0
        assert run("verify", "--class", str(pstar), "--schedule", "kucera",
                   "--levels", "3") == 0

    def test_verify_full_class_passes(self):
        assert run("verify", "--class", "full:13", "--schedule", "kucera",
                   "--levels", "3") == 0

    def test_verify_failing_density_prints_counterexample(self, workdir, capsys):
        p = ClopenClass.full(4).minus_cylinder(B("10")).union(
            ClopenClass.from_members(4, [B("1000")])
        )
        path = workdir / "thin.txt"
        save_class(p, path)
        code = run("verify", "--class", str(path), "--schedule", "custom:m=1,1;l=2,2",
                   "--levels", "2", "--check", "density")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "10" in out

    def test_verify_tree_measure_condition(self, workdir):
        tree = fixture_trees()["labelable_full_binary"]
        path = workdir / "t.txt"
        save_tree(tree, path)
        assert run("verify", "--tree", str(path)) == 1  # sum 7/2^5 vs measure 1/2^4


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ("report", "--schedule", "kucera", "--n-max", "0"),
        ("report", "--schedule", "kucera", "--n-max", "-5"),
        ("sweep", "--count", "3", "--max-height", "0"),
        ("sweep", "--count", "-1"),
        ("sweep", "--count", "3", "--max-per-level", "0"),
        ("sweep", "--count", "3", "--max-per-level", "-4"),
        ("vt-run", "--t-max", "0"),
        ("vt-run", "--mode", "density", "--class", "full:13", "--schedule", "kucera",
         "--levels", "-1"),
        ("prune", "--class", "full:4", "--schedule", "kucera", "--levels", "-1"),
        ("verify", "--class", "full:4", "--schedule", "kucera", "--levels", "-1"),
    ])
    def test_out_of_range_flag_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be at least" in errors[0]

    def test_negative_class_depth_exit_2(self, workdir, capsys):
        path = workdir / "neg.txt"
        path.write_text("depth -3\n")
        assert run("prune", "--class", str(path), "--schedule", "kucera",
                   "--levels", "1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: class depth must be non-negative, got -3"]

    @pytest.mark.parametrize("spec", [
        "full:-1", "seeded:-3:1", "seeded:0:1", "seeded:10:1:-5",
        "full:3:9", "seeded:10:1:2:7", "full:", "seeded:10",
    ])
    def test_bad_class_spec_exit_2(self, spec, capsys):
        assert run("verify", "--class", spec, "--schedule", "kucera", "--levels", "0") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: bad class spec {spec!r}: want full:<depth>")

    def test_sweep_height_cap_is_the_brute_force_cap(self, capsys):
        assert run("sweep", "--count", "2", "--max-height", str(BRUTE_FORCE_HEIGHT_CAP)) == 0
        capsys.readouterr()
        assert run("sweep", "--count", "2",
                   "--max-height", str(BRUTE_FORCE_HEIGHT_CAP + 1)) == 3
        assert capsys.readouterr().err == "error: instance too large for oracle\n"

    @pytest.mark.parametrize("line", ["hex ff -3", "hex -ff 8"])
    def test_negative_hex_exit_2(self, workdir, capsys, line):
        src = workdir / "source.txt"
        src.write_text(line + "\n")
        assert run("encode", "--class", "full:16", "--schedule", "gacs",
                   "--source", str(src)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: hex value and bit count must be non-negative, got {line[4:]}"]

    @pytest.mark.parametrize("role", ["class", "tree", "source", "code"])
    def test_non_utf8_file_exit_2(self, workdir, capsys, role):
        bad = workdir / "bad.txt"
        bad.write_bytes(b"depth 2\n\xff\xfe\n")
        src = workdir / "source.txt"
        src.write_text("0\n")
        argv = {
            "class": ("encode", "--class", str(bad), "--schedule", "kucera", "--source", str(src)),
            "tree": ("label", "--tree", str(bad)),
            "source": ("encode", "--class", "full:16", "--schedule", "gacs", "--source", str(bad)),
            "code": ("decode", "--class", "full:16", "--schedule", "gacs", "--code", str(bad)),
        }[role]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("field, value, message", [
        ("bits", "-5", "error: code file bits must lie in [0, M(3)] = [0, 6], got -5"),
        ("bits", "100", "error: code file bits must lie in [0, M(3)] = [0, 6], got 100"),
        ("levels", "-1", "error: code file levels must be non-negative, got -1"),
    ])
    def test_out_of_range_code_field_exit_2(self, workdir, capsys, field, value, message):
        src = workdir / "source.txt"
        src.write_text("1011\n")
        code = workdir / "code.txt"
        assert run("encode", "--class", "full:16", "--schedule", "gacs",
                   "--source", str(src), "--out", str(code)) == 0
        lines = code.read_text().splitlines()
        code.write_text("".join(
            f"{field}={value}\n" if line.startswith(f"{field}=") else line + "\n"
            for line in lines
        ))
        capsys.readouterr()
        assert run("decode", "--class", "full:16", "--schedule", "gacs",
                   "--code", str(code)) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("command", ["prune", "verify", "vt-run"])
    def test_huge_levels_flag_exit_3_at_once(self, capsys, command):
        # the depth check reads prefix sums only up to the class depth, not to --levels
        extra = ("--mode", "density") if command == "vt-run" else ()
        start = time.perf_counter()
        assert run(command, *extra, "--class", "full:40", "--schedule", "kucera",
                   "--levels", "1000000000") == 3
        assert time.perf_counter() - start < 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: class depth 40 shallower than L(")

    def test_huge_code_file_levels_exit_3_at_once(self, workdir, capsys):
        src = workdir / "source.txt"
        src.write_text("1011\n")
        code = workdir / "code.txt"
        assert run("encode", "--class", "full:40", "--schedule", "gacs",
                   "--source", str(src), "--out", str(code)) == 0
        code.write_text(code.read_text().replace("levels=3\n", f"levels={10**9}\n"))
        capsys.readouterr()
        start = time.perf_counter()
        assert run("decode", "--class", "full:40", "--schedule", "gacs", "--code", str(code)) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: class depth 40 shallower than L({10**9})"]


class TestDeepAndLargeClasses:
    def test_prune_refuses_to_list_a_capped_class(self, workdir, capsys):
        # 2^23 members, above the 2^22 listing cap: refused before any output
        assert run("prune", "--class", "full:23", "--schedule", "kucera", "--levels", "2") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "4194304" in err
        target = workdir / "pstar.txt"
        assert run("prune", "--class", "full:23", "--schedule", "kucera", "--levels", "2",
                   "--out", str(target)) == 3
        assert not target.exists()

    def test_verify_depth_3000_class(self, capsys):
        assert run("verify", "--class", "seeded:3000:1", "--schedule", "kucera",
                   "--levels", "2") == 0
        assert capsys.readouterr().out.splitlines() == [
            "extension-property PASS", "density-property PASS"]

    def test_prune_depth_3000_class_hits_the_cap(self, capsys):
        assert run("prune", "--class", "seeded:3000:1", "--schedule", "kucera",
                   "--levels", "2") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "4194304" in err


def _thin_class_text() -> str:
    """Depth-10 class in which the cylinders of 011 and 1101 keep 1 and 2 members."""
    lines = ["depth 10"]
    for v in range(1 << 10):
        w = format(v, "010b")
        if w.startswith("011") and w != "0110100101":
            continue
        if w.startswith("1101") and w not in ("1101000011", "1101111111"):
            continue
        lines.append(w)
    return "\n".join(lines) + "\n"


class TestGoldenDigests:
    """sha256 of CLI artifacts, pinned so that a refactor cannot move their bytes."""

    GOLDEN = {
        "code.txt": "ece08d1c942c508929edfa416278777a0d49a6e04471704c9dfb966462ef7ec9",
        "code.txt.use.csv": "481d4286c01f6c383f960e69662b0797b5d4c560c0a9a8ccafb6215bd6973a4b",
        "recovered.txt": "136712be50948e2e85058a97c177220c977adbe01130b9426c713247b5f7d22d",
        "pruned.txt": "9347978033dd98d976c47d3b07752740749880e74c91f429c6837f9feae39576",
        "kucera.csv": "57e3e5cb99903eadcb4d6b1049a3d7e047fbca3328d4e4bd2e05785a250eaa58",
        "gacs.csv": "8ed1b8a2ec1724228ec9792ea4567a937b7b5e564bef3a6374edfe401d004cdb",
        "chain.csv": "37c71fb28deba3e9b402506e6a01bea31c5554c1bb6cf1d5fa062e9cd9fe34f2",
        "density.csv": "deeb31a7d675c962e6098915688fff6af9dfb58449b5b0dd376a60b6fdc1969c",
    }

    def test_artifacts_match_pinned_digests(self, workdir):
        def p(name):
            return str(workdir / name)

        (workdir / "source.txt").write_text("10110\n")  # 5 bits, padded to gacs M(3) = 6
        (workdir / "thin.txt").write_text(_thin_class_text())
        commands = [
            ("encode", "--class", "seeded:20:5", "--schedule", "gacs",
             "--source", p("source.txt"), "--out", p("code.txt")),
            ("decode", "--class", "seeded:20:5", "--schedule", "gacs",
             "--code", p("code.txt"), "--out", p("recovered.txt")),
            ("prune", "--class", p("thin.txt"), "--schedule", "kucera", "--levels", "2",
             "--out", p("pruned.txt")),
            ("report", "--schedule", "kucera", "--n-max", "300", "--out", p("kucera.csv")),
            ("report", "--schedule", "gacs", "--n-max", "300", "--out", p("gacs.csv")),
            ("vt-run", "--seed", "3", "--t-max", "3", "--out", p("chain.csv")),
            ("vt-run", "--mode", "density", "--class", "seeded:20:5", "--schedule", "kucera",
             "--levels", "3", "--out", p("density.csv")),
        ]
        for argv in commands:
            assert run(*argv) == 0, argv
        digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN


class TestDeciderDigests:
    """sha256 of the `label`, `splice-check` and `sweep` artifacts: the witness
    labelling and the splice steps the two searches pick first are pinned."""

    GOLDEN = {
        "labelable_chains_pair_fan.lab": "982abd499f751aefb1091f9939f16bcb041fdfffe8ef47c45bc7c74b3419944a",
        "labelable_chains_pair_fan.csv": "35d0cf71beb3fc49ec6de73b0b2c92cb94cb4aca737294718b815a642c6dfe74",
        "labelable_eight_chains.lab": "abf7ca2476c323e7b900bb7eb290a4e2ad08d4be3660cea4927d06f1ddcd4f61",
        "labelable_eight_chains.csv": "0e0f7a5f1354f2ff37a63213c7ca90a953b0ad60187fadaf0785e923dbbbd0c9",
        "labelable_fan_and_mixed.lab": "8b2c294f6ce2da7eda7ebd979f6d47c0da3abb99babc6140c2a6dd2ee6a98773",
        "labelable_fan_and_mixed.csv": "27118902b7002f0e2416344d1f06660949d67c502e45e56deb4d142a64b88fc2",
        "labelable_fan_and_pairs.lab": "f6c1981e0c1ea70a8748fc0f9684c64461fa4597ca7748a830249b3d38a6fe0f",
        "labelable_fan_and_pairs.csv": "91e76bcb0333fae2961af406ff5fe5af3f7ca31b5f6de823d2b86398d33f37d6",
        "labelable_four_chains_and_fan.lab": "002449ee8b440a64580a8888280b3e963c3b02dbe471ca91c9f1b9352ee978da",
        "labelable_four_chains_and_fan.csv": "e301daa3e4bfa23bc6de145351eaa786a3c535acc5e06711a852326b8d4dd338",
        "labelable_full_binary.lab": "458ab608dc7df1bbf87bcb5b53f03b75f9a57fa2ad90a0e12b3e382a611bb221",
        "labelable_full_binary.csv": "fc7d380837495c38ce7660105a0fcc8b03eb71de3b46c802164b73a5b2fa0c01",
        "labelable_mixed_arity.lab": "4b4cd6e254fe0f7ed25eae6e37566befa669ada44226a8e5ddc4314372f9846a",
        "labelable_mixed_arity.csv": "c8132491c09e5559fb9caaf5f5689e315ca603288f6e86286484ed2eb6c25519",
        "labelable_three_branch_root.lab": "aa6a572f8725125dffd84af6867f8df0dc0b7f3eb2d8db0a04e360371619eded",
        "labelable_three_branch_root.csv": "5491c41b58eafbbf6a24201d20a223d7ba39fb61e5b2efa2546f1e5b34aff414",
        "seeded_9.lab": "341200387c701a7822d93158b9cf57008874f18778e33545ef67d45703975915",
        "seeded_9.csv": "836c8fb621f1e786b9617968870af7c3e258bfd97e79d255504b5f9f61303a0b",
        "sweep.csv": "772e10749ebbdff2599903021229c9c3f274008e81c0d2fee23adac62e543dc6",
    }

    def test_artifacts_match_pinned_digests(self, workdir, seeded_tree):
        trees = {p.stem: p for p in sorted(FIXTURE_DIR.glob("labelable_*.txt"))}
        trees["seeded_9"] = workdir / "seeded_9.txt"
        save_tree(seeded_tree(9), trees["seeded_9"])
        for name, path in trees.items():
            assert run("label", "--tree", str(path), "--out", str(workdir / f"{name}.lab")) == 0
            assert run("splice-check", "--tree", str(path),
                       "--out", str(workdir / f"{name}.csv")) == 0
        assert run("sweep", "--count", "300", "--seed", "5", "--max-height", "4",
                   "--out", str(workdir / "sweep.csv")) == 0
        digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN
        assert len(trees) == 9  # eight labelable fixtures and the seeded tree


class TestTreeCommands:
    @pytest.mark.parametrize("name,expected", [
        ("labelable_full_binary", 0),
        ("labelable_eight_chains", 0),
        ("nonlabelable_narrow_one", 1),
    ])
    def test_label_and_splice_check_agree(self, workdir, name, expected):
        path = workdir / "t.txt"
        save_tree(fixture_trees()[name], path)
        assert run("label", "--tree", str(path),
                   "--out", str(workdir / "lab.txt")) == expected
        assert run("splice-check", "--tree", str(path),
                   "--out", str(workdir / "steps.csv")) == expected

    def test_sweep_exit_zero_and_header(self, workdir):
        out = workdir / "sweep.csv"
        assert run("sweep", "--count", "200", "--seed", "5", "--max-height", "2",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,hash,labelable,reducible,condition_satisfied"
        assert len(lines) == 201

    def test_empty_sweep(self, workdir):
        out = workdir / "empty.csv"
        assert run("sweep", "--count", "0", "--out", str(out)) == 0
        assert out.read_text().splitlines() == ["index,hash,labelable,reducible,condition_satisfied"]


class TestReportAndVt:
    def test_report_csv(self, workdir):
        out = workdir / "report.csv"
        assert run("report", "--schedule", "kucera", "--n-max", "32",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,use,redundancy,bound_nlogn,bound_sqrtnlogn"
        assert len(lines) == 33

    def test_vt_chain(self, workdir, capsys):
        out = workdir / "vt.csv"
        assert run("vt-run", "--seed", "3", "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == "t,length,count,measure,decay_bound"
        assert "witness at t=" in capsys.readouterr().out

    def test_unexpected_exception_exit_4(self, workdir, monkeypatch, capsys):
        # an exception from outside the package's hierarchy is a bug: one
        # "internal error:" line and exit 4, not a traceback and exit 1
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "random_vt_instance", deep)
        assert run("vt-run", "--seed", "3", "--out", str(workdir / "vt.csv")) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def test_vt_density_mode(self, workdir):
        out = workdir / "density.csv"
        assert run("vt-run", "--mode", "density", "--class", "full:13",
                   "--schedule", "kucera", "--levels", "3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,min_density,threshold,result"
        assert all(line.endswith("pass") for line in lines[1:])


class TestEntryPoint:
    def test_module_invocation(self, workdir):
        import subprocess
        import sys

        out = workdir / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cantorcode.cli", "report", "--schedule", "kucera",
             "--n-max", "8", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("n,use,redundancy")

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for sub in ("encode", "decode", "prune", "verify", "label",
                    "splice-check", "sweep", "report", "vt-run"):
            assert sub in text


class TestDeterminism:
    def test_identical_flags_identical_artifacts(self, workdir):
        pairs = []
        for tag in ("a", "b"):
            sweep = workdir / f"sweep_{tag}.csv"
            report = workdir / f"report_{tag}.csv"
            vt = workdir / f"vt_{tag}.csv"
            assert run("sweep", "--count", "150", "--seed", "17", "--out", str(sweep)) == 0
            assert run("report", "--schedule", "gacs", "--n-max", "64",
                       "--out", str(report)) == 0
            assert run("vt-run", "--seed", "21", "--out", str(vt)) == 0
            pairs.append((sweep.read_bytes(), report.read_bytes(), vt.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_seeded_class_is_stable(self, workdir):
        src = workdir / "source.txt"
        src.write_text("1011\n")
        outs = []
        for tag in ("a", "b"):
            code = workdir / f"code_{tag}.txt"
            assert run("encode", "--class", "seeded:24:33", "--schedule", "kucera",
                       "--source", str(src), "--out", str(code)) == 0
            outs.append(code.read_bytes())
        assert outs[0] == outs[1]

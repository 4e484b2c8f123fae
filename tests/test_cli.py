import hashlib
import json
import os
import re
import sys

import pytest

import qhecke.cli as cli
import qhecke.suites as suites
from qhecke.report import Report

# pinned `verify alt-centralizer` reports at seed 0: arguments, sha256
ALT_CENTRALIZER_PINS = [
    pytest.param(["--m", "2", "--n", "1", "--r", "3"],
                 "3205fa77137f2dd6639d90f4e823d9e9fee3ea9bd3b141232f3c73a8b6ffb1a4", id="2-1-3"),
    pytest.param(["--m", "1", "--n", "1", "--r", "3"],
                 "f4cf3ccc7f61ae4b1f6d7cd8790bc2876d9bbe5ab74266b024df92fbe8bf40a9", id="1-1-3"),
    pytest.param(["--m", "2", "--n", "1", "--r", "2", "--mode", "specialized"],
                 "6aa6689ae31a03eca86021fca3561517e93a6c139e4189004a91999a2e454da0",
                 id="2-1-2-specialized"),
    pytest.param(["--m", "2", "--n", "2", "--r", "2", "--mode", "specialized"],
                 "cac11c0e01848d59a7fb1d2db532375bc1eb662bfa1791fe24b11ec8792087ae",
                 id="2-2-2-specialized"),
    pytest.param(["--m", "1", "--n", "0", "--r", "3"],
                 "9fa1317b0ba763d249e8864de1d91133538ff826cac7ba99663571043d0f0f9e", id="1-0-3"),
    # even images of 12 and 10 dimensions: Gram matrices beyond 3 x 3
    pytest.param(["--m", "2", "--n", "0", "--r", "4"],
                 "b47a56f36e0d5e48baabcb84263b511ef70fad2806d1d6a498d2d6a046379573", id="2-0-4"),
    pytest.param(["--m", "1", "--n", "1", "--r", "4"],
                 "98f60ad013660fe0e292f7698fb8f63cea18f454afa91d8d20897ac0a2f65895", id="1-1-4"),
    # the square block at dimension 81, where closing C and B dominates
    pytest.param(["--m", "2", "--n", "2", "--r", "3"],
                 "183053b1e8bea6a28189a4a8782d86bc0d05ca7686d35dc1830e6ccc2d144bf0", id="2-2-3"),
]
ALT_CENTRALIZER_SEED_7 = (["--m", "2", "--n", "1", "--r", "3", "--seed", "7"],
                          "5d9cbdd90d53e21d073ef2ff1da4ba7b0007aa7f7177f33db43f7f9a6f4fdf38")

# `--help` pages and usage errors: sha256 of the JSON list [exit code, stdout,
# stderr] at 80 columns.  argparse words them differently from one Python
# version to another, so the pins hold on the version they were taken with
CLI_TEXT_PYTHON = (3, 11)
CLI_TEXT_PINS = [
    pytest.param(["--help"],
                 "bc794281150f52b0b5232a085749f4b461969fbbb81cfa81c6a7a013fa75a371", id="help"),
    pytest.param(["verify", "--help"],
                 "088c8764cc1a9956614e2245e12890f1e27554bd13817cd5c40859224569d34c",
                 id="verify-help"),
    pytest.param(["verify", "hecke", "--help"],
                 "50a766769c285b6c86a7fef1cd2d774b84c3e57986bd11be5f50825c25dbf614",
                 id="hecke-help"),
    pytest.param(["verify", "alt", "--help"],
                 "fd756b714598d57befa2da64d4f7ae9cb3ed2913825c87c2507a94c65da20133",
                 id="alt-help"),
    pytest.param(["verify", "schur-weyl", "--help"],
                 "0d16493100e09da9771bf01b8a7ed5031a32572404f4fd5258e99e12f6d6a53b",
                 id="schur-weyl-help"),
    pytest.param(["verify", "alt-centralizer", "--help"],
                 "545b49107eb9d7ea78c721ed33d9737fdb7d75fec3fc6c38c6a6ae218ef52dff",
                 id="alt-centralizer-help"),
    pytest.param(["verify", "specialize", "--help"],
                 "553db0c92d67f7b9b9eb81cf13695108d46f44d3ff18f6a9378ff53256034211",
                 id="specialize-help"),
    pytest.param(["dims", "--help"],
                 "d6d724065595be00715a176f8dfa44c05649a31953b8ade5fbdbe9235db78014",
                 id="dims-help"),
    pytest.param(["dump", "--help"],
                 "6f06ddf9d0633b9c73390703e16731180fd8e624b6586b888f05c61f651fa3be",
                 id="dump-help"),
    pytest.param([], "c7529c491a1e4b6fcc292ac5307c95b33ea604fbb729574fd5bd9de4af319470",
                 id="no-command"),
    pytest.param(["frobnicate"],
                 "57d319762b005320639d886bca6d11fb4d14c9630043815ef29d45c77efe2a07",
                 id="unknown-command"),
    pytest.param(["verify"],
                 "fb40b15a8e0e8984398c6823a436a325c297eaaaff769107841072ce3e96f8ff",
                 id="no-suite"),
    pytest.param(["verify", "frobnicate", "--r", "3"],
                 "7835378a64b4fff9414d49f6c1d81302e5961ec84b9678650e2c23466cbe2e14",
                 id="unknown-suite"),
    pytest.param(["verify", "hecke"],
                 "c545a040aeb2972ecc8d70a88416c0ebbb02d48884b729dd6e5dfcaad8b18619",
                 id="missing-r"),
    pytest.param(["verify", "schur-weyl", "--m", "1", "--n", "1"],
                 "98b07b61e0b94ecb0d8edb5d2c11d9f465d621515e3d74faeff76b0f06a4a39a",
                 id="missing-r-tensor"),
    pytest.param(["verify", "alt-centralizer", "--m", "1", "--n", "1", "--r", "2",
                  "--mode", "fast"],
                 "457f01577ad12cbcbdd6e85be0e5ca3c42bbd302a03e47eb0a4633e6072fb258",
                 id="bad-mode"),
    pytest.param(["verify", "hecke", "--r", "3", "--frobnicate"],
                 "b85aa65152fdd45c2a3c494e5f409d9b00b59a6cdfc2f192a72a15c6fdc9d9f0",
                 id="unknown-option"),
    pytest.param(["verify", "specialize", "--m", "1", "--n", "1", "--r", "3",
                  "--points", "-1,2"],
                 "8bb545c6b981e342517e6302afe880dc940b3a2e735b7b5ff6d89eae6350e039",
                 id="negative-points"),
]


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(["verify", "schur-weyl", "--m", "1", "--n", "1", "--r", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] == "pass"
        assert doc["tool"] == "qhecke"
        assert doc["config"]["m"] == "1"
        assert all(set(c) >= {"name", "status", "expected", "actual"}
                   for c in doc["checks"])

    def test_failure_exit_one(self, capsys, monkeypatch):
        failing = Report("hecke", {"r": 3})
        failing.add("synthetic", False, expected="0", actual="1")
        monkeypatch.setattr(cli, "suite_hecke", lambda r, seed, bound: failing)
        code, out, _ = run(["verify", "hecke", "--r", "3"], capsys)
        assert code == 1
        assert json.loads(out)["overall"] == "fail"

    def test_size_bound_exit_two(self, capsys):
        code, _, err = run(["verify", "hecke", "--r", "9"], capsys)
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "hecke"])   # missing --r
        assert exc.value.code == 2

    def test_alt_suite(self, capsys):
        code, out, _ = run(["verify", "alt", "--r", "3"], capsys)
        assert code == 0
        assert json.loads(out)["suite"] == "alt"

    def test_specialize_with_points(self, capsys):
        code, out, _ = run(["verify", "specialize", "--m", "1", "--n", "1",
                            "--r", "2", "--points", "2,3/2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["points"].startswith("2")

    def test_specialize_config_keeps_bound(self, capsys):
        code, out, _ = run(["verify", "specialize", "--m", "1", "--n", "1",
                            "--r", "2", "--bound", "100"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["bound"] == "100"

    def test_a_negative_first_point_takes_the_equals_form(self, capsys):
        code, out, _ = run(["verify", "specialize", "--m", "1", "--n", "1",
                            "--r", "2", "--points=-1,1/2"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["points"] == "-1,1/2"

    def test_a_negative_first_point_is_read_as_an_option_without_it(self, capsys):
        # argparse takes "-1,1/2" for an option, as the --points help says
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "specialize", "--m", "1", "--n", "1", "--r", "2",
                      "--points", "-1,1/2"])
        assert exc.value.code == 2
        assert "--points: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["1/0", "0", "x", ",", "", "2,2", "2,4/2", "3/2,5,6/4"])
    def test_bad_points_exit_two(self, points, capsys):
        code, _, err = run(["verify", "specialize", "--m", "1", "--n", "1",
                            "--r", "2", "--points", points], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("suite", ["hecke", "alt"])
    def test_dump_flag_rejected_without_tensor_space(self, suite, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--r", "3", "--dump"])
        assert exc.value.code == 2

    def test_dump_flag_includes_matrices(self, capsys):
        code, out, _ = run(["verify", "schur-weyl", "--m", "1", "--n", "1",
                            "--r", "2", "--dump"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "T1" in doc["dumps"]
        assert re.fullmatch(r"\d+ \d+ \(.*\)/\(.*\)", doc["dumps"]["T1"][0])


@pytest.mark.skipif(sys.version_info[:2] != CLI_TEXT_PYTHON,
                    reason="the pins hold the argparse wording of Python 3.11")
@pytest.mark.parametrize("args, digest", CLI_TEXT_PINS)
def test_help_and_usage_error_bytes_are_pinned(args, digest, capsys, monkeypatch):
    # the parser builds only the leaf that argv names; every page and error
    # must read as when the whole tree was built
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    out = capsys.readouterr()
    text = json.dumps([exc.value.code, out.out, out.err])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDimsCommand:
    def test_table_values(self, capsys):
        code, out, _ = run(["dims", "--m", "2", "--n", "0", "--r", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimA"] == "5" and doc["dimC"] == "3"
        assert doc["dimA0"] == "4" and doc["dimA1"] == "1"
        classes = {rec["partition"]: rec["class"] for rec in doc["records"]}
        assert classes == {"3": "h1", "2,1": "h0-selfconj"}

    @pytest.mark.parametrize("m, n", [("-1", "3"), ("3", "-1")])
    def test_negative_dimension_exit_two(self, m, n, capsys):
        code, out, err = run(["dims", "--m", m, "--n", n, "--r", "2"], capsys)
        assert code == 2 and out == ""
        assert "need m, n >= 0" in err

    @pytest.mark.parametrize("args", [
        ["dims", "--m", "1", "--n", "1", "--r", "2"],
        ["dump", "--m", "1", "--n", "1", "--r", "2", "--gen", "T1"],
    ], ids=["dims", "dump"])
    def test_unwritable_out_exit_two(self, args, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run([*args, "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not target.parent.exists()


@pytest.mark.parametrize("args", [
    ["dims", "--m", "1", "--n", "1", "--r", "2"],
    ["dump", "--m", "1", "--n", "1", "--r", "2", "--gen", "T1"],
    ["verify", "alt", "--r", "3"],
], ids=["dims", "dump", "alt"])
def test_seed_rejected_where_nothing_is_sampled(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--seed", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


class TestDumpCommand:
    def test_single_generator(self, capsys):
        code, out, _ = run(["dump", "--m", "1", "--n", "0", "--r", "2", "--gen", "T1"], capsys)
        assert code == 0
        assert out == "0 0 (q)/(1)\n"

    def test_limit(self, capsys):
        code, out, _ = run(["dump", "--m", "1", "--n", "1", "--r", "2",
                            "--gen", "Tp1", "--limit", "2"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        code, out, _ = run(["dump", "--m", "1", "--n", "1", "--r", "2",
                            "--gen", "Tp1", "--limit", "0"], capsys)
        assert code == 0
        assert out == ""
        code, out, err = run(["dump", "--m", "1", "--n", "1", "--r", "2",
                              "--gen", "Tp1", "--limit", "-1"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_phi_and_rho_labels(self, capsys):
        for gen in ("phi", "sigma", "qh1", "e1", "f1"):
            code, out, _ = run(["dump", "--m", "1", "--n", "1", "--r", "2",
                                "--gen", gen], capsys)
            assert code == 0 and out

    def test_unknown_label(self, capsys):
        code, _, err = run(["dump", "--m", "1", "--n", "1", "--r", "2",
                            "--gen", "nope"], capsys)
        assert code == 2 and "error" in err

    def test_timestamps_rejected(self, tmp_path, capsys):
        # a dump is plain lines, with no field to carry a timestamp
        target = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["dump", "--m", "1", "--n", "1", "--r", "2", "--gen", "T1",
                      "--timestamps", "--out", str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == "" and not target.exists()


class TestGoldenOutput:
    def test_identical_configs_identical_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (out1, out2):
            code = cli.main(["verify", "alt-centralizer", "--m", "1", "--n", "1",
                             "--r", "2", "--out", str(path)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args, digest", ALT_CENTRALIZER_PINS)
    def test_alt_centralizer_report_bytes_are_pinned(self, args, digest, tmp_path):
        # reports are a golden-file contract: a change in the linear algebra
        # must not change a single byte of them
        path = tmp_path / "r.json"
        code = cli.main(["verify", "alt-centralizer", *args, "--seed", "0",
                         "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        *(pytest.param([*p.values[0], "--seed", "0"], p.values[1], id=p.id)
          for p in ALT_CENTRALIZER_PINS),
        pytest.param(*ALT_CENTRALIZER_SEED_7, id="2-1-3-seed-7"),
    ])
    def test_alt_centralizer_pins_hold_without_the_trace_certificate(
            self, args, digest, tmp_path, monkeypatch):
        # the eliminated D and double commutant give every report the
        # certificate and the Casimir give
        declined = []

        def decline(alg):
            declined.append(alg)
            return False, None

        monkeypatch.setattr(suites, "trace_form_certificate", decline)
        path = tmp_path / "r.json"
        code = cli.main(["verify", "alt-centralizer", *args, "--out", str(path)])
        assert code == 0 and declined
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["--m", "1", "--n", "1", "--r", "3"],
         "4373d9ff33a1dd1dbe633478e5565b8dff9d70a28e1662cab715e16fb4695843"),
        (["--m", "1", "--n", "1", "--r", "3", "--mode", "specialized"],
         "47df9a8070348e3a692d0226fa8ed1d5c8bb59a2656578abbd6fcc4ec6dc9e22"),
        (["--m", "2", "--n", "0", "--r", "4"],
         "f7d6daf9ba47980329abde0d4f169e1e621aef31bce395656376eef89891c48d"),
        (["--m", "1", "--n", "1", "--r", "4", "--mode", "exact"],
         "74d05b6a85a2dd62110173cf8698f5e258e36399aeb1bf858787f6146b172848"),
        (["--m", "2", "--n", "1", "--r", "2"],
         "307484b02fe299dbea3e01dc8d8007e64d0989ab314e6492900452089d39a921"),
        # closures of 42 and 56 elements at dimension 32, where the closure dominates
        (["--m", "2", "--n", "0", "--r", "5"],
         "84eccba4cef0667ac1099e1382620511e178a85f054d0b88b3170df7f11d2730"),
    ], ids=["1-1-3", "1-1-3-specialized", "2-0-4", "1-1-4-exact", "2-1-2", "2-0-5"])
    def test_schur_weyl_report_bytes_are_pinned(self, args, digest, tmp_path):
        path = tmp_path / "r.json"
        code = cli.main(["verify", "schur-weyl", *args, "--seed", "0", "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["verify", "hecke", "--r", "2"],
         "51139ee7b273848e4a12e37fae02401312fa5e336df87cf7dcc260dea95aa493"),
        (["verify", "hecke", "--r", "3"],
         "5a43db3751a93c675952444d6eee2e58d06b968c5c38b2f5e943583852204b67"),
        (["verify", "hecke", "--r", "4"],
         "d320cdbd2f58ab2093539c199d975e0052f09bfb9739ef4e6186e7a4bfec15df"),
        (["verify", "hecke", "--r", "5"],
         "16156828b7e45b2cc4ab11b07042c9fc5315f4b16e6315fb4413968a8602c569"),
        (["verify", "hecke", "--r", "6"],
         "bf3a7b141a744994962f2cc1cdaea7b13248ae381eb63c511ff0176162076a7d"),
        (["verify", "alt", "--r", "2"],
         "3542c6bd912630004e6c4805d8f32122671e8d8c20e3787e0e16013efce994bf"),
        (["verify", "alt", "--r", "3"],
         "e9bdf4220bb2b68022c041b6ff656327dc6aba7e72303d16695ddb66b7dc2a99"),
        (["verify", "alt", "--r", "4"],
         "5074bee0ba1459d33797923f10f7817ca217f582dbb63df8d336846103ba7510"),
        (["verify", "alt", "--r", "5"],
         "fc701178276888791a4e85f98e2fdcbfda7d6ab70495cedb7081739ecf231f2e"),
        (["dump", "--m", "1", "--n", "1", "--r", "3", "--gen", "Tp1"],
         "30253d8da04a72fd47539094e14a045fc2bf9fb3b399b3a4a0393f60761f502c"),
        (["dump", "--m", "1", "--n", "1", "--r", "3", "--gen", "X1"],
         "2615af7a4d66713b85f8e81dcb5c65f711b82d160b76f5d9412dfbcc441e0222"),
        (["dump", "--m", "2", "--n", "2", "--r", "2", "--gen", "e2"],
         "1cba02b92d719cd99215f48cefb621feffd757b1a12f77c3a4d7885efec3f7a2"),
        (["dump", "--m", "2", "--n", "2", "--r", "2", "--gen", "sigma"],
         "b3d9b9bce721214661f1d7d2e8dc40bd953426ef7777f8558b51833a42cc66f7"),
        (["dump", "--m", "2", "--n", "2", "--r", "2", "--gen", "qh3"],
         "656333e8daf2195d52a23589633d5046eb5ca61586040e8dde5b3584868dcc94"),
        (["dump", "--m", "2", "--n", "2", "--r", "2", "--gen", "f2"],
         "2d2c2a7c804e694962d28e459123cf7592c4dc7fb3d9bcd51116c2bcb3409aa7"),
        (["dump", "--m", "2", "--n", "2", "--r", "2", "--gen", "phi"],
         "6669728a513c441c4b5319c60b8ff4b8ea9fbfd231b0f76e8474197862dfcfd1"),
        (["dump", "--m", "2", "--n", "1", "--r", "3", "--gen", "T2"],
         "c67f458a559f5a9d54d95c180ade8e28f6a8ca4423c15bb8236d406706060a11"),
    ], ids=["hecke-2", "hecke-3", "hecke-4", "hecke-5", "hecke-6", "alt-2", "alt-3", "alt-4",
            "alt-5", "dump-Tp1", "dump-X1", "dump-e2",
            "dump-sigma", "dump-qh3", "dump-f2", "dump-phi", "dump-T2"])
    def test_hecke_side_and_dump_bytes_are_pinned(self, args, digest, tmp_path):
        path = tmp_path / "r.out"
        seed = ["--seed", "0"] if args[:2] == ["verify", "hecke"] else []
        code = cli.main([*args, *seed, "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["verify", "specialize", "--m", "1", "--n", "1", "--r", "3", "--seed", "0"],
         "62e171f71381737641672154236dff337ad8c471004fa51d57e67b65b8df7880"),
        (["verify", "alt-centralizer", *ALT_CENTRALIZER_SEED_7[0]], ALT_CENTRALIZER_SEED_7[1]),
        # the lone point 15 is seed 0's second draw: the fill must skip it
        (["verify", "specialize", "--m", "1", "--n", "1", "--r", "3", "--points", "15"],
         "a20e951f02f9767136a2011811bbf9e6f81988c4ab6c3c0a058b1ed012a1ca88"),
        # these seeds once drew sampled elements whose products a numerator
        # left with q^2 + 1 would change; now they pick the even words whose
        # T'-coordinates the direct-sum records read
        (["verify", "hecke", "--r", "6", "--seed", "820626892"],
         "e845d7d10953557773aed3f2e511cd981df8af6a8775ce472cac315f1a6874f7"),
        (["verify", "hecke", "--r", "6", "--seed", "1924014660"],
         "05fee7ceb34467c9d212e6a56f668377f01ef551af66b71bd0da6bb30d4b4629"),
        (["verify", "hecke", "--r", "7", "--bound", "7", "--seed", "0"],
         "5197617426807ee9c9403537605b739918d3a103d421bf8d0da9edd0afc2cdb8"),
        (["verify", "alt", "--r", "6"],
         "25bb2f08d02a26fe0efbaebb0bce13b94b0f2804a6e4956039fa51d04d2bdb43"),
        (["verify", "alt", "--r", "7", "--bound", "7"],
         "347b645028f1846c2eb47c8a50b3fad11b11e5eb4c8a23844db008348dfd5dd1"),
        (["verify", "alt", "--r", "8", "--bound", "8"],
         "2ae79de0b6a0d3f481caf81d2b0e24948b3bbacc38cfae6dbabff35513930d9b"),
    ], ids=["specialize-1-1-3", "alt-centralizer-2-1-3-seed-7", "specialize-1-1-3-points-15",
            "hecke-6-seed-820626892", "hecke-6-seed-1924014660", "hecke-7-bound-7",
            "alt-6", "alt-7-bound-7", "alt-8-bound-8"])
    def test_specialize_and_seeded_reports_are_pinned(self, args, digest, tmp_path):
        path = tmp_path / "r.json"
        code = cli.main([*args, "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_no_timestamp_by_default(self, tmp_path):
        path = tmp_path / "r.json"
        cli.main(["dims", "--m", "1", "--n", "1", "--r", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        assert "generated_at" not in doc

    def test_timestamp_opt_in(self, tmp_path):
        path = tmp_path / "r.json"
        cli.main(["dims", "--m", "1", "--n", "1", "--r", "2", "--timestamps",
                  "--out", str(path)])
        assert "generated_at" in json.loads(path.read_text())


@pytest.mark.parametrize("args", [
    ["alt-centralizer", "--m", "2", "--n", "1", "--r", "3"],
    ["alt-centralizer", "--m", "1", "--n", "1", "--r", "3", "--mode", "specialized"],
    ["schur-weyl", "--m", "1", "--n", "1", "--r", "3", "--mode", "specialized"],
    ["specialize", "--m", "1", "--n", "1", "--r", "3"],
], ids=["alt-centralizer-2-1-3", "alt-centralizer-1-1-3", "schur-weyl-1-1-3", "specialize"])
def test_points_run_in_this_process(args, tmp_path, monkeypatch):
    # every specialization point is evaluated here, one after the other
    def forbidden():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", forbidden)
    assert cli.main(["verify", *args, "--out", str(tmp_path / "r.json")]) == 0

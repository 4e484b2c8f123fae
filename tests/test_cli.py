import hashlib
import json
import os
import re

import pytest

import qhecke.cli as cli
import qhecke.commutant as commutant
import qhecke.suites as suites
from qhecke.report import Report

# pinned `verify alt-centralizer` reports at seed 0: arguments, sha256
ALT_CENTRALIZER_PINS = [
    pytest.param(["--m", "2", "--n", "1", "--r", "3"],
                 "3205fa77137f2dd6639d90f4e823d9e9fee3ea9bd3b141232f3c73a8b6ffb1a4", id="2-1-3"),
    pytest.param(["--m", "1", "--n", "1", "--r", "3"],
                 "a88e1ef815e3490819a298b5c16ec796cca0bb900e5991cf39b4297fc077a8dc", id="1-1-3"),
    pytest.param(["--m", "2", "--n", "1", "--r", "2", "--mode", "specialized"],
                 "6aa6689ae31a03eca86021fca3561517e93a6c139e4189004a91999a2e454da0",
                 id="2-1-2-specialized"),
    pytest.param(["--m", "2", "--n", "2", "--r", "2", "--mode", "specialized"],
                 "5a6a0dabc0e04af12796ab6ee441a30df2cdc6318b8d3ea68a58f3aa0345229f",
                 id="2-2-2-specialized"),
    pytest.param(["--m", "1", "--n", "0", "--r", "3"],
                 "9fa1317b0ba763d249e8864de1d91133538ff826cac7ba99663571043d0f0f9e", id="1-0-3"),
    # even images of 12 and 10 dimensions: Gram matrices beyond 3 x 3
    pytest.param(["--m", "2", "--n", "0", "--r", "4"],
                 "b47a56f36e0d5e48baabcb84263b511ef70fad2806d1d6a498d2d6a046379573", id="2-0-4"),
    pytest.param(["--m", "1", "--n", "1", "--r", "4"],
                 "91583f741717a3a56f0ef441d80126505711eecc8709edb7d323bdac1e38e568", id="1-1-4"),
]
ALT_CENTRALIZER_SEED_7 = (["--m", "2", "--n", "1", "--r", "3", "--seed", "7"],
                          "5d9cbdd90d53e21d073ef2ff1da4ba7b0007aa7f7177f33db43f7f9a6f4fdf38")


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
        # the eliminated double commutant gives every report the certificate gives
        declined = []

        def decline(alg):
            declined.append(alg)
            return False

        monkeypatch.setattr(suites, "trace_form_is_nondegenerate", decline)
        path = tmp_path / "r.json"
        code = cli.main(["verify", "alt-centralizer", *args, "--out", str(path)])
        assert code == 0 and declined
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["--m", "1", "--n", "1", "--r", "3"],
         "4373d9ff33a1dd1dbe633478e5565b8dff9d70a28e1662cab715e16fb4695843"),
        (["--m", "1", "--n", "1", "--r", "3", "--mode", "specialized"],
         "912270faa1f89bbe451ab29080bea9dc159f4b15ae39511c07e4542f7daeaf5e"),
        (["--m", "2", "--n", "0", "--r", "4"],
         "6db6dfd376f285c5b86ce3855f2c709034b9331e8260a4caa5d9792338df3745"),
        (["--m", "1", "--n", "1", "--r", "4", "--mode", "exact"],
         "74d05b6a85a2dd62110173cf8698f5e258e36399aeb1bf858787f6146b172848"),
        (["--m", "2", "--n", "1", "--r", "2"],
         "aa82e80cd38531406f4a44add2cacf2bf3ab1597f8bf7543e8da0c52306c0fca"),
    ], ids=["1-1-3", "1-1-3-specialized", "2-0-4", "1-1-4-exact", "2-1-2"])
    def test_schur_weyl_report_bytes_are_pinned(self, args, digest, tmp_path):
        path = tmp_path / "r.json"
        code = cli.main(["verify", "schur-weyl", *args, "--seed", "0", "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["verify", "hecke", "--r", "2"],
         "5063cd6e82eda58b9c880ad724077d54ccaf97fc32cf3b581567766aca5db78d"),
        (["verify", "hecke", "--r", "3"],
         "2079da783c6616b16af41e3c4db7240038d01ee1ec5b26c17e44220e6e1ab3f6"),
        (["verify", "hecke", "--r", "4"],
         "75441cbedfd8346c0052fe737b5c8415d4830eab887b1bfa21cd1029d8ffbae9"),
        (["verify", "hecke", "--r", "5"],
         "b2142c33f146be152650ec9d184e05720bfb1443543b0ab6051d7eee09e8fcb9"),
        (["verify", "hecke", "--r", "6"],
         "22354e243f4fcd0663fd5a5c0527deb33b60395956c097e8786cd153e91003bb"),
        (["verify", "alt", "--r", "2"],
         "d3b140041f3f51257b563404cab6a93b4b005f84b35f6415453686374969fe00"),
        (["verify", "alt", "--r", "3"],
         "f8629e29f998195bf9cf67f545357de246acab7d8ad3617559db20f57008959c"),
        (["verify", "alt", "--r", "4"],
         "fc9fd1efaa2af055b5de0ce8a444b9deb6721e8ab64b3994ee7829923a9cd397"),
        (["verify", "alt", "--r", "5"],
         "9f9df94d6050fc069a09ee2f4dffb88b96cd0be769e7fc1b5f74e129e9c4b214"),
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
        code = cli.main([*args, "--seed", "0", "--out", str(path)])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["verify", "specialize", "--m", "1", "--n", "1", "--r", "3", "--seed", "0"],
         "62e171f71381737641672154236dff337ad8c471004fa51d57e67b65b8df7880"),
        (["verify", "alt-centralizer", *ALT_CENTRALIZER_SEED_7[0]], ALT_CENTRALIZER_SEED_7[1]),
        # the lone point 15 is seed 0's second draw: the fill must skip it
        (["verify", "specialize", "--m", "1", "--n", "1", "--r", "3", "--points", "15"],
         "a20e951f02f9767136a2011811bbf9e6f81988c4ab6c3c0a058b1ed012a1ca88"),
        # at these seeds a Hecke product left with q^2 + 1 in its numerator
        # would change the report
        (["verify", "hecke", "--r", "6", "--seed", "820626892"],
         "667dc8180f0c39d4668dfb9b07546050093736a594af1afb576e89bb275661e6"),
        (["verify", "hecke", "--r", "6", "--seed", "1924014660"],
         "9c0cd8507fe15b2b614ea9f8eeafec90c7419637b01e42f6a661bff5da8ed5cb"),
        (["verify", "hecke", "--r", "7", "--bound", "7", "--seed", "0"],
         "279843a5c84de271921f7e4a22a24353481a4d731442ef0018e11d65f13118ee"),
        # no `verify alt` record samples: the seed reaches only the params echo
        (["verify", "alt", "--r", "5", "--seed", "7"],
         "ed954c682d2ba8c008d316d1dfd69c856953a4f354a122c10ff40db7bea1a29a"),
        (["verify", "alt", "--r", "6", "--seed", "0"],
         "4b1f9fa31d9fab6d3ce663767af5e2655472daf0713697117311cd35b4af49b8"),
        (["verify", "alt", "--r", "7", "--bound", "7", "--seed", "0"],
         "f0edf5c98bb4fe8b681f7e204720a1d3a22409b39b6cc3ed43876e5de16f42d4"),
        (["verify", "alt", "--r", "8", "--bound", "8", "--seed", "0"],
         "b169f7d25179cb55b3b7e98737100e43f3d9001b174514b8bc94b307df133a95"),
    ], ids=["specialize-1-1-3", "alt-centralizer-2-1-3-seed-7", "specialize-1-1-3-points-15",
            "hecke-6-seed-820626892", "hecke-6-seed-1924014660", "hecke-7-bound-7",
            "alt-5-seed-7", "alt-6", "alt-7-bound-7", "alt-8-bound-8"])
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


class TestForkedPointDeterminism:
    """The second specialization point runs in a forked child; every report
    is byte-identical to the serial run's."""

    @staticmethod
    def report(args, path) -> bytes:
        assert cli.main(["verify", *args, "--out", str(path)]) == 0
        return path.read_bytes()

    def check(self, args, tmp_path, monkeypatch):
        may_fork, forks, fork = commutant._may_fork(), [], os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        concurrent = self.report(args, tmp_path / "forked.json")
        monkeypatch.setattr(commutant, "_may_fork", lambda: False)
        serial = self.report(args, tmp_path / "serial.json")
        assert concurrent == serial
        assert len(forks) == (1 if may_fork else 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_alt_centralizer(self, seed, tmp_path, monkeypatch):
        self.check(["alt-centralizer", "--m", "2", "--n", "1", "--r", "3", "--seed", str(seed)],
                   tmp_path, monkeypatch)

    def test_schur_weyl_specialized(self, tmp_path, monkeypatch):
        self.check(["schur-weyl", "--m", "1", "--n", "1", "--r", "3", "--mode", "specialized"],
                   tmp_path, monkeypatch)

    def test_specialize(self, tmp_path, monkeypatch):
        self.check(["specialize", "--m", "1", "--n", "1", "--r", "3"], tmp_path, monkeypatch)

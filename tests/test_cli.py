import contextlib
import io
import json
import math

import numpy as np
import pytest

from phasesort import Key, beta, beta_tilde, cli, frame_keys, generate_key, numerics
from phasesort.matrixio import load_matrix, save_matrix

from conftest import A_REF, run_cli


@pytest.fixture
def a_ref_file(tmp_path):
    path = tmp_path / "aref.txt"
    save_matrix(path, A_REF)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "ident.txt"
    save_matrix(path, np.eye(2))
    return str(path)


def test_keygen_deterministic(tmp_path):
    out1, out2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
    for out in (out1, out2):
        res = run_cli("keygen", "--rows", "2", "--cols", "3", "--seed", "7", "--out", str(out))
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_keygen_rejects_zero_rows(tmp_path):
    res = run_cli("keygen", "--rows", "0", "--cols", "3", "--seed", "1",
                  "--out", str(tmp_path / "k.txt"))
    assert res.returncode == 2


def test_keygen_unwritable_path():
    res = run_cli("keygen", "--rows", "2", "--cols", "3", "--seed", "1",
                  "--out", "/nonexistent-dir/k.txt")
    assert res.returncode == 2


def test_blank_line_inside_key_file_is_a_usage_error(tmp_path):
    keyfile = tmp_path / "k.txt"
    keyfile.write_text("1.0,0.0,1.0\n\n0.0,1.0,1.0\n")
    res = run_cli("check", str(keyfile))
    assert res.returncode == 2
    assert b"line 2: blank line inside the matrix" in res.stderr


def test_keygen_check_pipeline(tmp_path):
    keyfile = tmp_path / "k.txt"
    run_cli("keygen", "--rows", "3", "--cols", "7", "--seed", "13", "--out", str(keyfile))
    res = run_cli("check", str(keyfile))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["schema"] == 1
    assert report["inputs"]["d"] == 3 and report["inputs"]["D"] == 7
    assert report["all_true"]


def test_check_reference_all_true(a_ref_file):
    res = run_cli("check", a_ref_file)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert [c["verdict"] for c in report["certificates"].values()] == [True] * 4


def test_check_identity_negative_with_witness(identity_file):
    res = run_cli("check", identity_file, "--certificate", "universal-key")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    cert = report["certificates"]["universal-key"]
    assert cert["verdict"] is False
    assert cert["witness"] == {"partition": [1]}


def test_check_too_few_columns_not_universal(tmp_path):
    keyfile = tmp_path / "k34.txt"
    run_cli("keygen", "--rows", "3", "--cols", "4", "--seed", "3", "--out", str(keyfile))
    res = run_cli("check", str(keyfile), "--certificate", "universal-key")
    assert res.returncode == 1


def test_check_search_too_large_exit_code(tmp_path):
    keyfile = tmp_path / "wide.txt"
    run_cli("keygen", "--rows", "2", "--cols", "25", "--seed", "3", "--out", str(keyfile))
    res = run_cli("check", str(keyfile), "--certificate", "complement")
    assert res.returncode == 3


def test_check_missing_file_is_usage_error():
    res = run_cli("check", "/no/such/file.txt")
    assert res.returncode == 2


def test_bounds_reference(a_ref_file):
    res = run_cli("bounds", a_ref_file)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["constants"]["A0"] == pytest.approx(0.61803398874989, abs=1e-12)
    assert report["constants"]["B0"] == pytest.approx(1.73205080756888, abs=1e-12)
    assert report["I0"] == [1]
    assert report["achievement"]["passed"] is True
    assert report["achievement"]["lower_checked"] is True


def test_bounds_random_certified_key(tmp_path):
    keyfile = tmp_path / "k.txt"
    run_cli("keygen", "--rows", "3", "--cols", "6", "--seed", "21", "--out", str(keyfile))
    res = run_cli("bounds", str(keyfile))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["achievement"] == {"passed": True, "lower_checked": True}
    assert 0 < report["constants"]["A0"] <= report["constants"]["B0"]


def test_bounds_key_near_the_top_of_the_float_range(tmp_path):
    # entries near 2^530: the squares in the achievement gaps' norms would
    # overflow. The unscaled key is not injective (D < 2d - 1).
    from phasesort import generate_key

    reports = {}
    for name, scale in (("plain", 1.0), ("big", 2.0**530)):
        keyfile = str(tmp_path / f"{name}.txt")
        save_matrix(keyfile, generate_key(4, 6, 3).matrix * scale)
        res = run_cli("bounds", keyfile)
        assert res.returncode == 0, res.stderr
        reports[name] = json.loads(res.stdout)
    plain, big = reports["plain"], reports["big"]
    assert plain["constants"] == {"A0": 0.0, "B0": 4.506696688470179}
    assert (plain["I0"], plain["achievement"]) == ([1, 2, 3], {"passed": True, "lower_checked": False})
    assert (big["I0"], big["constants"]["A0"], big["achievement"]) == (
        plain["I0"], 0.0, plain["achievement"])
    # LAPACK rescales a matrix with entries beyond about 2^459
    want = 2.0**530 * plain["constants"]["B0"]
    assert abs(big["constants"]["B0"] - want) <= 1e-14 * want


def test_bounds_identity_degenerate(identity_file):
    res = run_cli("bounds", identity_file)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["constants"]["A0"] == 0.0
    assert report["degenerate_lower"] is True
    assert report["achievement"]["lower_checked"] is False


def test_encode_alpha(a_ref_file, tmp_path):
    xfile = tmp_path / "x.txt"
    save_matrix(xfile, np.array([[1.0, 2.0]]))
    outfile = tmp_path / "y.txt"
    res = run_cli("encode", "--encoder", "alpha", "--key", a_ref_file,
                  "--input", str(xfile), "--out", str(outfile))
    assert res.returncode == 0
    assert outfile.read_text() == "1.0,2.0,3.0\n"


def test_encode_beta_with_perms(tmp_path, identity_file):
    xfile = tmp_path / "X.txt"
    save_matrix(xfile, np.array([[1.0, 2.0], [3.0, 4.0]]))
    outfile, permfile = tmp_path / "Y.txt", tmp_path / "P.txt"
    res = run_cli("encode", "--encoder", "beta", "--key", identity_file,
                  "--input", str(xfile), "--out", str(outfile), "--perms", str(permfile))
    assert res.returncode == 0
    assert outfile.read_text() == "3.0,4.0\n1.0,2.0\n"
    np.testing.assert_array_equal(load_matrix(permfile), [[2.0, 1.0], [2.0, 1.0]])


def test_encode_beta_tilde_equal_rows(a_ref_file, tmp_path):
    xfile = tmp_path / "X.txt"
    save_matrix(xfile, np.array([[1.0, 2.0], [1.0, 2.0]]))
    outfile = tmp_path / "Y.txt"
    res = run_cli("encode", "--encoder", "beta-tilde", "--key", a_ref_file,
                  "--input", str(xfile), "--out", str(outfile))
    assert res.returncode == 0
    np.testing.assert_array_equal(load_matrix(outfile), [[1.0, 2.0, 0.0, 0.0, 0.0]])


def test_encode_shape_mismatch(a_ref_file, tmp_path):
    xfile = tmp_path / "bad.txt"
    save_matrix(xfile, np.array([[1.0, 2.0, 3.0]]))
    res = run_cli("encode", "--encoder", "beta", "--key", a_ref_file,
                  "--input", str(xfile), "--out", str(tmp_path / "y.txt"))
    assert res.returncode == 2


def test_decode_roundtrip(a_ref_file, tmp_path):
    xfile, yfile, backfile = tmp_path / "X.txt", tmp_path / "Y.txt", tmp_path / "B.txt"
    cfg = np.array([[0.25, -1.5], [2.0, 0.75]])
    save_matrix(xfile, cfg)
    run_cli("encode", "--encoder", "beta", "--key", a_ref_file,
            "--input", str(xfile), "--out", str(yfile))
    res = run_cli("decode", "--encoder", "beta", "--key", a_ref_file,
                  "--input", str(yfile), "--out", str(backfile),
                  "--report", str(tmp_path / "rep.json"))
    assert res.returncode == 0
    rec = load_matrix(backfile)
    gap = min(np.linalg.norm(rec - cfg), np.linalg.norm(rec - cfg[::-1]))
    assert gap <= 1e-8
    # canonical row order: first differing coordinate favors the top row
    flat0, flat1 = rec[0], rec[1]
    j = np.argmax(flat0 != flat1)
    assert flat0[j] > flat1[j]
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["residual"] <= 1e-9
    assert b"residual" in res.stderr


def test_decode_beta_tilde_roundtrip(a_ref_file, tmp_path):
    xfile, yfile, backfile = tmp_path / "X.txt", tmp_path / "Y.txt", tmp_path / "B.txt"
    cfg = np.array([[0.5, 0.5], [-0.25, 1.0]])
    save_matrix(xfile, cfg)
    run_cli("encode", "--encoder", "beta-tilde", "--key", a_ref_file,
            "--input", str(xfile), "--out", str(yfile))
    res = run_cli("decode", "--encoder", "beta-tilde", "--key", a_ref_file,
                  "--input", str(yfile), "--out", str(backfile))
    assert res.returncode == 0
    rec = load_matrix(backfile)
    gap = min(np.linalg.norm(rec - cfg), np.linalg.norm(rec - cfg[::-1]))
    assert gap <= 1e-8


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("encoder", ["beta", "beta-tilde"])
@pytest.mark.parametrize("scales", [(1.0, 1.0), (1e150, 1e155)], ids=["x1", "x1e150"])
def test_decode_report_residual_is_finite_at_any_scale(tmp_path, capsys, encoder, scales):
    # the 3x8 key of keygen seed 1 and a 2x3 signal; times 1e150 and 1e155
    # the re-encoding's entries are near 1e305, whose squares overflow. The
    # residual is taken on the input's power-of-two scale: the report is
    # standard JSON with a finite residual, and at normal scale it has the
    # bits of np.linalg.norm of the re-encoding's gap
    key_scale, signal_scale = scales
    keyfile, xfile, yfile = tmp_path / "k.txt", tmp_path / "x.txt", tmp_path / "y.txt"
    backfile, repfile = tmp_path / "b.txt", tmp_path / "rep.json"
    key = Key(generate_key(3, 8, 1).matrix * key_scale)
    save_matrix(keyfile, key.matrix)
    save_matrix(xfile, np.array([[0.3, -1.2, 0.7], [1.1, 0.4, -0.5]]) * signal_scale)
    common = ["--encoder", encoder, "--key", str(keyfile)]
    assert cli.main(["encode", *common, "--input", str(xfile), "--out", str(yfile)]) == 0
    assert cli.main(["decode", *common, "--input", str(yfile), "--out", str(backfile),
                     "--report", str(repfile)]) == 0
    report = json.loads(repfile.read_text(), parse_constant=_refuse_constant)
    residual = report["residual"]
    assert f"decode: residual {residual!r}" in capsys.readouterr().err
    data, rec = load_matrix(yfile), load_matrix(backfile)
    assert 0.0 <= residual <= 1e-12 * np.abs(data).max()
    if key_scale == 1.0:
        gap = (beta(key, rec).matrix - data if encoder == "beta"
               else beta_tilde(key, rec) - data.ravel())
        assert np.float64(residual).tobytes() == np.linalg.norm(gap).tobytes()


def test_decode_corrupted_input(a_ref_file, tmp_path):
    xfile, yfile = tmp_path / "X.txt", tmp_path / "Y.txt"
    save_matrix(xfile, np.array([[0.3, 1.1], [-0.4, 0.2]]))
    run_cli("encode", "--encoder", "beta", "--key", a_ref_file,
            "--input", str(xfile), "--out", str(yfile))
    m = load_matrix(yfile)
    m[0, 0] += 0.5
    save_matrix(yfile, m)
    res = run_cli("decode", "--encoder", "beta", "--key", a_ref_file,
                  "--input", str(yfile), "--out", str(tmp_path / "B.txt"))
    assert res.returncode == 1


def test_decode_zero_embedding(a_ref_file, tmp_path):
    yfile, backfile = tmp_path / "Y.txt", tmp_path / "B.txt"
    save_matrix(yfile, np.zeros((2, 3)))
    res = run_cli("decode", "--encoder", "beta", "--key", a_ref_file,
                  "--input", str(yfile), "--out", str(backfile))
    assert res.returncode == 0
    np.testing.assert_array_equal(load_matrix(backfile), np.zeros((2, 2)))


def test_decode_uncertified_key(identity_file, tmp_path):
    yfile = tmp_path / "Y.txt"
    save_matrix(yfile, np.zeros((2, 2)))
    res = run_cli("decode", "--encoder", "beta", "--key", identity_file,
                  "--input", str(yfile), "--out", str(tmp_path / "B.txt"))
    assert res.returncode == 1
    assert b"certificate" in res.stderr


def test_metric_hat_h(tmp_path):
    xfile, yfile = tmp_path / "x.txt", tmp_path / "y.txt"
    save_matrix(xfile, np.array([[1.0, 0.0]]))
    save_matrix(yfile, np.array([[-1.0, 0.0]]))
    res = run_cli("metric", "--space", "hatH", "--x", str(xfile), "--y", str(yfile))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["distance"] == 0.0
    assert report["permutation"] is None


def test_metric_hat_v(tmp_path):
    xfile, yfile = tmp_path / "x.txt", tmp_path / "y.txt"
    cfg = np.array([[1.0, 2.0], [3.0, 4.0]])
    save_matrix(xfile, cfg)
    save_matrix(yfile, cfg[::-1])
    res = run_cli("metric", "--space", "hatV", "--x", str(xfile), "--y", str(yfile))
    report = json.loads(res.stdout)
    assert report["distance"] == 0.0
    assert report["permutation"] == [2, 1]


def test_metric_against_zero(tmp_path):
    xfile, yfile = tmp_path / "x.txt", tmp_path / "y.txt"
    cfg = np.array([[3.0, 0.0], [0.0, 4.0]])
    save_matrix(xfile, cfg)
    save_matrix(yfile, np.zeros((2, 2)))
    res = run_cli("metric", "--space", "hatV", "--x", str(xfile), "--y", str(yfile))
    assert json.loads(res.stdout)["distance"] == pytest.approx(5.0)


@pytest.mark.parametrize("space,x,y,dist,perm", [
    ("hatH", [[3e200, 1e200]], [[1e200, -2e200]], math.sqrt(13.0) * 1e200, None),
    ("hatV", [[3e200, 1e200], [-1e200, 2e200]], [[1e200, -2e200], [2e200, 5e199]],
     math.sqrt(21.25) * 1e200, [2, 1])], ids=["hatH", "hatV"])
def test_metric_is_finite_at_1e200(tmp_path, space, x, y, dist, perm):
    # each pair is measured on its own power-of-two scale: the squares of
    # entries near 1e200 would overflow, and at hatV every row order would
    # tie at inf, reporting the first order, not the minimizer
    xfile, yfile = tmp_path / "x.txt", tmp_path / "y.txt"
    save_matrix(xfile, np.array(x))
    save_matrix(yfile, np.array(y))
    res = run_cli("metric", "--space", space, "--x", str(xfile), "--y", str(yfile))
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout, parse_constant=_refuse_constant)
    assert report["distance"] == pytest.approx(dist, rel=1e-14)
    assert report["permutation"] == perm


def test_metric_shape_mismatch(tmp_path):
    xfile, yfile = tmp_path / "x.txt", tmp_path / "y.txt"
    save_matrix(xfile, np.zeros((2, 2)))
    save_matrix(yfile, np.zeros((2, 3)))
    res = run_cli("metric", "--space", "hatV", "--x", str(xfile), "--y", str(yfile))
    assert res.returncode == 2


def test_verify_reference_all_pass(a_ref_file):
    res = run_cli("verify", a_ref_file, "--samples", "50", "--seed", "3")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["all_pass"]
    statuses = {p["name"]: p["status"] for p in report["properties"]}
    assert statuses["minmax-identities"] == "pass"
    assert statuses["roundtrip-beta"] == "pass"


def test_verify_identity_skips_injective_properties(identity_file):
    res = run_cli("verify", identity_file, "--samples", "30", "--seed", "3")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    statuses = {p["name"]: p["status"] for p in report["properties"]}
    assert statuses["roundtrip-alpha"] == "skipped (not injective)"
    assert statuses["lipschitz-sandwich"] == "skipped (not injective)"
    assert statuses["minmax-identities"] == "pass"


def test_verify_deterministic_bytes(a_ref_file):
    r1 = run_cli("verify", a_ref_file, "--samples", "40", "--seed", "11")
    r2 = run_cli("verify", a_ref_file, "--samples", "40", "--seed", "11")
    assert r1.stdout == r2.stdout


def test_reports_write_to_file(a_ref_file, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("check", a_ref_file, "--out", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == res.stdout


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_rejects_nonpositive_samples(a_ref_file, samples):
    res = run_cli("verify", a_ref_file, "--samples", samples)
    assert res.returncode == 2
    assert b"samples must be >= 1" in res.stderr
    assert res.stdout == b""


def test_each_command_takes_sigma_1_of_its_key_once(monkeypatch, tmp_path, capsys):
    # column 12 = c1 + c2 + c3 + 1e-9 c4: the subset certificate declines the
    # key, so check reads the margin in the subset scan and again in the
    # complement walk; bounds reads B0 for the tie window and the report, and
    # verify for the certificate-agreement check too. Each command loads its
    # own key and takes one SVD of it for all of them
    mat = generate_key(4, 12, 1).matrix.copy()
    mat[:, 11] = mat[:, 0] + mat[:, 1] + mat[:, 2] + 1e-9 * mat[:, 3]
    path = tmp_path / "declined.txt"
    save_matrix(path, mat)
    key = Key(load_matrix(path))
    assert not frame_keys._subsets_certify_complement(key)
    assert frame_keys._unit(key).e != 0  # so the unit copy's sigma_1 is another call
    calls = []
    real = numerics.sigma_k

    def counted(m, k):
        if k == 1 and np.array_equal(m, key.matrix):
            calls.append(m)
        return real(m, k)

    monkeypatch.setattr(numerics, "sigma_k", counted)
    for i, argv in enumerate((["check", str(path)], ["bounds", str(path)],
                              ["verify", str(path), "--samples", "20", "--seed", "3"])):
        assert cli.main(argv) == 0
        assert len(calls) == i + 1
    capsys.readouterr()


def _usage_error(parse, argv) -> tuple:
    """(exit code, stderr) of a parse that must stop on a usage error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, err.getvalue()


def test_reused_parser_parses_as_a_fresh_one(a_ref_file, tmp_path, capsys):
    # main builds its parser once per process; run every kind of command
    # through it twice, with usage errors between, and each parse must be
    # the one a freshly built parser gives
    xfile, yfile = tmp_path / "X.txt", tmp_path / "Y.txt"
    save_matrix(xfile, np.array([[0.25, -1.5], [2.0, 0.75]]))
    assert cli.main(["encode", "--encoder", "beta", "--key", a_ref_file,
                     "--input", str(xfile), "--out", str(yfile)]) == 0
    decode = ["decode", "--encoder", "beta", "--key", a_ref_file,
              "--input", str(yfile), "--out", str(tmp_path / "B.txt")]
    commands = [
        ["keygen", "--rows", "2", "--cols", "3", "--seed", "7", "--out", str(tmp_path / "k.txt")],
        ["check", a_ref_file],
        ["check", a_ref_file, "--certificate", "complement"],
        ["bounds", a_ref_file],
        decode,
        decode + ["--report", str(tmp_path / "rep.json")],
        ["verify", a_ref_file],
        ["verify", a_ref_file, "--samples", "20", "--seed", "3"],
    ]
    usage_errors = [["decode", "--encoder", "alpha", "--key", a_ref_file, "--input",
                     str(yfile), "--out", str(tmp_path / "B.txt")], ["nonsense"], []]
    stdouts = []
    for _ in range(2):
        for argv in commands:
            assert cli.main(argv) == 0
            stdouts.append(capsys.readouterr().out)
            fresh = cli.build_parser().parse_args(argv)
            assert vars(cli._parser().parse_args(argv)) == vars(fresh)
        for argv in usage_errors:
            code, err = _usage_error(cli.main, argv)
            assert code == 2
            assert (code, err) == _usage_error(cli.build_parser().parse_args, argv)
    assert stdouts[:len(commands)] == stdouts[len(commands):]
    assert cli._parser().format_help() == cli.build_parser().format_help()
    assert cli.build_parser() is not cli.build_parser()


def test_main_builds_its_parser_once(monkeypatch, a_ref_file, capsys):
    calls = []
    real = cli.build_parser

    def counted():
        calls.append(None)
        return real()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for argv in (["check", a_ref_file], ["bounds", a_ref_file], ["check", a_ref_file]):
            assert cli.main(argv) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1

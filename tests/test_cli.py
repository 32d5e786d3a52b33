import numpy as np
import pytest

import meshgen
from minsec.cli import ConfigError, RunConfig, main, run, validate_config
from minsec.mesh import load_mesh


@pytest.fixture()
def disk_obj(tmp_path):
    path = tmp_path / "disk.obj"
    meshgen.write_obj(path, meshgen.disk(5, area=1.0))
    return str(path)


def test_validate_config_defaults(tmp_path):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    config = validate_config(str(cfg_path))
    assert config.fiber_n == 64
    assert config.epsilon == 5e-4
    assert not hasattr(config, "mu") and not hasattr(config, "nu")
    assert config.boundary == "tangent"


def test_validate_config_values_and_aliases(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\nmode = minsec\nlambda = 2.5\nN = 16\ndegree = 4\n"
        "radius = 0.5\nemit_current = true\n")
    config = validate_config(str(cfg_path))
    assert config.lam == 2.5
    assert config.fiber_n == 16
    assert config.degree == 4
    assert config.emit_current is True


def test_validate_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda = -1\n")
    with pytest.raises(ConfigError, match="lambda must be nonnegative"):
        validate_config(str(bad))
    bad.write_text("N = 15\n")
    with pytest.raises(ConfigError, match="N must be even"):
        validate_config(str(bad))
    bad.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        validate_config(str(bad))
    bad.write_text("degree = x\n")
    with pytest.raises(ConfigError, match="bad value"):
        validate_config(str(bad))
    for text, match in [("lambda = nan\n", "lambda must be finite"),
                        ("radius = nan\n", "radius must be finite"),
                        ("mu = 1\n", "unknown key 'mu'"),
                        ("nu = 1\n", "unknown key 'nu'"),
                        ("epsilon = nan\n", "eps must be finite"),
                        ("epsilon = 0\n", "epsilon must be positive"),
                        ("max_iters = 0\n", "max_iters must be a positive integer"),
                        ("degree = 2.5\n", "bad value"),
                        ("threads = 2\n", "unknown key 'threads'"),
                        ("deterministic = true\n", "unknown key 'deterministic'")]:
        bad.write_text(text)
        with pytest.raises(ConfigError, match=match):
            validate_config(str(bad))
    with pytest.raises(ConfigError, match="degree must be a positive integer"):
        run(RunConfig(mesh="unused.obj", degree=2.5))


def test_non_finite_flags_exit_code(disk_obj, tmp_path, capsys):
    for flag, value in [("--lambda", "nan"), ("--radius", "nan"), ("--epsilon", "nan"),
                        ("--max-iters", "0"), ("--radius", "1e-200"), ("--radius", "1e200")]:
        code = main(["--mesh", disk_obj, flag, value, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_missing_mesh_exit_code(tmp_path, capsys):
    code = main(["--mesh", str(tmp_path / "nope.obj"), "--out", str(tmp_path)])
    assert code == 1
    assert "mesh not found" in capsys.readouterr().err


def test_minsec_end_to_end(disk_obj, tmp_path):
    out = tmp_path / "out"
    code = main(["--mesh", disk_obj, "--mode", "minsec", "--degree", "4",
                 "--lambda", "1", "--radius", "1", "--fiber-n", "16",
                 "--max-iters", "800", "--out", str(out), "--emit-current"])
    assert code == 0
    for name in ("field.txt", "frames.txt", "singularities.txt", "gamma.txt",
                 "current.txt", "diagnostics.txt"):
        assert (out / name).exists(), name
    diag = (out / "diagnostics.txt").read_text()
    assert "converged 1" in diag
    assert "time_refactor_seconds" in diag
    builds = [ln for ln in diag.splitlines() if ln.startswith("saddle_builds ")]
    assert len(builds) == 1 and int(builds[0].split()[1]) >= 1
    # Lc at the first build, then one factor of A per build
    lines = diag.splitlines()
    assert lines[lines.index(builds[0]) + 1] == "sparse_factorizations %d" % (
        int(builds[0].split()[1]) + 1)
    assert "cdf" in diag and "w2" in diag and "resid" in diag

    # round trip: field re-read and re-expressed in the exported frames
    mesh = load_mesh(disk_obj)
    rows = np.loadtxt(out / "field.txt")
    frames = np.loadtxt(out / "frames.txt")
    assert rows.shape == (len(mesh.vertices), 3)
    e1 = frames[:, 1:4]
    e2 = frames[:, 4:7]
    np.testing.assert_allclose(np.einsum("vd,vd->v", e1, e2), 0.0, atol=1e-12)
    z = np.exp(1j * rows[:, 1])
    # reconstruct world-plane representation and re-express: identity to 1e-9
    ang_back = np.angle(z)
    np.testing.assert_allclose(np.exp(1j * ang_back), z, atol=1e-9)

    # singularity file: indices are near quarter multiples for degree 4
    sing = np.atleast_2d(np.loadtxt(out / "singularities.txt"))
    assert sing.shape[1] == 5
    assert abs(sing[:, 3].sum() - 1.0) < 0.05
    assert np.all(np.abs(sing[:, 4]) < 0.05)


def test_baseline_mode_writes_field_and_frames_only(disk_obj, tmp_path):
    out = tmp_path / "base"
    code = main(["--mesh", disk_obj, "--mode", "baseline", "--degree", "4",
                 "--out", str(out)])
    assert code == 0
    assert (out / "field.txt").exists()
    assert (out / "frames.txt").exists()
    assert not (out / "gamma.txt").exists()
    assert not (out / "singularities.txt").exists()


def test_baseline_failure_exit_code(disk_obj, tmp_path, capsys, monkeypatch):
    def fail(ops):
        raise RuntimeError("inverse power iteration did not converge in 500 steps")

    monkeypatch.setattr("minsec.cli.baseline_smoothest_field", fail)
    code = main(["--mesh", disk_obj, "--mode", "baseline", "--degree", "4",
                 "--out", str(tmp_path / "base")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_reduced_mode(disk_obj, tmp_path):
    out = tmp_path / "red"
    code = main(["--mesh", disk_obj, "--mode", "reduced", "--lambda", "0.5",
                 "--epsilon", "1e-7", "--out", str(out)])
    assert code == 0
    gamma = np.loadtxt(out / "gamma.txt")
    np.testing.assert_allclose(gamma[:, 3], 0.0, atol=1e-8)   # flat disk
    assert "mode reduced" in (out / "diagnostics.txt").read_text()


def test_iteration_cap_exit_code(disk_obj, tmp_path):
    code = main(["--mesh", disk_obj, "--mode", "minsec", "--fiber-n", "16",
                 "--max-iters", "3", "--out", str(tmp_path / "cap")])
    assert code == 2


def test_config_file_plus_flag_override(disk_obj, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = minsec\ndegree = 1\nN = 16\nmax_iters = 5\n")
    out = tmp_path / "o1"
    code = main(["--config", str(cfg), "--mesh", disk_obj, "--max-iters", "400",
                 "--out", str(out)])
    assert code == 0   # the flag override lifted the cap


def test_deterministic_outputs_identical(disk_obj, tmp_path):
    args = ["--mesh", disk_obj, "--mode", "minsec", "--degree", "2",
            "--fiber-n", "16", "--max-iters", "60", "--epsilon", "1e-9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 2
    assert main(args + ["--out", str(out2)]) == 2
    for name in ("field.txt", "gamma.txt", "singularities.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mask_file(disk_obj, tmp_path):
    mesh = load_mesh(disk_obj)
    center = np.argmin(np.linalg.norm(mesh.vertices[:, :2], axis=1))
    near = np.nonzero(np.linalg.norm(
        mesh.vertices[:, :2] - mesh.vertices[center, :2], axis=1) < 0.35)[0]
    mask_path = tmp_path / "mask.txt"
    mask_path.write_text("".join("%d\n" % v for v in near))
    out = tmp_path / "masked"
    code = main(["--mesh", disk_obj, "--mode", "minsec", "--degree", "1",
                 "--fiber-n", "16", "--max-iters", "600", "--mask", str(mask_path),
                 "--out", str(out)])
    assert code == 0
    gamma = np.atleast_2d(np.loadtxt(out / "gamma.txt"))
    masked_pairs = {tuple(sorted((a, b))) for a in near for b in near}
    for row in gamma:
        if (int(row[1]), int(row[2])) in masked_pairs:
            assert row[3] == 0.0


def test_boundary_angle_file(disk_obj, tmp_path):
    # constant zero angles in vertex frames: valid explicit data
    mesh = load_mesh(disk_obj)
    lines = []
    for loop in mesh.boundary_loops:
        lines += ["%d 0.0" % v for v in loop]
    bpath = tmp_path / "angles.txt"
    bpath.write_text("\n".join(lines) + "\n")
    out = tmp_path / "explicit"
    code = main(["--mesh", disk_obj, "--mode", "minsec", "--degree", "1",
                 "--fiber-n", "16", "--max-iters", "800", "--epsilon", "1e-3",
                 "--boundary", str(bpath), "--out", str(out)])
    assert code == 0


def test_run_config_threads_env(disk_obj, tmp_path, monkeypatch):
    # the variable is not read, so a value that is not a number is harmless
    monkeypatch.setenv("MINSEC_THREADS", "abc")
    out = tmp_path / "env"
    code = main(["--mesh", disk_obj, "--mode", "minsec", "--degree", "1",
                 "--fiber-n", "16", "--max-iters", "200", "--out", str(out)])
    assert code in (0, 2)


def test_singular_boundary_coupling_exit_code(disk_obj, tmp_path, capsys):
    code = main(["--mesh", disk_obj, "--degree", "4", "--fiber-n", "16",
                 "--lambda", "1e20", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "singular boundary coupling" in err


def _assert_undefined_field_outcome(code, out, capsys):
    # the finished solve is written out, then reported as one error line
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    n_undefined = int(err.split("field is undefined on ")[1].split()[0])
    assert n_undefined > 0
    for name in ("field.txt", "frames.txt", "singularities.txt", "gamma.txt"):
        assert (out / name).stat().st_size > 0
    diag = dict(line.split(" ", 1) for line in
                (out / "diagnostics.txt").read_text().splitlines()[:7])
    assert diag["undefined_faces"] == str(n_undefined)
    assert diag["graph_area"] == "nan"


def test_undefined_field_exit_code(disk_obj, tmp_path, capsys):
    # at a vanishing radius the solved field is undefined on some faces
    out = tmp_path / "o"
    code = main(["--mesh", disk_obj, "--radius", "1e-10", "--degree", "4",
                 "--fiber-n", "16", "--out", str(out)])
    _assert_undefined_field_outcome(code, out, capsys)


def test_undefined_field_symmetric_fan(tmp_path, capsys):
    # on the symmetric fan the index-1 singularity falls on the hub vertex,
    # so the field is undefined there at the default radius
    mesh_path = tmp_path / "fan.obj"
    meshgen.write_obj(mesh_path, meshgen.fan_disk(12))
    out = tmp_path / "o"
    code = main(["--mesh", str(mesh_path), "--degree", "4", "--fiber-n", "16",
                 "--out", str(out)])
    _assert_undefined_field_outcome(code, out, capsys)


def _minsec(mesh_path, out, *extra):
    return main(["--mesh", mesh_path, "--mode", "minsec", "--degree", "1",
                 "--fiber-n", "16", "--max-iters", "50", "--out", str(out), *extra])


def test_incomplete_boundary_file_exit_code(disk_obj, tmp_path, capsys):
    mesh = load_mesh(disk_obj)
    loop = mesh.boundary_loops[0]
    bpath = tmp_path / "angles.txt"
    bpath.write_text("".join("%d 0.0\n" % v for v in loop[1:]))
    assert _minsec(disk_obj, tmp_path / "o", "--boundary", str(bpath)) == 1
    assert "boundary angles missing" in capsys.readouterr().err


def test_boundary_file_bad_line_names_line(disk_obj, tmp_path, capsys):
    mesh = load_mesh(disk_obj)
    b = mesh.boundary_loops[0][0]
    inner = int(np.nonzero(~mesh.is_boundary_vertex)[0][0])
    bpath = tmp_path / "angles.txt"
    for text, line in [("# angles\n%d 0.0\n%d north\n" % (b, b), 3),
                       ("%d 0.0\n%d 0.0\n" % (b, inner), 2),
                       ("%d 0.0\n99999 0.0\n" % b, 2),
                       ("%d 0.0  # inline comment\n%d 0.0 7.5\n" % (b, b), 2)]:
        bpath.write_text(text)
        assert _minsec(disk_obj, tmp_path / "o", "--boundary", str(bpath)) == 1
        assert "%s:%d:" % (bpath, line) in capsys.readouterr().err


def test_unreferenced_vertex_exit_code(disk_obj, tmp_path, capsys):
    path = tmp_path / "stray.obj"
    path.write_text(open(disk_obj).read() + "v 5 5 5\n")   # referenced by no face
    assert _minsec(str(path), tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vertex" in err


def test_mask_pair_naming_no_edge(disk_obj, tmp_path, capsys):
    mesh = load_mesh(disk_obj)
    a, b = mesh.edges[mesh.interior_edges[0]]
    mpath = tmp_path / "mask.txt"
    for text, line in [("0 99999\n", 1), ("%d %d  # an edge\n%d %d 5\n" % (a, b, a, b), 2)]:
        mpath.write_text(text)
        assert _minsec(disk_obj, tmp_path / "o", "--mask", str(mpath)) == 1
        assert "error: %s:%d:" % (mpath, line) in capsys.readouterr().err


def test_lambda_field_vertex_out_of_range(disk_obj, tmp_path, capsys):
    lpath = tmp_path / "lam.txt"
    for text in ["0 0.5\n99999 0.5\n", "0 0.5 # inline comment\n0 0.5 -3\n"]:
        lpath.write_text(text)
        assert _minsec(disk_obj, tmp_path / "o", "--lambda-field", str(lpath)) == 1
        assert "error: %s:2:" % lpath in capsys.readouterr().err

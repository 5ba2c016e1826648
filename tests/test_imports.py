"""A covnet process loads only the scipy modules its work needs.

scipy.special (Matern kernels), scipy.sparse (the separable estimator) and
scipy.linalg (dense draws beyond 1024 points) are imported where they are
used.  Each check runs in a fresh process: the test session itself may
already have imported scipy.
"""

import pytest

SCIPY = ("scipy.special", "scipy.sparse", "scipy.linalg")


def loaded_after(fresh_python, snippet: str) -> set[str]:
    """The modules of SCIPY in sys.modules once `snippet` has run."""
    code = "\n".join(
        [
            snippet,
            "import sys",
            f"print(*[m for m in {SCIPY!r} if m in sys.modules], sep=',')",
        ]
    )
    last = fresh_python(code).splitlines()[-1]
    return set(last.split(",")) - {""}


def cli_chain(out, *commands: str) -> str:
    """A snippet running `covnet <command>` for each line through cli.main."""
    lines = ["from covnet.cli import main"]
    for command in commands:
        argv = [*command.split(), "--out", str(out)]
        lines.append(f"assert main({argv!r}) == 0, {command!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("module", ["covnet", "covnet.cli"])
def test_import_loads_no_scipy_module(fresh_python, module):
    assert loaded_after(fresh_python, f"import {module}") == set()


def test_brownian_chain_loads_no_scipy_module(fresh_python, tmp_path):
    fields, model = tmp_path / "fields.cvnf", tmp_path / "model.cvn"
    chain = cli_chain(
        tmp_path,
        "simulate --set kernel=brownian --set d=2 --set K=5 --set N=8 --set seed=1",
        f"fit --set fields={fields} --set arch=shallow --set R=2 --set epochs=5",
        f"eval --set estimator=zero,empirical,covnet --set kernel=brownian --set d=2"
        f" --set M=1000 --set fields={fields} --set model={model}",
        f"eigen --set model={model} --set M=1000 --set K=5",
        f"cv --set fields={fields} --set archs=shallow --set R_list=2 --set V=2 --set epochs=3",
    )
    assert loaded_after(fresh_python, chain) == set()
    assert (tmp_path / "errors.csv").exists() and (tmp_path / "cv_summary.csv").exists()


def test_matern_loads_scipy_special(fresh_python, tmp_path):
    fields = tmp_path / "fields.cvnf"
    chain = cli_chain(
        tmp_path,
        "simulate --set kernel=matern --set nu=1.5 --set d=2 --set K=5 --set N=8",
        f"eval --set estimator=zero,empirical --set kernel=matern --set nu=1.5 --set d=2"
        f" --set M=1000 --set fields={fields}",
    )
    assert loaded_after(fresh_python, chain) == {"scipy.special"}
    assert fields.exists() and (tmp_path / "errors.csv").exists()


def test_separable_estimator_loads_scipy_sparse(fresh_python, tmp_path):
    fields = tmp_path / "fields.cvnf"
    chain = cli_chain(
        tmp_path,
        "simulate --set kernel=brownian --set d=2 --set K=5 --set N=8",
        f"eval --set estimator=separable --set kernel=brownian --set d=2 --set M=1000"
        f" --set fields={fields}",
    )
    assert "scipy.sparse" in loaded_after(fresh_python, chain)


@pytest.mark.parametrize("k, loaded", [(32, set()), (33, {"scipy.linalg"})])
def test_dense_draw_beyond_1024_points_loads_scipy_linalg(fresh_python, tmp_path, k, loaded):
    chain = cli_chain(
        tmp_path, f"simulate --set kernel=rotated_brownian --set d=2 --set K={k} --set N=2"
    )
    assert loaded_after(fresh_python, chain) == loaded

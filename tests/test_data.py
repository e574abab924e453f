import numpy as np
import pytest

from randskew.data import (DataSource, SyntheticKind, SyntheticSpec,
                           counterexample_matrix, load_csv, load_data,
                           load_libsvm, synthetic_matrix)
from randskew.errors import ParseError
from randskew.linalg import gram


def test_counterexample_gram_is_identity():
    A = counterexample_matrix(5)
    assert np.abs(gram(A) - np.eye(5)).max() < 1e-15


def test_csv_roundtrip(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1,2,1\n3,4,-1\n")
    A, y = load_csv(f)
    assert np.array_equal(A, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(y, [1.0, -1.0])


def test_csv_parse_error_reports_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,2,1\noops,4,-1\n")
    with pytest.raises(ParseError) as err:
        load_csv(f)
    assert err.value.line == 2


def test_libsvm_densification(tmp_path):
    f = tmp_path / "toy.svm"
    f.write_text("+1 1:0.5 3:2\n")
    A, y = load_libsvm(f, dim=3)
    assert np.array_equal(A, [[0.5, 0.0, 2.0]])
    assert y[0] == 1.0


def test_coherent_generator_heavy_rows():
    spec = SyntheticSpec(SyntheticKind.COHERENT, n=200, d=6,
                         heavy_row_count=10, seed=3)
    A = synthetic_matrix(spec)
    norms = np.linalg.norm(A, axis=1)
    heavy = np.sort(norms)[-10:]
    light = np.sort(norms)[:-10]
    # the 10 heavy rows carry 10x the base scale and separate cleanly
    assert heavy.min() > 2.0 * light.max()
    assert set(np.argsort(norms)[-10:]) == set(range(10))


@pytest.mark.parametrize("decay", [0.0, 0.5, 1.7])
def test_spiked_is_the_gaussian_draw_with_decaying_columns(decay):
    # the CLI's ``synthetic = spiked`` draws the Gaussian matrix of the
    # same seed and scales column j by exp(-decay * j)
    from randskew.cli import Config, _data_source
    cfg = Config({"synthetic": "spiked", "n": "40", "d": "6",
                  "decay": repr(decay)})
    A, _ = load_data(_data_source(cfg, 9))
    G = synthetic_matrix(SyntheticSpec(SyntheticKind.GAUSSIAN_IID, 40, 6,
                                       seed=9))
    want = G * np.exp(-decay * np.arange(6))
    assert A.shape == want.shape and A.tobytes() == want.tobytes()


def test_standardize_flag(tmp_path):
    spec = SyntheticSpec(SyntheticKind.GAUSSIAN_IID, n=500, d=3, seed=1)
    src = DataSource(format="synthetic", synthetic=spec)
    A, _ = load_data(src, standardize=True)
    assert np.abs(A.mean(axis=0)).max() < 1e-12
    assert np.abs(A.std(axis=0) - 1.0).max() < 1e-12


def test_no_silent_normalization():
    spec = SyntheticSpec(SyntheticKind.COHERENT, n=50, d=3,
                         heavy_row_count=5, seed=2)
    src = DataSource(format="synthetic", synthetic=spec)
    A1, _ = load_data(src)
    A2 = synthetic_matrix(spec)
    assert np.array_equal(A1, A2)

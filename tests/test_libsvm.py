import numpy as np
import pytest

from capped_kaczmarz.errors import ParseError
from capped_kaczmarz.problems import Dataset, load_libsvm, parse_libsvm
from oracles import serialize_libsvm


def test_single_well_formed_line():
    dataset = parse_libsvm("+1 1:0.5 3:-1.0\n")
    assert dataset.p == 1
    assert dataset.d == 3
    assert dataset.samples[0] == ((1, 0.5), (3, -1.0))
    assert dataset.labels.tolist() == [1.0]


def test_empty_stream_accepted():
    dataset = parse_libsvm("")
    assert dataset.p == 0 and dataset.d == 0


def test_blank_lines_skipped():
    dataset = parse_libsvm("+1 1:1\n\n-1 2:2\n")
    assert dataset.p == 2


def test_nonnumeric_value_reports_line():
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 2:abc\n")
    assert err.value.line == 1


def test_nonnumeric_label_reports_line():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:1\nfoo 1:1\n")
    assert err.value.line == 2


def test_nonincreasing_indices_rejected():
    with pytest.raises(ParseError):
        parse_libsvm("+1 2:1 2:3\n")
    with pytest.raises(ParseError):
        parse_libsvm("+1 3:1 2:3\n")


def test_zero_index_rejected():
    with pytest.raises(ParseError):
        parse_libsvm("+1 0:1\n")


def test_missing_value_rejected():
    with pytest.raises(ParseError):
        parse_libsvm("+1 5\n")


def test_zero_one_labels_map_ascending():
    dataset = parse_libsvm("0 1:1\n1 1:2\n")
    assert dataset.labels.tolist() == [-1.0, 1.0]


def test_one_two_labels_map_ascending():
    dataset = parse_libsvm("1 1:1\n2 1:2\n")
    assert dataset.labels.tolist() == [-1.0, 1.0]


def test_pm_one_labels_unchanged():
    dataset = parse_libsvm("-1 1:1\n+1 1:2\n")
    assert dataset.labels.tolist() == [-1.0, 1.0]


def test_three_label_values_rejected():
    with pytest.raises(ParseError):
        parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")


def test_feature_count_override():
    dataset = parse_libsvm("+1 1:1\n", num_features=10)
    assert dataset.d == 10
    with pytest.raises(ParseError):
        parse_libsvm("+1 7:1\n", num_features=3)


def test_round_trip():
    text = "+1 1:0.5 3:-1.25\n-1 2:3.75\n+1 1:0.125\n"
    dataset = parse_libsvm(text)
    again = parse_libsvm(serialize_libsvm(dataset))
    assert again.samples == dataset.samples
    assert again.labels.tolist() == dataset.labels.tolist()
    assert again.d == dataset.d


def test_load_from_path(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:1 2:2\n-1 1:-1\n", encoding="utf-8")
    dataset = load_libsvm(path)
    assert dataset.p == 2 and dataset.d == 2
    assert dataset.density == pytest.approx(0.75)


def test_dense_materialization():
    dataset = Dataset(d=3, p=2, samples=(((1, 0.5), (3, -1.0)), ()), labels=np.array([1.0, -1.0]))
    A = dataset.to_dense()
    assert A.shape == (3, 2)
    assert A[0, 0] == 0.5 and A[2, 0] == -1.0
    assert np.all(A[:, 1] == 0.0)

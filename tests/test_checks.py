"""Where bad input is rejected, and with what.

`clpdd.data` owns the two row rules of a labelled set: `check_every_class`
(class c has at least k rows) and `check_fits` (a probe of one set can score
another: same dim, and rows for every class either counts). Every public
function that needs one of them calls it; the other entry checks each name
what they reject.
"""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpdd.cli import main
from clpdd.data import (
    Dataset,
    MissingClassError,
    ShapeError,
    check_every_class,
    gen_blobs,
    save_features,
)
from clpdd.distill import (
    DistillConfig,
    augment_noise,
    balanced_batches,
    init_synthetic,
    meta_loss_and_grad,
    rng_stream,
    run_distill,
)
from clpdd.encoder import Encoder, make_encoder
from clpdd.evaluation import (
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from clpdd.linalg import DimensionError, NonFiniteError
from clpdd.objective import class_anchor_loss_and_grad
from clpdd.solver import gd_steady_state, ridge_kernel, stable_step_bound

from oracles import classes_short_of_rows

# 3 classes of 3-dim rows: class 0 has four rows, class 1 one, class 2 none
SHORT = Dataset(np.arange(15.0).reshape(5, 3), np.array([0, 1, 0, 0, 0]), class_count=3)
EVAL = Dataset(np.ones((3, 3)), np.arange(3), class_count=3)
NO_ROWS = "real set: no rows for class ids [2] of 3 classes"
UNDER_2 = "real set: fewer than 2 rows for class ids [1, 2] of 3 classes"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: next(balanced_batches(SHORT, 2, rng_stream(0, "batch"))), NO_ROWS),
        (lambda: init_synthetic(3, 2, 3, "from_real", SHORT), UNDER_2),
        (lambda: run_distill(DistillConfig(iterations=2), SHORT, EVAL), NO_ROWS),
        (
            lambda: train_linear_probe(SHORT, EVAL, epochs=1),
            "probe training set: no rows for class ids [2] of 3 classes",
        ),
        (lambda: select_random(SHORT, 2), UNDER_2),
        (lambda: select_centroid(SHORT, 2), UNDER_2),
        (lambda: select_neighbor(SHORT, EVAL), NO_ROWS),
    ],
    ids=["balanced_batches", "init_synthetic", "run_distill", "train_linear_probe",
         "select_random", "select_centroid", "select_neighbor"],
)
def test_each_caller_rejects_a_set_short_of_rows(call, message):
    with pytest.raises(MissingClassError) as ei:
        call()
    assert str(ei.value) == message


def test_select_neighbor_rejects_a_synthetic_set_of_another_dim():
    real, _ = gen_blobs(2, 4, 10, 1.0, 1.0, seed=0)
    synthetic = Dataset(np.zeros((2, 2)), np.arange(2), class_count=2)
    with pytest.raises(DimensionError, match=r"^synthetic set is 2-dim, real set 4-dim$"):
        select_neighbor(real, synthetic)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    labels=st.integers(1, 6).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.integers(0, c - 1), min_size=c, max_size=20))
    ),
    asked=st.integers(0, 8),
    k=st.integers(0, 4),
)
def test_check_every_class_raises_iff_a_class_is_short(labels, asked, k):
    class_count, labels = labels
    data = Dataset(np.zeros((len(labels), 1)), np.array(labels), class_count)
    short = classes_short_of_rows(labels, asked, k)
    if not short:
        check_every_class(data, asked, "src", k)
        return
    with pytest.raises(MissingClassError) as ei:
        check_every_class(data, asked, "src", k)
    ids = re.fullmatch(r"src: .* rows for class ids \[(.*)\] of (\d+) classes", str(ei.value))
    assert [int(i) for i in ids[1].split(", ")] == short and int(ids[2]) == asked


def _meta_loss_with_objective(objective):
    x = np.eye(2, 3)
    return meta_loss_and_grad(
        x, np.eye(2), make_encoder("identity", 3), x, np.arange(2), 0.1, 0.07, objective
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: gen_blobs(0, 3, 10, 1.0, 1.0), ValueError, "c must be >= 1, got 0"),
        (lambda tmp: gen_blobs(2, 0, 10, 1.0, 1.0), ValueError, "dim must be >= 1, got 0"),
        (
            lambda tmp: gen_blobs(2, 3, 4, 1.0, 1.0),
            ValueError,
            "n_per_class must be >= 5 so the 80/20 split leaves each class an eval row, got 4",
        ),
        (
            lambda tmp: save_features(EVAL, tmp / "x.clpf", dtype="f16"),
            ValueError,
            "dtype must be 'f32' or 'f64', got 'f16'",
        ),
        (
            lambda tmp: save_features(EVAL, tmp / "x.csv", dtype="f16"),
            ValueError,
            "dtype must be 'f32' or 'f64', got 'f16'",
        ),
        (lambda tmp: init_synthetic(3, -1, 4), ValueError, "ipc must be >= 1, got -1"),
        (lambda tmp: select_random(EVAL, 0), ValueError, "ipc must be >= 1, got 0"),
        (lambda tmp: select_random(EVAL, -1), ValueError, "ipc must be >= 1, got -1"),
        (lambda tmp: select_centroid(EVAL, 0), ValueError, "ipc must be >= 1, got 0"),
        (lambda tmp: select_centroid(EVAL, 1.0), ValueError, "ipc must be an integer, got 1.0"),
        (
            lambda tmp: train_linear_probe(EVAL, EVAL, epochs=1, lr=-1.0),
            ValueError,
            "lr must be finite and >= 0, got -1.0",
        ),
        (
            lambda tmp: DistillConfig(iterations=10.5),
            ValueError,
            "iterations must be an integer, got 10.5",
        ),
        (
            lambda tmp: DistillConfig(eval_every=2.5),
            ValueError,
            "eval_every must be an integer, got 2.5",
        ),
        (lambda tmp: init_synthetic(2, 1, 3, mode="x"), ValueError, "unknown init mode 'x'"),
        (
            lambda tmp: init_synthetic(2, 1, 3, mode="from_real"),
            ValueError,
            "from_real init needs a real dataset",
        ),
        (
            lambda tmp: next(augment_noise((2, 3), -0.5, rng_stream(0, "augment"))),
            ValueError,
            "sigma must be finite and >= 0, got -0.5",
        ),
        (lambda tmp: _meta_loss_with_objective("x"), ValueError, "unknown outer objective 'x'"),
        (lambda tmp: Encoder("x", 3, 3), ValueError, "unknown encoder kind 'x'"),
        (lambda tmp: make_encoder("x", 3), ValueError, "unknown encoder kind 'x'"),
        (
            lambda tmp: Encoder("linear", 4, 3),
            DimensionError,
            "linear encoder needs 2 weights, got 0",
        ),
        (
            lambda tmp: Encoder("identity", 3, 3, (np.eye(3),)),
            DimensionError,
            "identity encoder needs 0 weights, got 1",
        ),
        (
            lambda tmp: Encoder("linear", 4, 3, (np.ones((5, 3)), np.ones(3))),
            DimensionError,
            "encoder weight w must be (4, 3), got (5, 3)",
        ),
        (
            lambda tmp: Encoder("linear", 4, 3, (np.ones((4, 3)), np.ones(4))),
            DimensionError,
            "encoder weight b must be (3,), got (4,)",
        ),
        (
            lambda tmp: Encoder(
                "mlp1", 4, 3, (np.ones(4), np.ones(6), np.ones((6, 3)), np.ones(3))
            ),
            DimensionError,
            "encoder weight w1 must be (4, hidden), got (4,)",
        ),
        (
            lambda tmp: Encoder(
                "mlp1", 4, 3, (np.ones((4, 6)), np.ones(5), np.ones((6, 3)), np.ones(3))
            ),
            DimensionError,
            "encoder weight b1 must be (6,), got (5,)",
        ),
        (
            lambda tmp: Encoder(
                "mlp1", 4, 3, (np.ones((4, 6)), np.ones(6), np.ones((5, 3)), np.ones(3))
            ),
            DimensionError,
            "encoder weight w2 must be (6, 3), got (5, 3)",
        ),
        (
            lambda tmp: Encoder("linear", 4, 3, (np.full((4, 3), np.nan), np.ones(3))),
            NonFiniteError,
            "encoder weight w holds non-finite entries",
        ),
        (
            lambda tmp: Encoder(
                "mlp1", 4, 3, (np.ones((4, 6)), np.ones(6), np.ones((6, 3)), np.full(3, np.inf))
            ),
            NonFiniteError,
            "encoder weight b2 holds non-finite entries",
        ),
        (
            lambda tmp: Dataset(np.ones((3, 2)), np.array([0, 1, 1]), 2.5),
            ShapeError,
            "class count must be an integer, got 2.5",
        ),
        (
            lambda tmp: Dataset(np.ones((3, 2)), np.array([0, 1, 1]), True),
            ShapeError,
            "class count must be an integer, got True",
        ),
        (
            lambda tmp: DistillConfig(ipc=True, iterations=False),
            ValueError,
            "iterations must be an integer, got False",
        ),
        (lambda tmp: DistillConfig(lam=True, tau=True), ValueError,
         "lambda must be a number, got True"),
        (lambda tmp: DistillConfig(tau=True), ValueError, "tau must be a number, got True"),
        (lambda tmp: DistillConfig(lam="0.1"), ValueError, "lambda must be a number, got '0.1'"),
        (lambda tmp: DistillConfig(lam=None), ValueError, "lambda must be a number, got None"),
        (lambda tmp: DistillConfig(tau=1j), ValueError, "tau must be a number, got 1j"),
        (
            lambda tmp: ridge_kernel(np.eye(2), np.eye(2), "0.1"),
            ValueError,
            "ridge coefficient must be a number, got '0.1'",
        ),
        (
            lambda tmp: train_linear_probe(EVAL, EVAL, lr=np.True_),
            ValueError,
            "lr must be a number, got np.True_",
        ),
        (lambda tmp: select_centroid(EVAL, True), ValueError, "ipc must be an integer, got True"),
        (lambda tmp: init_synthetic(3, True, 4), ValueError, "ipc must be an integer, got True"),
        (
            lambda tmp: train_linear_probe(EVAL, EVAL, epochs=True),
            ValueError,
            "epochs must be an integer, got True",
        ),
        (lambda tmp: select_random(EVAL, True), ValueError, "ipc must be an integer, got True"),
        (
            lambda tmp: next(balanced_batches(EVAL, True, rng_stream(0, "batch"))),
            ValueError,
            "b_per_class must be an integer, got True",
        ),
        (
            lambda tmp: train_linear_probe(EVAL, EVAL, batch_size=True),
            ValueError,
            "batch_size must be an integer, got True",
        ),
        (
            lambda tmp: make_encoder("linear", True, 3),
            ValueError,
            "input_dim must be an integer, got True",
        ),
        (
            lambda tmp: gen_blobs(True, 4, 10, 0.1, 0.1),
            ValueError,
            "c must be an integer, got True",
        ),
        (
            lambda tmp: gen_blobs(3, 4, 7.5, 0.1, 0.1),
            ValueError,
            "n_per_class must be an integer, got 7.5",
        ),
        (
            lambda tmp: gen_blobs(3, 4, 10, 0.1, 0.1, seed=-1),
            ValueError,
            "seed must be >= 0, got -1",
        ),
        (lambda tmp: Encoder("identity", 0, 0), ValueError, "input_dim must be >= 1, got 0"),
        (lambda tmp: Encoder("identity", -1, -1), ValueError, "input_dim must be >= 1, got -1"),
        (
            lambda tmp: Encoder("identity", 2.5, 2.5),
            ValueError,
            "input_dim must be an integer, got 2.5",
        ),
        (lambda tmp: Encoder("linear", 3, 0), ValueError, "feature_dim must be >= 1, got 0"),
        (
            lambda tmp: pca_project_2d(np.zeros((1, 3))),
            ValueError,
            "pca_project_2d needs at least 2 rows",
        ),
        (
            lambda tmp: ridge_kernel(np.zeros(3), np.zeros((3, 2)), 0.1),
            DimensionError,
            "x and y must be 2-D",
        ),
        (
            lambda tmp: ridge_kernel(np.zeros((3, 2)), np.zeros((2, 2)), 0.1),
            DimensionError,
            "x has 3 rows but y has 2",
        ),
        (
            lambda tmp: gd_steady_state(np.eye(2), np.eye(2), 0.1, 0.0, 5),
            ValueError,
            "step size must be finite and > 0, got 0.0",
        ),
        (
            lambda tmp: stable_step_bound(np.eye(2), 0.0),
            ValueError,
            "ridge coefficient must be finite and > 0, got 0.0",
        ),
    ],
    ids=["blobs_c", "blobs_dim", "blobs_n_per_class", "save_dtype", "save_csv_dtype",
         "init_ipc", "select_random_ipc_0", "select_random_ipc_negative", "select_centroid_ipc",
         "select_centroid_ipc_float", "probe_lr", "config_iterations", "config_eval_every",
         "init_mode",
         "from_real_without_real", "negative_sigma", "outer_objective", "encoder_kind",
         "make_encoder_kind", "encoder_weight_count", "identity_weight_count",
         "linear_w_shape", "linear_b_shape", "mlp1_w1_not_2d", "mlp1_b1_shape", "mlp1_w2_shape",
         "encoder_nan_weight", "encoder_inf_weight", "dataset_class_count_float",
         "dataset_class_count_bool", "config_int_bool", "config_lambda_bool",
         "config_tau_bool", "config_lambda_str", "config_lambda_none", "config_tau_complex",
         "ridge_lambda_str", "probe_lr_numpy_bool", "select_centroid_ipc_bool", "init_ipc_bool",
         "probe_epochs_bool",
         "select_random_ipc_bool", "balanced_batches_bool", "probe_batch_size_bool",
         "make_encoder_dim_bool", "blobs_c_bool", "blobs_n_per_class_float", "blobs_seed",
         "encoder_input_dim_0", "encoder_input_dim_negative", "encoder_input_dim_float",
         "encoder_feature_dim_0", "pca_one_row", "ridge_not_2d", "ridge_rows",
         "gd_step_size", "step_bound_lambda"],
)
def test_each_entry_check_names_what_it_rejects(tmp_path, call, error, message):
    with pytest.raises(error) as ei:
        call(tmp_path)
    assert type(ei.value) is error and str(ei.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call, rule",
    [
        (
            lambda v: ridge_kernel(np.eye(2), np.eye(2), v),
            "ridge coefficient must be finite and > 0",
        ),
        (lambda v: stable_step_bound(np.eye(2), v), "ridge coefficient must be finite and > 0"),
        (
            lambda v: gd_steady_state(np.eye(2), np.eye(2), 0.1, v, 5),
            "step size must be finite and > 0",
        ),
        (
            lambda v: class_anchor_loss_and_grad(np.eye(2), np.arange(2), np.eye(2), v),
            "temperature must be finite and > 0",
        ),
        (
            lambda v: next(augment_noise((2, 3), v, rng_stream(0, "augment"))),
            "sigma must be finite and >= 0",
        ),
        (lambda v: train_linear_probe(EVAL, EVAL, epochs=1, lr=v), "lr must be finite and >= 0"),
    ],
    ids=["ridge_kernel", "stable_step_bound", "gd_steady_state", "class_anchor", "augment_noise",
         "probe_lr"],
)
def test_each_scalar_check_rejects_a_non_finite_value(call, rule, value):
    with pytest.raises(ValueError) as ei:
        call(value)
    assert type(ei.value) is ValueError and str(ei.value) == f"{rule}, got {value}"


INT_FIELDS = [f.name for f in fields(DistillConfig) if f.type is int]


def test_distill_config_has_nine_int_fields():
    # DistillConfig picks its int fields by the same `f.type is int`; this keeps
    # the table below from going empty if that test stops matching
    assert INT_FIELDS == ["b_per_class", "iterations", "feature_dim", "hidden_dim", "ipc",
                          "seed", "eval_every", "probe_epochs", "probe_batch_size"]


@pytest.mark.parametrize("value", [2.5, 2.0, "2"], ids=["fraction", "whole_float", "string"])
@pytest.mark.parametrize("name", INT_FIELDS)
def test_distill_config_rejects_a_non_integer_int_field(name, value):
    with pytest.raises(ValueError) as ei:
        DistillConfig(**{name: value})
    assert str(ei.value) == f"{name} must be an integer, got {value}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize(
    "field, rule",
    [
        ("lam", "lambda must be finite and > 0"),
        ("tau", "tau must be finite and > 0"),
        ("lr", "lr must be finite and >= 0"),
        ("augment_noise_sigma", "augment_noise_sigma must be finite and >= 0"),
        ("probe_lr", "probe_lr must be finite and >= 0"),
    ],
)
def test_distill_config_names_each_float_rule_and_its_value(field, rule, value):
    with pytest.raises(ValueError) as ei:
        DistillConfig(**{field: value})
    assert str(ei.value) == f"{rule}, got {value}"


@pytest.mark.parametrize("field", ["lam", "tau"])
def test_distill_config_rejects_a_zero_lambda_or_tau(field):
    with pytest.raises(ValueError, match="must be finite and > 0, got 0.0$"):
        DistillConfig(**{field: 0.0})
    assert DistillConfig(lr=0.0, augment_noise_sigma=0.0, probe_lr=0.0).lr == 0.0


@pytest.mark.parametrize(
    "override, line",
    [
        (
            "blob_anisotropic=maybe",
            "config error: --set blob_anisotropic: bad value for 'blob_anisotropic': "
            "expected true/false, got 'maybe'",
        ),
        ("foo", "config error: --set 'foo': expected key=value"),
    ],
    ids=["bad_bool", "no_equals"],
)
def test_main_rejects_a_bad_override_in_one_line(tmp_path, capsys, override, line):
    assert main(["distill", "--out", str(tmp_path / "out"), "--set", override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [line]
    assert not (tmp_path / "out").exists()

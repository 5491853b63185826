"""The one rule for array arguments: a wrongly shaped array is a
StructuralError whose message names the argument."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefit import autodiff as ad
from shapefit import canonicalize as canon
from shapefit import fields, inference, meshing, metrics, training
from shapefit import synthdata as sd
from shapefit.errors import DataError, StructuralError, check_cloud, check_finite_array, check_shape
from shapefit.geometry import Pose, look_at, rot6d_backward, rotation_about_axis
from shapefit.rng import substream

NET = ad.siren_init([3, 4, 1], substream(0, "net"))
PRIOR = fields.init_prior("sphere", latent_dim=4, template_hidden=(8,), deform_hidden=(6,), hyper_hidden=8)
CLOUD = np.zeros((4, 3))
INTR = sd.default_intrinsics(4, 4)

ENTRY_POINTS = {
    "forward": (lambda tmp: ad.forward(NET, np.zeros((2, 4))), "network input"),
    "forward_aug": (lambda tmp: ad.forward_aug(NET, np.zeros(3)), "network input"),
    "forward_cached": (lambda tmp: ad.forward_cached(NET, np.zeros((2, 3, 1))), "network input"),
    "backward": (lambda tmp: ad.backward(NET, ad.forward_cached(NET, np.zeros((5, 3)))[1], np.zeros((5, 2))), "gy"),
    "hyper_forward": (lambda tmp: fields.hyper_forward(PRIOR, np.zeros((1, 4))), "latent"),
    "hyper_backward": (lambda tmp: fields.hyper_backward(PRIOR, np.zeros(4), [None]), "latents"),
    "shape_terms": (lambda tmp: training.shape_terms(PRIOR, np.zeros((2, 4)), [SAMPLES]), "latents"),
    "LatentCode": (lambda tmp: fields.LatentCode(np.zeros((2, 4))), "latent"),
    "AnalyticShape.sdf": (lambda tmp: sd.AnalyticShape([sd.Sphere(np.zeros(3), 0.5)]).sdf(np.zeros(3)), "points"),
    "DepthImage": (lambda tmp: sd.DepthImage(np.ones(16), INTR), "depth"),
    "chamfer": (lambda tmp: metrics.chamfer(np.zeros((4, 2)), CLOUD), "cloud A"),
    "fscore": (lambda tmp: metrics.fscore(CLOUD, np.zeros(3)), "ground truth"),
    "PointCloud": (lambda tmp: canon.PointCloud(np.zeros((4, 6))), "points"),
    "TriangleMesh": (lambda tmp: meshing.TriangleMesh(CLOUD, np.zeros((1, 4))), "triangles"),
    "Pose": (lambda tmp: Pose(np.zeros(6), np.zeros(3)), "rotation"),
    "Pose.transform": (lambda tmp: Pose(np.eye(3), np.zeros(3)).transform(np.zeros((2, 4))), "points"),
    "look_at": (lambda tmp: look_at([1.0, 2.0]), "eye"),
    "rot6d_backward": (lambda tmp: rot6d_backward(np.array([1.0, 0, 0, 0, 1, 0]), np.zeros((2, 2))), "grad_rot"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_wrongly_shaped_array_is_a_structural_error_naming_the_argument(entry, tmp_path):
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(StructuralError, match=f"^{name} has shape"):
        call(tmp_path)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: canon.PointCloud([[1, 2], [3]]), "points", id="ragged"),
    pytest.param(lambda: canon.PointCloud("abc"), "points", id="string"),
    pytest.param(lambda: metrics.chamfer([[1, 2, 3]], [[1, 2, "x"]]), "cloud B", id="string-entry"),
    # a cast used to drop the imaginary part, or to parse numeric text
    pytest.param(lambda: check_shape("pts", np.array([[1 + 2j, 0, 0]]), ("N", 3)), "pts", id="complex"),
    pytest.param(lambda: canon.PointCloud([["1.5", "0", "0"]]), "points", id="numeric-text"),
    pytest.param(lambda: look_at("abc"), "eye", id="look-at-string"),
])
def test_ragged_or_non_numeric_array_is_a_structural_error_naming_the_argument(call, name):
    with pytest.raises(StructuralError, match=f"^{name} is not a numeric array"):
        call()


@pytest.mark.parametrize("value, message", [
    (np.zeros((0, 3)), "has no points"),
    (np.array([[0.0, 0, 0], [0, np.inf, 0]]), "has non-finite entries, first at index 1"),
])
def test_check_cloud_names_the_cloud(value, message):
    with pytest.raises(StructuralError, match=f"^my cloud {message}"):
        check_cloud("my cloud", value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("N",), ("N", 3), (3, 3)]), st.integers(1, 6), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.data())
def test_check_finite_array_names_the_first_axis_index_of_a_non_finite_entry(shape, n, bad, data):
    size = tuple(n if s == "N" else s for s in shape)
    value = substream(n, "finite").standard_normal(size)
    assert check_finite_array("v", value, shape) is value  # finite float64 passes through as itself
    # one to three bad entries: the first in row-major order is in the lowest row
    cells = data.draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in size)), min_size=1, max_size=3))
    for cell in cells:
        value[cell] = bad
    first = min(cell[0] for cell in cells)
    with pytest.raises(StructuralError, match=f"^v has non-finite entries, first at index {first}$"):
        check_finite_array("v", value, shape)


@pytest.mark.parametrize("estimator", [canon.PcaEstimator(), canon.IcpEstimator()], ids=["pca", "icp"])
def test_a_non_finite_cloud_fails_pose_estimation_naming_it(estimator):
    # this used to raise a bare LinAlgError from the covariance's eigh
    template = substream(0, "template").standard_normal((20, 3))
    with pytest.raises(StructuralError, match="^points has non-finite entries, first at index 0$"):
        estimator.estimate(np.full((5, 3), np.nan), lambda: template)
    # a bad template is not blamed on the observed cloud
    with pytest.raises(StructuralError, match="^template points has non-finite entries, first at index 0$"):
        estimator.estimate(template, lambda: np.full((5, 3), np.nan))


# valid fields of each record that holds arrays: the data records, a
# primitive and Pose
VALID_RECORDS = {
    canon.PointCloud: {"points": np.zeros((4, 3))},
    sd.DepthImage: {"depth": np.ones((3, 4)), "intrinsics": INTR},
    sd.ShapeSampleSet: {
        "surface_points": np.zeros((3, 3)),
        "surface_normals": np.tile([0.0, 0.0, 1.0], (3, 1)),
        "free_points": np.zeros((5, 3)),
        "free_sdf": np.zeros(5),
    },
    sd.Box: {"center": np.zeros(3), "half_extents": np.full(3, 0.5), "round_radius": 0.1},
    Pose: {"rotation": np.eye(3), "translation": np.zeros(3)},
}
ARRAY_FIELDS = [(cls, k) for cls, kw in VALID_RECORDS.items() for k, v in kw.items() if isinstance(v, np.ndarray)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ARRAY_FIELDS), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_a_non_finite_entry_fails_when_a_data_record_is_built(field, bad, data):
    cls, name = field
    kwargs = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in VALID_RECORDS[cls].items()}
    record = cls(**kwargs)  # valid as drawn
    arr = kwargs[name]
    kept = arr.copy()
    at = data.draw(st.tuples(*(st.integers(0, n - 1) for n in arr.shape)))
    arr[at] = bad
    # the record keeps a read-only copy, so the caller's write does not reach it
    np.testing.assert_array_equal(getattr(record, name), kept)
    assert not getattr(record, name).flags.writeable
    if cls is sd.DepthImage:  # a bad pixel is a DataError naming the pixel
        error, message = DataError, rf"^depth pixel \({at[0]}, {at[1]}\)"
    elif cls is sd.Box:  # a primitive names its kind and field
        error, message = StructuralError, f"^box {name}"
    else:  # any other entry is a StructuralError naming its field
        error, message = StructuralError, "^" + name.replace("_", " ")
    with pytest.raises(error, match=message):
        cls(**kwargs)


@pytest.mark.parametrize("intrinsics", [None, (4.0, 4.0, 1.5, 1.5)])
def test_a_depth_image_needs_intrinsics(intrinsics):
    # a missing camera model used to fail later, as a bare AttributeError in lift_depth
    with pytest.raises(StructuralError, match="^intrinsics must be an Intrinsics"):
        sd.DepthImage(np.ones((2, 2)), intrinsics)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: inference.InferenceConfig(seed=-1), id="InferenceConfig"),
    pytest.param(lambda: training.TrainConfig(seed=1.7), id="TrainConfig"),
    pytest.param(lambda: canon.NoisyOracleEstimator(Pose(np.eye(3), np.zeros(3)), seed=None),
                 id="NoisyOracleEstimator"),
])
def test_a_bad_seed_fails_when_the_owner_is_built(build):
    # a bad seed used to pass until a stage drew from it, and then failed
    # as that stage
    with pytest.raises(StructuralError, match="^seed must be an integer >= 0"):
        build()


POSE = Pose(np.eye(3), np.zeros(3))
SAMPLES = sd.ShapeSampleSet(**VALID_RECORDS[sd.ShapeSampleSet])
SPHERE = sd.AnalyticShape([sd.Sphere(np.zeros(3), 0.5)])
DEPTH = sd.DepthImage(np.ones((4, 4)), INTR)
SPREAD = canon.PointCloud(substream(0, "spread").standard_normal((20, 3)))  # a cloud PCA can align


class NoEstimate:
    estimate = "not a method"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: canon.lift_depth(np.ones((3, 3))), "depth must be a DepthImage, got ndarray", id="lift"),
    pytest.param(lambda: sd.occlude(np.ones((4, 4)), 0.3, 0), "depth must be a DepthImage, got ndarray",
                 id="occlude"),
    pytest.param(lambda: sd.render_depth(None, POSE, INTR, (4, 4)), "shape must be an AnalyticShape, got NoneType",
                 id="render-shape"),
    pytest.param(lambda: sd.render_depth(SPHERE, None, INTR, (4, 4)), "camera_pose must be a Pose, got NoneType",
                 id="render-pose"),
    pytest.param(lambda: sd.render_depth(SPHERE, POSE, None, (4, 4)),
                 "intrinsics must be an Intrinsics, got NoneType", id="render-intrinsics"),
    pytest.param(lambda: metrics.pose_error(None, POSE), "est must be a Pose, got NoneType", id="pose-error-est"),
    pytest.param(lambda: metrics.pose_error(POSE, None), "gt must be a Pose, got NoneType", id="pose-error-gt"),
    pytest.param(lambda: POSE.compose(None), "other must be a Pose, got NoneType", id="compose"),
    pytest.param(lambda: inference.joint_optimize(PRIOR, np.zeros((3, 3)), POSE, inference.InferenceConfig()),
                 "observed must be a PointCloud, got ndarray", id="joint-optimize-observed"),
    pytest.param(lambda: inference.joint_optimize(PRIOR, canon.PointCloud(CLOUD), None, inference.InferenceConfig()),
                 "init must be a Pose, got NoneType", id="joint-optimize-init"),
    pytest.param(lambda: inference.joint_optimize(PRIOR, canon.PointCloud(CLOUD), POSE, None),
                 "config must be an InferenceConfig, got NoneType", id="joint-optimize-config"),
    pytest.param(lambda: training.fit(PRIOR, [("a", SAMPLES)], None), "config must be a TrainConfig, got NoneType",
                 id="fit-config"),
    pytest.param(lambda: training.fit(PRIOR, 5, training.TrainConfig()),
                 "dataset must be a list or tuple of (instance id, ShapeSampleSet) pairs, got int", id="fit-dataset"),
    pytest.param(lambda: sd.sample_shape(None, 5, 5, 0), "shape must be an AnalyticShape, got NoneType",
                 id="sample-shape"),
    pytest.param(lambda: meshing.marching_cubes(None, 8), "field must be a callable, got NoneType",
                 id="marching-cubes"),
    pytest.param(lambda: inference.joint_optimize(None, canon.PointCloud(CLOUD), POSE, inference.InferenceConfig()),
                 "prior must be a ShapePrior, got NoneType", id="joint-optimize-prior"),
    pytest.param(lambda: training.fit(None, [("a", SAMPLES)], training.TrainConfig()),
                 "prior must be a ShapePrior, got NoneType", id="fit-prior"),
    pytest.param(lambda: fields.save_prior(None, "no-such-directory/prior.bin"),
                 "prior must be a ShapePrior, got NoneType", id="save-prior"),
    pytest.param(lambda: fields.instance_field(None, np.zeros(4)), "prior must be a ShapePrior, got NoneType",
                 id="instance-field"),
    pytest.param(lambda: inference.template_cloud(None, 0), "prior must be a ShapePrior, got NoneType",
                 id="template-cloud"),
    pytest.param(lambda: meshing.sample_mesh_surface(None, 5, 0), "mesh must be a TriangleMesh, got NoneType",
                 id="sample-mesh-surface"),
    # reconstruct used to raise a StageError that blamed stage 'canonicalize' for these
    pytest.param(lambda: inference.reconstruct(None, DEPTH, canon.PcaEstimator(), inference.InferenceConfig()),
                 "prior must be a ShapePrior, got NoneType", id="reconstruct-prior"),
    pytest.param(lambda: inference.reconstruct(PRIOR, None, canon.PcaEstimator(), inference.InferenceConfig()),
                 "depth must be a DepthImage, got NoneType", id="reconstruct-depth"),
    pytest.param(lambda: inference.reconstruct(PRIOR, DEPTH, None, inference.InferenceConfig()),
                 "estimator.estimate must be a callable, got NoneType", id="reconstruct-estimator"),
    pytest.param(lambda: inference.reconstruct(PRIOR, DEPTH, NoEstimate(), inference.InferenceConfig()),
                 "estimator.estimate must be a callable, got str", id="reconstruct-estimate"),
    pytest.param(lambda: inference.reconstruct(PRIOR, DEPTH, canon.PcaEstimator(), None),
                 "config must be an InferenceConfig, got NoneType", id="reconstruct-config"),
    pytest.param(lambda: fields.hyper_forward(None, np.zeros(4)), "prior must be a ShapePrior, got NoneType",
                 id="hyper-forward-prior"),
    pytest.param(lambda: fields.compose_forward(None, np.zeros(4), CLOUD), "prior must be a ShapePrior, got NoneType",
                 id="compose-forward-prior"),
    pytest.param(lambda: training.shape_terms(PRIOR, np.zeros((1, 4)), None),
                 "sample_sets must be a list or tuple of ShapeSampleSets, got NoneType", id="shape-terms-samples"),
    pytest.param(lambda: training.shape_terms(PRIOR, np.zeros((2, 4)), [SAMPLES, None]),
                 "sample set 1 must be a ShapeSampleSet, got NoneType", id="shape-terms-sample-set"),
    pytest.param(lambda: fields.hyper_backward(None, np.zeros((1, 4)), [None]),
                 "prior must be a ShapePrior, got NoneType", id="hyper-backward-prior"),
    pytest.param(lambda: canon.canonicalize(canon.PcaEstimator(), np.zeros((5, 3)), lambda: SPREAD),
                 "cloud must be a PointCloud, got ndarray", id="canonicalize-cloud"),
    pytest.param(lambda: canon.canonicalize(canon.PcaEstimator(), SPREAD, lambda: SPREAD.points),
                 "template() must be a PointCloud, got ndarray", id="canonicalize-template"),
    pytest.param(lambda: canon.canonicalize(None, SPREAD, lambda: SPREAD),
                 "estimator.estimate must be a callable, got NoneType", id="canonicalize-estimator"),
    pytest.param(lambda: sd.default_intrinsics("a", 6), "width must be an integer >= 1, got 'a'",
                 id="default-intrinsics-width"),
    pytest.param(lambda: sd.default_intrinsics(6, None), "height must be an integer >= 1, got None",
                 id="default-intrinsics-height"),
    pytest.param(lambda: sd.hemisphere_camera(None), "rng must be a numpy Generator, got NoneType",
                 id="hemisphere-camera"),
    pytest.param(lambda: inference.init_latent(None, substream(0, "z")), "prior must be a ShapePrior, got NoneType",
                 id="init-latent-prior"),
    pytest.param(lambda: inference.init_latent(PRIOR, None), "rng must be a numpy Generator, got NoneType",
                 id="init-latent-rng"),
    pytest.param(lambda: fields.compose_value(None, NET, CLOUD), "template must be an MLPParams, got NoneType",
                 id="compose-value-template"),
    pytest.param(lambda: fields.compose_value(NET, None, CLOUD), "deform must be an MLPParams, got NoneType",
                 id="compose-value-deform"),
    pytest.param(lambda: ad.siren_init([3, 4], None), "rng must be a numpy Generator, got NoneType",
                 id="siren-init-rng"),
    pytest.param(lambda: training.shape_terms(None, np.zeros((1, 4)), [SAMPLES]), "prior must be a ShapePrior, got NoneType",
                 id="shape-terms-prior"),
    pytest.param(lambda: sd.AnalyticShape(None), "primitives must be a list or tuple of primitives, got NoneType",
                 id="analytic-shape-none"),
    pytest.param(lambda: sd.AnalyticShape([sd.Sphere(np.zeros(3), 0.5), "abc"]),
                 "primitive 1 must be a Sphere, Box, Cylinder or Ellipsoid, got str", id="analytic-shape-entry"),
])
def test_an_argument_of_the_wrong_type_is_a_structural_error_naming_it(call, message):
    # each of these used to raise a bare AttributeError or TypeError, unless
    # noted
    with pytest.raises(StructuralError, match="^" + re.escape(message) + "$"):
        call()
    assert PRIOR.latents == {}  # fit checks its arguments before it adds a latent


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: check_shape("x", [None, 1.0], ("N",)), "x", id="check-shape"),
    pytest.param(lambda: ad.forward(NET, [[None, 0, 0]]), "network input", id="forward"),
    pytest.param(lambda: Pose(np.eye(3), [None, 0, 0]), "translation", id="pose"),
    pytest.param(lambda: check_shape("x", np.array(["0.5", 1.0], dtype=object), ("N",)), "x", id="text-entry"),
])
def test_an_object_array_with_an_entry_that_is_not_a_number_is_refused(call, name):
    # None used to become NaN, so these returned NaN or failed as
    # "non-finite", and numeric text in an object array was parsed
    with pytest.raises(StructuralError, match=f"^{name} is not a numeric array: it holds (NoneType|str) entries$"):
        call()


def test_object_arrays_of_real_numbers_still_convert():
    big = check_shape("x", [2**70, 1], ("N",))  # object dtype: past int64
    assert big.dtype == np.float64 and big[0] == float(2**70)
    assert check_shape("x", [Fraction(1, 4), 2], ("N",)).tolist() == [0.25, 2.0]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_shape("x", [2**70, 1], ("N",), np.int64), "x has entries that are not int64 values",
                 id="check-shape-int64"),
    pytest.param(lambda: meshing.TriangleMesh(np.zeros((3, 3)), [[2**70, 0, 1]]),
                 "triangles has entries that are not int64 values", id="triangle-mesh"),
    pytest.param(lambda: check_shape("x", [2**1100], ("N",)), "x has entries that are not float64 values",
                 id="check-shape-float64"),
])
def test_an_int_past_the_range_of_the_dtype_is_refused(call, message):
    # the cast used to raise a bare OverflowError
    with pytest.raises(StructuralError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: rotation_about_axis([0, 0, 1], float("nan")), "angle_rad = nan must be finite and >= -inf",
                 id="rotation-nan"),
    pytest.param(lambda: rotation_about_axis([0, 0, 1], np.inf), "angle_rad = inf must be finite and >= -inf",
                 id="rotation-inf"),
    pytest.param(lambda: rotation_about_axis([0, 0, 1], None), "angle_rad = None must be finite and >= -inf",
                 id="rotation-none"),
    pytest.param(lambda: ad.Adam().step({"a": np.zeros(2)}, {"a": np.ones(2)}, float("nan")),
                 "lr = nan must be finite and >= 0.0", id="adam-lr"),
    pytest.param(lambda: ad.siren_init(None, substream(0, "net")),
                 "layer_sizes must be a list or tuple of widths, got NoneType", id="siren-init-sizes"),
    pytest.param(lambda: ad.siren_init([3, "4", 1], substream(0, "net")),
                 "layer size 1 must be an integer >= 1, got '4'", id="siren-init-size"),
])
def test_an_angle_a_step_size_or_layer_sizes_of_the_wrong_kind_is_refused(call, message):
    # a NaN angle or step size used to give all-NaN output with at most a
    # RuntimeWarning, and None a bare TypeError
    with pytest.raises(StructuralError, match="^" + re.escape(message) + "$"):
        call()

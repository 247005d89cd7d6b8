"""Tests for the kernel-backend registry and per-layer auto dispatch."""

import pytest

from repro.backends import (
    AUTO_BACKEND,
    CoreDispatch,
    KernelBackend,
    PAPER_CORE_BACKENDS,
    auto_dispatch,
    backend_names,
    dispatch_core,
    get_backend,
    known_backend_names,
    register_backend,
    registered_backends,
    temporary_backend,
    unregister_backend,
    validate_backend,
)
from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import select_ranks
from repro.gpusim.device import A100
from repro.inference.engine import E2EResult, estimate_e2e
from repro.inference.plan import plan_tucker_model
from repro.kernels.base import ConvShape
from repro.models.arch_specs import get_model_spec
from repro.planning.warmup import warm_backends

SHAPE = ConvShape(c=32, n=32, h=14, w=14)


@pytest.fixture(scope="module")
def resnet18_setup():
    spec = get_model_spec("resnet18")
    plan = select_ranks(layer_shapes_from_spec(spec), A100, budget=0.65)
    return spec, plan


class _ConstantBackend(KernelBackend):
    """Test double: fixed latency, optional shape gate."""

    def __init__(self, name, latency=1.0, supported=True):
        self.name = name
        self.description = f"constant {latency}s"
        self._latency = latency
        self._supported = supported

    def supports(self, shape, device):
        return self._supported

    def core_latency(self, shape, device):
        return self._latency

    def tiling(self, shape, device):
        return "constant"


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for expected in PAPER_CORE_BACKENDS:
            assert expected in names
        assert "cudnn-winograd" in names
        assert "cudnn-fft" in names
        assert len(set(names)) == len(names)

    def test_known_names_include_auto(self):
        assert AUTO_BACKEND in known_backend_names()
        assert AUTO_BACKEND not in backend_names()

    def test_get_backend_unknown_lists_known_names(self):
        with pytest.raises(ValueError) as exc:
            get_backend("cutlass")
        for name in backend_names():
            assert name in str(exc.value)

    def test_validate_accepts_auto(self):
        assert validate_backend(AUTO_BACKEND) == AUTO_BACKEND
        with pytest.raises(ValueError):
            validate_backend("nonsense")

    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError):
            register_backend(_ConstantBackend("cudnn"))

    def test_register_auto_name_raises(self):
        with pytest.raises(ValueError):
            register_backend(_ConstantBackend(AUTO_BACKEND))

    def test_register_unnamed_raises(self):
        with pytest.raises(ValueError):
            register_backend(_ConstantBackend(""))

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError):
            unregister_backend("never-registered")

    def test_temporary_backend_round_trip(self):
        with temporary_backend(_ConstantBackend("tmp-backend")):
            assert "tmp-backend" in backend_names()
            assert get_backend("tmp-backend").core_latency(SHAPE, A100) == 1.0
        assert "tmp-backend" not in backend_names()

    def test_registration_order_preserved(self):
        assert [b.name for b in registered_backends()] == list(backend_names())


class TestDispatch:
    def test_fixed_dispatch_records_backend(self):
        d = dispatch_core(SHAPE, A100, "tdc-oracle")
        assert isinstance(d, CoreDispatch)
        assert d.backend == "tdc-oracle"
        assert d.latency > 0
        assert d.tiling is not None and "TH=" in d.tiling

    def test_auto_matches_min_over_registered(self):
        best = min(
            (
                b.core_latency(SHAPE, A100)
                for b in registered_backends()
                if b.supports(SHAPE, A100)
            ),
        )
        d = auto_dispatch(SHAPE, A100)
        assert d.latency == pytest.approx(best)
        assert d.backend in backend_names()

    def test_auto_prefers_new_faster_backend(self):
        fast = _ConstantBackend("fast-test", latency=1e-12)
        with temporary_backend(fast):
            d = dispatch_core(SHAPE, A100, AUTO_BACKEND)
            assert d.backend == "fast-test"
            assert d.tiling == "constant"

    def test_auto_skips_unsupported(self):
        slow_unsupported = _ConstantBackend(
            "unsupported-test", latency=1e-12, supported=False
        )
        with temporary_backend(slow_unsupported):
            assert dispatch_core(SHAPE, A100, AUTO_BACKEND).backend \
                != "unsupported-test"

    def test_winograd_rejects_non_3x3(self):
        shape5 = ConvShape(c=32, n=32, h=14, w=14, r=5, s=5)
        assert not get_backend("cudnn-winograd").supports(shape5, A100)
        with pytest.raises(ValueError):
            dispatch_core(shape5, A100, "cudnn-winograd")


class TestWarmBackends:
    def test_counts_per_backend(self):
        # Each backend counts the distinct pairs it resolved: repeats
        # count once, and Winograd skips the 5x5 core it cannot run.
        shape5 = ConvShape(c=32, n=32, h=14, w=14, r=5, s=5)
        pairs = [(SHAPE, A100), (SHAPE, A100), (shape5, A100)]
        counts = warm_backends(pairs, ["cudnn", "cudnn-winograd", "tdc-model"])
        assert counts == {"cudnn": 2, "cudnn-winograd": 1, "tdc-model": 2}

    def test_default_warm_dedupes_pairs(self):
        # A backend with no warm-up logic of its own still resolves a
        # repeated pair once.
        pairs = [(SHAPE, A100), (SHAPE, A100), (SHAPE, A100)]
        with temporary_backend(_ConstantBackend("dedupe-test")):
            assert warm_backends(pairs, ["dedupe-test"]) == {"dedupe-test": 1}

    def test_auto_expands_to_all_registered(self):
        counts = warm_backends([(SHAPE, A100)], [AUTO_BACKEND])
        assert set(counts) == set(backend_names())

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            warm_backends([(SHAPE, A100)], ["cutlass"])


class TestPlanInvariants:
    """Plan-structure invariants hold for every registered backend."""

    @pytest.fixture()
    def setup(self, resnet18_setup):
        return resnet18_setup

    @pytest.mark.parametrize(
        "backend", list(backend_names()) + [AUTO_BACKEND]
    )
    def test_decomposed_layers_expand_to_pw1_core_pw2(self, setup, backend):
        spec, rank_plan = setup
        plan = plan_tucker_model(spec, rank_plan, A100, core_backend=backend)
        decomposed = {d.layer.name for d in rank_plan.decisions if d.decomposed}
        by_layer = {}
        for k in plan.kernels:
            by_layer.setdefault(k.layer, []).append(k)
        for name in decomposed:
            assert [k.kind for k in by_layer[f"{name}.pw1"]] == ["pointwise"]
            assert [k.kind for k in by_layer[f"{name}.core"]] == ["core"]
            assert [k.kind for k in by_layer[f"{name}.pw2"]] == ["pointwise"]
            assert name not in by_layer  # no leftover dense kernel
        # Skipped / non-decomposable convs stay dense: one kernel under
        # the layer's own name, no pw/core expansion.
        dense = {
            d.layer.name for d in rank_plan.decisions if not d.decomposed
        }
        for name in dense:
            kinds = [k.kind for k in by_layer[name]]
            assert kinds in (["conv"], ["pointwise"])
            assert f"{name}.core" not in by_layer

    @pytest.mark.parametrize(
        "backend", list(backend_names()) + [AUTO_BACKEND]
    )
    def test_core_kernels_record_backend(self, setup, backend):
        spec, rank_plan = setup
        plan = plan_tucker_model(spec, rank_plan, A100, core_backend=backend)
        cores = [k for k in plan.kernels if k.kind == "core"]
        assert cores
        for k in cores:
            assert k.backend in backend_names()
            if backend != AUTO_BACKEND:
                assert k.backend == backend
        counts = plan.backend_counts()
        assert sum(counts.values()) == len(cores)

    def test_bn_relu_toggle_drops_kernels(self, setup):
        spec, rank_plan = setup
        with_bn = plan_tucker_model(
            spec, rank_plan, A100, core_backend="cudnn", include_bn_relu=True
        )
        without = plan_tucker_model(
            spec, rank_plan, A100, core_backend="cudnn", include_bn_relu=False
        )
        assert all(k.kind != "bn_relu" for k in without.kernels)
        assert any(k.kind == "bn_relu" for k in with_bn.kernels)
        assert with_bn.total_latency() > without.total_latency()

    def test_auto_never_exceeds_best_fixed_backend(self, setup):
        spec, rank_plan = setup
        auto_total = plan_tucker_model(
            spec, rank_plan, A100, core_backend=AUTO_BACKEND
        ).total_latency()
        fixed_totals = []
        for backend in backend_names():
            try:
                fixed_totals.append(
                    plan_tucker_model(
                        spec, rank_plan, A100, core_backend=backend
                    ).total_latency()
                )
            except ValueError:
                continue  # backend does not support some core shape
        assert fixed_totals
        assert auto_total <= min(fixed_totals) + 1e-12


class TestFailFast:
    def test_plan_tucker_model_validates_at_entry(self, resnet18_setup):
        spec, rank_plan = resnet18_setup
        with pytest.raises(ValueError) as exc:
            plan_tucker_model(spec, rank_plan, A100, core_backend="cutlass")
        # The error carries the registry's known names.
        for name in backend_names():
            assert name in str(exc.value)
        assert AUTO_BACKEND in str(exc.value)

    def test_estimate_e2e_validates_before_planning(self, resnet18_setup):
        spec, _ = resnet18_setup
        with pytest.raises(ValueError) as exc:
            estimate_e2e(spec, A100, backends=["tdc-model", "cutlass"])
        assert "cutlass" in str(exc.value)

    def test_estimate_e2e_rejects_original_as_backend(self, resnet18_setup):
        spec, _ = resnet18_setup
        with pytest.raises(ValueError):
            estimate_e2e(spec, A100, backends=["original"])

    def test_estimate_e2e_rejects_empty_backend_list(self, resnet18_setup):
        spec, _ = resnet18_setup
        with pytest.raises(ValueError):
            estimate_e2e(spec, A100, backends=[])


class TestE2EResultVariants:
    def test_round_trips_arbitrary_variants(self):
        res = E2EResult(
            model_name="m", device_name="d", budget=0.5,
            variants={"original": 2.0, "my-backend": 1.0, "cudnn": 1.5},
            rank_plan=None,
        )
        assert res.latency("my-backend") == 1.0
        assert res.backend_variants() == ("my-backend", "cudnn")
        assert res.speedup("original", "my-backend") == pytest.approx(2.0)
        ms = res.as_milliseconds()
        assert ms["tucker_my_backend"] == pytest.approx(1000.0)
        assert ms["tucker_cudnn"] == pytest.approx(1500.0)
        assert ms["original"] == pytest.approx(2000.0)

    def test_unknown_variant_raises_with_known(self):
        res = E2EResult(
            model_name="m", device_name="d", budget=0.5,
            variants={"original": 2.0, "cudnn": 1.5}, rank_plan=None,
        )
        with pytest.raises(ValueError) as exc:
            res.latency("tvm")
        assert "cudnn" in str(exc.value)

    def test_estimate_with_auto_and_extra_backends(self, resnet18_setup):
        spec, rank_plan = resnet18_setup
        res = estimate_e2e(
            spec, A100, rank_plan=rank_plan,
            backends=["tdc-oracle", "cudnn-fft", AUTO_BACKEND],
        )
        assert res.backend_variants() == ("tdc-oracle", "cudnn-fft", "auto")
        # auto is at least as fast as any fixed variant it subsumes.
        assert res.latency("auto") <= res.latency("tdc-oracle") + 1e-12
        assert res.latency("auto") <= res.latency("cudnn-fft") + 1e-12
        auto_plan = res.plans["auto"]
        assert sum(auto_plan.backend_counts().values()) > 0

"""StackSpec: pointcut expansion, derivation, and eager validation."""

from __future__ import annotations

import pytest

from repro.api.registry import UnknownNameError
from repro.api.spec import StackSpec
from repro.errors import DeploymentError, PointcutSyntaxError
from repro.parallel import WorkSplitter


class Widget:
    def __init__(self, size=1):
        self.size = size

    def work(self, x):
        return x


def widget_spec(**overrides):
    fields = dict(
        target=Widget,
        work="work",
        splitter=WorkSplitter(duplicates=2),
        strategy="farm",
    )
    fields.update(overrides)
    return StackSpec(**fields)


class TestExpansion:
    def test_bare_method_name_expands_to_call_pointcut(self):
        spec = widget_spec()
        assert spec.work_pointcut == "call(Widget.work(..))"

    def test_full_pointcut_passes_through(self):
        spec = widget_spec(work="call(Widget.w*(..))", work_method="work")
        assert spec.work_pointcut == "call(Widget.w*(..))"

    def test_creation_defaults_from_target(self):
        assert widget_spec().creation_pointcut == "initialization(Widget.new(..))"

    def test_creation_bare_name_expands(self):
        spec = widget_spec(creation="new")
        assert spec.creation_pointcut == "initialization(Widget.new(..))"

    def test_work_method_derived_from_pointcut(self):
        spec = widget_spec(work="call(Widget.work(..))")
        assert spec.resolved_work_method == "work"

    def test_work_method_underivable_raises_with_hint(self):
        spec = widget_spec(work="call(Widget.w*(..))")
        with pytest.raises(DeploymentError, match="work_method"):
            spec.resolved_work_method

    def test_explicit_work_method_wins(self):
        spec = widget_spec(work="call(Widget.w*(..))", work_method="work")
        assert spec.resolved_work_method == "work"


class TestValidation:
    def test_valid_spec_returns_self(self):
        spec = widget_spec()
        assert spec.validate() is spec

    def test_target_must_be_a_class(self):
        with pytest.raises(DeploymentError, match="must be a class"):
            StackSpec(target=Widget(), work="work").validate()  # type: ignore[arg-type]

    def test_work_is_mandatory(self):
        with pytest.raises(DeploymentError, match="work pointcut"):
            StackSpec(target=Widget).validate()

    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(work="call(Widget.work(..)"), "unbalanced"),
            (dict(work="call(Widget.work(..)) && within(tests.*)"), "'within'"),
            (dict(creation="initialization(Widget.new(int))"), "'Widget.new(int)'"),
        ],
        ids=["malformed-work", "refused-work", "malformed-creation"],
    )
    def test_pointcuts_are_parsed(self, fields, named):
        """A pointcut that cannot deploy fails spec validation, naming
        what it refuses."""
        with pytest.raises(PointcutSyntaxError) as refused:
            widget_spec(**fields).validate()
        assert named in str(refused.value)

    def test_unknown_strategy_suggests_nearest(self):
        with pytest.raises(UnknownNameError, match="did you mean 'farm'"):
            widget_spec(strategy="frm").validate()

    def test_unknown_middleware_suggests_nearest(self):
        with pytest.raises(UnknownNameError, match="did you mean 'rmi'"):
            widget_spec(middleware="rmmi").validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownNameError, match="backend"):
            widget_spec(backend="threds").validate()

    def test_strategy_needs_splitter(self):
        with pytest.raises(DeploymentError, match="needs a splitter"):
            widget_spec(splitter=None).validate()

    def test_none_strategy_needs_no_splitter(self):
        widget_spec(strategy="none", splitter=None).validate()

    def test_divide_conquer_strategy_needs_no_splitter(self):
        # the registered builder declares requires_splitter=False: the
        # recursion hooks ride in strategy_options instead
        widget_spec(
            strategy="divide-conquer",
            splitter=None,
            strategy_options=dict(
                should_divide=lambda a, k, d: False,
                divide=lambda a, k: [],
                merge=sum,
            ),
        ).validate()

    def test_max_in_flight_must_be_positive(self):
        with pytest.raises(DeploymentError, match="max_in_flight"):
            widget_spec(max_in_flight=0).validate()
        widget_spec(max_in_flight=1).validate()
        widget_spec(max_in_flight=None).validate()

    def test_overflow_policy_names_are_validated(self):
        with pytest.raises(DeploymentError, match="overflow policy"):
            widget_spec(overflow="panic").validate()
        for policy in ("block", "fail", "shed-oldest"):
            widget_spec(max_in_flight=2, overflow=policy).validate()

    def test_timeout_must_be_positive_seconds(self):
        with pytest.raises(DeploymentError, match="timeout"):
            widget_spec(timeout=0).validate()
        with pytest.raises(DeploymentError, match="timeout"):
            widget_spec(timeout=-1.5).validate()
        widget_spec(timeout=0.5).validate()

    def test_middleware_needs_cluster(self):
        with pytest.raises(DeploymentError, match="needs a cluster"):
            widget_spec(middleware="rmi").validate()

    def test_oneway_needs_middleware(self):
        with pytest.raises(DeploymentError, match="oneway"):
            widget_spec(oneway=("work",)).validate()

    def test_pack_routable_follows_strategy_capability(self):
        assert widget_spec().pack_routable  # farm routes packs
        assert widget_spec(strategy="dynamic-farm").pack_routable
        assert widget_spec(strategy="pipeline").pack_routable
        assert widget_spec(strategy="none", splitter=None).pack_routable
        assert not widget_spec(strategy="heartbeat").pack_routable

    def test_oneway_rejected_on_reply_dependent_strategies(self):
        # cross-field rule matching the map(pack=...) capabilities:
        # heartbeat gathers step results and the pipeline forwards each
        # hop's reply — neither can serve fire-and-forget work, so the
        # declaration must fail at validation time.  Farms are pure
        # scatter and pass.
        from repro.cluster import paper_testbed
        from repro.sim import Simulator

        sim = Simulator()
        try:
            cluster = paper_testbed(sim)
            for strategy in ("heartbeat", "pipeline"):
                with pytest.raises(DeploymentError, match="cannot serve"):
                    widget_spec(
                        strategy=strategy,
                        middleware="mpp",
                        cluster=cluster,
                        oneway=("work",),
                    ).validate()
            widget_spec(
                strategy="farm",
                middleware="mpp",
                cluster=cluster,
                oneway=("work",),
            ).validate()
            # oneway on an AUXILIARY method is fine on any strategy —
            # only the work call itself is reply-dependent
            widget_spec(
                strategy="pipeline",
                middleware="mpp",
                cluster=cluster,
                oneway=("notify",),
            ).validate()
        finally:
            sim.shutdown()

    def test_with_copies_and_overrides(self):
        spec = widget_spec()
        copy = spec.with_(strategy="pipeline")
        assert copy.strategy == "pipeline"
        assert spec.strategy == "farm"
        assert copy.target is Widget

    def test_describe_mentions_the_choices(self):
        text = widget_spec().describe()
        assert "farm" in text and "Widget" in text

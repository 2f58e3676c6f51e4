"""Unit tests for stack spec parsing and run-time composition."""

import pytest

from repro.core.stack import (
    StackConfig,
    format_stack_spec,
    known_layers,
    layer_class,
    parse_stack_spec,
)
from repro.errors import EndpointError, StackError


class TestSpecParsing:
    def test_simple_spec(self):
        assert parse_stack_spec("TOTAL:MBRSHIP:FRAG:NAK:COM") == [
            ("TOTAL", {}),
            ("MBRSHIP", {}),
            ("FRAG", {}),
            ("NAK", {}),
            ("COM", {}),
        ]

    def test_inline_kwargs(self):
        parsed = parse_stack_spec("FRAG(max_size=512):NAK(window=64):COM")
        assert parsed[0] == ("FRAG", {"max_size": 512})
        assert parsed[1] == ("NAK", {"window": 64})

    def test_kwarg_types(self):
        parsed = parse_stack_spec(
            "MBRSHIP(partition='evs',flush_timeout=0.5,auto_grant=false):COM"
        )
        kwargs = parsed[0][1]
        assert kwargs == {
            "partition": "evs",
            "flush_timeout": 0.5,
            "auto_grant": False,
        }

    def test_empty_spec_rejected(self):
        with pytest.raises(StackError):
            parse_stack_spec("NAK::COM")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(StackError):
            parse_stack_spec("FRAG(max_size=5:COM")

    def test_bad_kwarg_rejected(self):
        with pytest.raises(StackError):
            parse_stack_spec("FRAG(oops):COM")

    def test_format_roundtrip(self):
        spec = "FRAG(max_size=512):NAK:COM"
        assert parse_stack_spec(format_stack_spec(parse_stack_spec(spec))) == (
            parse_stack_spec(spec)
        )


class TestRegistry:
    def test_known_layers_include_core_set(self):
        layers = known_layers()
        for name in ("COM", "NAK", "FRAG", "MBRSHIP"):
            assert name in layers

    def test_unknown_layer_reports_known_names(self):
        with pytest.raises(StackError) as exc:
            layer_class("NOPE")
        assert "COM" in str(exc.value)

    def test_layer_class_lookup(self):
        assert layer_class("COM").name == "COM"


class TestStackConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            StackConfig("NAK:COM")  # positional spec is the old API

    def test_bad_spec_fails_at_construction(self):
        with pytest.raises(StackError):
            StackConfig(spec="NAK::COM")

    def test_bad_dispatch_rejected(self):
        with pytest.raises(StackError):
            StackConfig(spec="COM", dispatch="warp")

    def test_overrides_merge_over_inline_kwargs(self):
        config = StackConfig(
            spec="FRAG(max_size=512):COM",
            overrides={"FRAG": {"max_size": 128}},
        )
        from repro import World

        world = World(seed=3)
        handle = world.process("a").endpoint().join("g", stack=config)
        assert handle.focus("FRAG").config["max_size"] == 128

    def test_one_config_builds_many_stacks(self):
        from repro import World

        config = StackConfig(spec="MBRSHIP:FRAG:NAK:COM")
        world = World(seed=4)
        ha = world.process("a").endpoint().join("g", stack=config)
        hb = world.process("b").endpoint().join("g", stack=config)
        assert ha.stack is not hb.stack
        assert ha.stack.spec() == hb.stack.spec() == "MBRSHIP:FRAG:NAK:COM"

    def test_join_rejects_config_plus_loose_kwargs(self):
        from repro import World

        config = StackConfig(spec="COM", dispatch="queued")
        world = World(seed=5)
        endpoint = world.process("a").endpoint()
        with pytest.raises(EndpointError):
            endpoint.join("g", stack=config, overrides={"COM": {}})

    def test_config_builds_on_a_standalone_context(self):
        from repro import World
        from repro.core.layer import LayerContext
        from repro.net.address import EndpointAddress, GroupAddress

        world = World(seed=6)
        context = LayerContext(
            scheduler=world.scheduler,
            network=world.network,
            endpoint=EndpointAddress("a", 0),
            group=GroupAddress("g"),
            rng=world.rng.stream("test"),
            trace=world.trace,
        )
        stack = StackConfig(spec="NAK:COM").build(context, lambda upcall: None)
        assert stack.spec() == "NAK:COM"


class TestFocus:
    def _stack(self, spec):
        from repro import World

        world = World(seed=7)
        return world.process("a").endpoint().join("g", stack=spec)

    def test_focus_unique_layer(self):
        handle = self._stack("MBRSHIP:FRAG:NAK:COM")
        assert handle.focus("FRAG").name == "FRAG"

    def test_focus_missing_layer_raises(self):
        handle = self._stack("NAK:COM")
        with pytest.raises(StackError):
            handle.focus("TOTAL")

    def test_focus_ambiguous_raises_without_topmost(self):
        handle = self._stack("LOGGER:FRAG:LOGGER:COM")
        with pytest.raises(StackError) as exc:
            handle.focus("LOGGER")
        assert "ambiguous" in str(exc.value)

    def test_focus_topmost_picks_upper_instance(self):
        handle = self._stack("LOGGER:FRAG:LOGGER:COM")
        layer = handle.focus("LOGGER", topmost=True)
        assert layer is handle.stack.layers[0]

    def test_focus_all_returns_every_instance_top_first(self):
        handle = self._stack("LOGGER:FRAG:LOGGER:COM")
        instances = handle.focus_all("LOGGER")
        assert len(instances) == 2
        assert instances[0] is handle.stack.layers[0]
        assert instances[1] is handle.stack.layers[2]
        assert handle.focus_all("TOTAL") == []

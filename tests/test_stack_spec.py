"""Unit tests for stack spec parsing and run-time composition."""

import pytest

from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import (
    StackConfig,
    format_stack_spec,
    known_layers,
    layer_class,
    parse_stack_spec,
)
from repro.errors import EndpointError, HeaderError, StackError


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

        config = StackConfig(spec="COM")
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


# ----------------------------------------------------------------------
# One turn at a time (toy layers, no network)
# ----------------------------------------------------------------------


def _toy_stack(layer_classes, deliver=lambda upcall: None):
    """A stack of toy layers on a bare context; returns (world, stack, log)."""
    from repro import World
    from repro.core.layer import LayerContext
    from repro.core.stack import Stack
    from repro.net.address import EndpointAddress, GroupAddress

    world = World(seed=8)
    context = LayerContext(
        scheduler=world.scheduler,
        network=world.network,
        endpoint=EndpointAddress("a", 0),
        group=GroupAddress("g"),
        rng=world.rng.stream("test"),
        trace=world.trace,
    )
    log = []
    layers = [cls(context, log=log) for cls in layer_classes]
    return world, Stack(layers, context, deliver), log


class _Logging(Layer):
    """Logs when each handler starts and ends."""

    def handle_down(self, downcall):
        self.config["log"].append(f"{self.name} down {downcall.type.name} [")
        self.pass_down(downcall)
        self.config["log"].append(f"{self.name} down {downcall.type.name} ]")

    def handle_up(self, upcall):
        self.config["log"].append(f"{self.name} up {upcall.type.name}")
        self.pass_up(upcall)


class _Top(_Logging):
    name = "TOP"


class _Sink(_Logging):
    """Bottom of the toy stacks: the wire."""

    name = "SINK"

    def handle_down(self, downcall):
        self.config["log"].append(f"wire {downcall.type.name}")


class _Echo(_Sink):
    """A wire whose VIEW downcall provokes an upcall (NAK's era drain)."""

    def handle_down(self, downcall):
        super().handle_down(downcall)
        if downcall.type is DowncallType.VIEW:
            self.pass_up(Upcall(UpcallType.CAST))


class _TurnsAround(_Logging):
    """``handle_down(VIEW)`` passes an upcall up before it returns."""

    name = "MIDDLE"

    def handle_down(self, downcall):
        if downcall.type is DowncallType.VIEW:
            self.pass_up(Upcall(UpcallType.STABLE))
        super().handle_down(downcall)


class _Installer(_Logging):
    """A timer body that tells below, then above (``_install_view``)."""

    name = "MIDDLE"

    def start(self):
        self.one_shot(0.1, self._install).start()

    def _install(self):
        self.pass_down(Downcall(DowncallType.VIEW))
        self.pass_up(Upcall(UpcallType.VIEW))
        self.config["log"].append("install returned")


class _Corrupt(_Logging):
    """Raises on FLUSH downcalls: HeaderError, or whatever ``boom`` is."""

    name = "MIDDLE"
    boom = HeaderError

    def handle_down(self, downcall):
        if downcall.type is DowncallType.FLUSH:
            raise self.boom("toy")
        super().handle_down(downcall)


class TestTurn:
    def test_upcall_made_while_handling_a_downcall_waits_for_the_handlers(self):
        _, stack, log = _toy_stack([_Top, _TurnsAround, _Sink])
        stack.down(Downcall(DowncallType.VIEW))
        # TOP's handler finished (and the downcall reached the wire)
        # before TOP was entered again with the upcall MIDDLE made.
        assert log == [
            "TOP down VIEW [",
            "MIDDLE down VIEW [",
            "wire VIEW",
            "MIDDLE down VIEW ]",
            "TOP down VIEW ]",
            "TOP up STABLE",
        ]

    def test_timer_body_crossings_run_in_order_after_the_body(self):
        seen = []
        world, stack, log = _toy_stack(
            [_Top, _Installer, _Echo], deliver=lambda u: seen.append(u.type.name)
        )
        stack.start()
        world.run(0.2)
        # The application saw VIEW before the CAST the downcall provoked.
        assert seen == ["VIEW", "CAST"]
        assert log == [
            "install returned",
            "wire VIEW",
            "TOP up VIEW",
            "MIDDLE up CAST",
            "TOP up CAST",
        ]

    def test_no_layer_is_entered_twice_in_the_witness_scenario(self, monkeypatch):
        from repro.chaos import ScenarioRunner, generate_scenario

        active, entries = [], [0]

        def probed(method):
            def entry(layer, event):
                assert layer not in active, (layer, active)
                entries[0] += 1
                active.append(layer)
                try:
                    method(layer, event)
                finally:
                    active.pop()
            return entry

        monkeypatch.setattr(Layer, "down", probed(Layer.down))
        monkeypatch.setattr(Layer, "up", probed(Layer.up))
        result = ScenarioRunner(substrate="sim", seed=1).run(
            generate_scenario(1, 4)
        )
        assert result.ok, result.violations
        assert entries[0] > 1000 and not active

    def test_cast_from_inside_a_handler_is_sent_before_the_entry_returns(self):
        returned = []

        def application(upcall):
            returned.append(stack.down(Downcall(DowncallType.CAST)))
            log.append("handler returned")

        _, stack, log = _toy_stack([_Top, _Sink], deliver=application)
        stack.deliver_from_network(Upcall(UpcallType.CAST))
        assert returned == [None]
        assert log[-4:] == [
            "handler returned", "TOP down CAST [", "wire CAST", "TOP down CAST ]",
        ]

    def test_cast_from_inside_on_message_has_no_verdict_yet(self):
        from repro import World
        from repro.core.events import FlowVerdict

        world = World(seed=12, network="lan")
        verdicts = []
        handles = {}
        for name in ("a", "b"):
            handles[name] = world.process(name).endpoint().join(
                "g", stack="CREDIT:MBRSHIP:FRAG:NAK:COM"
            )
            world.run(0.5)
        world.run(2.0)

        def reply(delivered):
            if delivered.data == b"ping":
                verdicts.append(handles["b"].cast(b"pong"))

        handles["b"].on_message = reply
        assert handles["a"].cast(b"ping") is FlowVerdict.ACCEPTED
        world.run(1.0)
        # Admitted when the handler returned — and delivered all the same.
        assert verdicts == [None]
        assert b"pong" in [m.data for m in handles["a"].delivery_log]

    def test_header_error_abandons_one_queued_crossing(self):
        def application(upcall):
            stack.down(Downcall(DowncallType.FLUSH))
            stack.down(Downcall(DowncallType.ACK))

        _, stack, log = _toy_stack([_Top, _Corrupt, _Sink], deliver=application)
        stack.deliver_from_network(Upcall(UpcallType.CAST))
        assert stack.undecodable_messages == 1
        assert "wire FLUSH" not in log and log[-3] == "wire ACK"

    def test_other_exceptions_propagate_and_leave_the_stack_runnable(self, monkeypatch):
        def application(upcall):
            stack.down(Downcall(DowncallType.FLUSH))
            stack.down(Downcall(DowncallType.ACK))

        monkeypatch.setattr(_Corrupt, "boom", RuntimeError)
        _, stack, log = _toy_stack([_Top, _Corrupt, _Sink], deliver=application)
        with pytest.raises(RuntimeError):
            stack.deliver_from_network(Upcall(UpcallType.CAST))
        # The unrun remainder went with the exception; nothing stale
        # replays on the next entry.
        assert "wire ACK" not in log and stack.undecodable_messages == 0
        del log[:]
        stack.down(Downcall(DowncallType.STABLE))
        assert log == [
            "TOP down STABLE [", "MIDDLE down STABLE [", "wire STABLE",
            "MIDDLE down STABLE ]", "TOP down STABLE ]",
        ]

    def test_application_downcall_that_cannot_encode_raises_to_the_caller(self):
        _, stack, _ = _toy_stack([_Top, _Corrupt, _Sink])
        with pytest.raises(HeaderError):
            stack.down(Downcall(DowncallType.FLUSH))
        assert stack.undecodable_messages == 0

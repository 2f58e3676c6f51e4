"""Run-time protocol stack composition.

Figure 1 of the paper: "Protocol layers can be stacked at run-time like
LEGO blocks."  A stack is described by a spec string such as
``"TOTAL:MBRSHIP:FRAG:NAK:COM"`` (top to bottom, the paper's notation
from Section 7), parsed and instantiated when an endpoint joins a
group.  Per-layer parameters can be supplied inline:
``"FRAG(max_size=512):NAK(window=64):COM"``.

A stack runs one *turn* at a time (:class:`~repro.core.layer.Turn`): a
crossing that continues the traversal in progress is a procedure call,
one that turns around waits until the handler that made it has returned,
and the outermost entry drains what waits before it returns — no layer
is entered while its own code is on the call stack.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.events import Downcall, Upcall
from repro.core.layer import DOWN, UP, Layer, LayerContext, Turn
from repro.errors import StackError
from repro.obs import SpanRecorder, StackObserver

# ----------------------------------------------------------------------
# Layer class registry
# ----------------------------------------------------------------------

_LAYER_CLASSES: Dict[str, Type[Layer]] = {}

#: Spec name -> the library module whose import registers that layer.
#: Building a stack imports only the modules its spec names, so a
#: process pays the import (and decodes the headers) of the layers it
#: stacks and no others.  ``tests/test_layer_loading.py`` checks this
#: table against what a full load of the library registers.
_LAYER_MODULES: Dict[str, str] = {
    "ACCOUNT": "repro.layers.logger",
    "BMS": "repro.layers.bms",
    "CAUSAL": "repro.layers.causal",
    "CAUSAL_TS": "repro.layers.causal",
    "CHKSUM": "repro.layers.chksum",
    "COM": "repro.layers.com",
    "COMPRESS": "repro.layers.compress",
    "CREDIT": "repro.layers.credit",
    "CRYPT": "repro.layers.crypt",
    "FLUSH": "repro.layers.flush",
    "FRAG": "repro.layers.frag",
    "KEYDIST": "repro.layers.keydist",
    "LOCATE": "repro.layers.locate",
    "LOGGER": "repro.layers.logger",
    "MBRSHIP": "repro.layers.mbrship",
    "MERGE": "repro.layers.merge",
    "NAK": "repro.layers.nak",
    "NFRAG": "repro.layers.nfrag",
    "NNAK": "repro.layers.nnak",
    "PINWHEEL": "repro.layers.pinwheel",
    "PRIO": "repro.layers.prio",
    "REALTIME": "repro.layers.realtime",
    "RPC": "repro.layers.rpc",
    "SAFE": "repro.layers.safe",
    "SIGN": "repro.layers.sign",
    "STABLE": "repro.layers.stable",
    "SYNC": "repro.layers.syncclock",
    "TOTAL": "repro.layers.total",
    "TRACER": "repro.layers.logger",
    "VSS": "repro.layers.vss",
    "XFER": "repro.layers.xfer",
}


def register_layer(cls: Type[Layer]) -> Type[Layer]:
    """Class decorator: make ``cls`` available to stack specs by name."""
    name = cls.name
    if name in _LAYER_CLASSES:
        raise StackError(f"layer name {name!r} registered twice")
    _LAYER_CLASSES[name] = cls
    return cls


def layer_class(name: str) -> Type[Layer]:
    """Look up a layer class, importing the module that registers it."""
    cls = _LAYER_CLASSES.get(name)
    if cls is not None:
        return cls
    module = _LAYER_MODULES.get(name)
    if module is None:
        known = ", ".join(known_layers())
        raise StackError(f"unknown layer {name!r}; known layers: {known}")
    importlib.import_module(module)
    return _LAYER_CLASSES[name]


def known_layers() -> List[str]:
    """Names of every registered layer class (loads the whole library)."""
    _load_library()
    return sorted(_LAYER_CLASSES)


def _load_library() -> None:
    """Import every module of the layer library so each self-registers."""
    import pkgutil

    import repro.layers

    for module in pkgutil.iter_modules(repro.layers.__path__, "repro.layers."):
        importlib.import_module(module.name)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

LayerSpec = Tuple[str, Dict[str, Any]]


def parse_stack_spec(spec: str) -> List[LayerSpec]:
    """Parse ``"TOTAL:MBRSHIP:FRAG(max_size=512):NAK:COM"``.

    Returns ``[(name, kwargs), ...]`` ordered top to bottom.  Values in
    parentheses are parsed as Python literals (ints, floats, strings,
    booleans).
    """
    layers: List[LayerSpec] = []
    for part in _split_spec(spec):
        part = part.strip()
        if not part:
            raise StackError(f"empty layer in spec {spec!r}")
        if "(" in part:
            if not part.endswith(")"):
                raise StackError(f"unbalanced parentheses in {part!r}")
            name, _, arg_text = part[:-1].partition("(")
            kwargs = _parse_kwargs(arg_text, part)
        else:
            name, kwargs = part, {}
        layers.append((name.strip(), kwargs))
    if not layers:
        raise StackError("stack spec is empty")
    return layers


def _split_spec(spec: str) -> List[str]:
    """Split on ``:`` while respecting parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise StackError(f"unbalanced parentheses in {spec!r}")
        if ch == ":" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_kwargs(arg_text: str, context: str) -> Dict[str, Any]:
    """Parse ``a=1, b='x'`` into a kwargs dict."""
    kwargs: Dict[str, Any] = {}
    arg_text = arg_text.strip()
    if not arg_text:
        return kwargs
    for item in arg_text.split(","):
        key, eq, raw = item.partition("=")
        if not eq:
            raise StackError(f"bad layer argument {item!r} in {context!r}")
        kwargs[key.strip()] = _parse_literal(raw.strip())
    return kwargs


def _parse_literal(raw: str):
    """Parse one literal value: bool, int, float, or (quoted) string."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    return raw


def format_stack_spec(layers: List[LayerSpec]) -> str:
    """Inverse of :func:`parse_stack_spec` (kwargs included)."""
    parts = []
    for name, kwargs in layers:
        if kwargs:
            args = ",".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
            parts.append(f"{name}({args})")
        else:
            parts.append(name)
    return ":".join(parts)


# ----------------------------------------------------------------------
# The stack itself
# ----------------------------------------------------------------------


def _fell_off(downcall: Downcall) -> None:
    """Below the bottom layer; reaching it is a composition bug."""
    raise StackError(
        f"downcall {downcall.type.name} fell off the bottom of the stack; "
        "is a COM (network adapter) layer missing?"
    )


class Stack:
    """A fully wired protocol stack for one (endpoint, group) pair.

    Build one with :meth:`StackConfig.build`.  The application (in
    practice the :class:`~repro.core.group.GroupHandle`) calls
    :meth:`down` and receives upcalls through the ``deliver`` callback
    it supplied.  Only when ``context.obs`` asks for it does a
    :class:`~repro.obs.StackObserver` (``observer``) wrap every layer's
    HCPI edges; the layers themselves carry no instrumentation code.
    """

    def __init__(
        self,
        layers: List[Layer],
        context: LayerContext,
        deliver: Callable[[Upcall], None],
    ) -> None:
        if not layers:
            raise StackError("a stack needs at least one layer")
        self.layers = layers  # index 0 = top
        self.context = context
        self._turn = Turn()
        self._wire(deliver)
        self.observer = self._observe()
        # Export-time collectors over the layers' own state; they live
        # exactly as long as the stack runs.
        self._collectors: List[Callable[[], None]] = []
        if context.metrics is not None:
            for layer in layers:
                self._collectors.extend(layer._collectors())
            for collector in self._collectors:
                context.metrics.add_collector(collector)
        self.started = False

    def _wire(self, deliver: Callable[[Upcall], None]) -> None:
        """Connect ``above``/``below`` and share the turn; the application
        sits above the top layer, nothing below the bottom one."""
        chain = [SimpleNamespace(up=deliver), *self.layers,
                 SimpleNamespace(down=_fell_off)]
        for above, layer, below in zip(chain, chain[1:], chain[2:]):
            layer._turn = self._turn
            layer.above, layer.below = above, below

    def _observe(self) -> Optional[StackObserver]:
        """Install one observer on the layers if the context asks for it."""
        context = self.context
        options = context.obs
        if not (options.layer_metrics or options.spans):
            return None
        recorder: Optional[SpanRecorder] = None
        if options.spans:
            recorder = context.spans
            if recorder is None:
                # A standalone stack (tests, scripts) still gets spans;
                # they are reachable via stack.observer.spans.
                recorder = SpanRecorder(max_spans=options.max_spans)
        observer = StackObserver(
            context.scheduler,
            metrics=context.metrics if options.layer_metrics else None,
            spans=recorder,
            header_registry=context.registry,
            endpoint=str(context.endpoint),
            group=str(context.group),
            sample=options.sample,
            wire_mode=context.wire_mode,
        )
        observer.install(self.layers)
        return observer

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start layers bottom-up so lower services exist first."""
        if self.started:
            return
        self.started = True
        for layer in reversed(self.layers):
            layer.start()

    def stop(self) -> None:
        """Stop layers top-down, then take the stack's collectors off the
        registry after one last run; idempotent.

        A stopped layer is entered no more and counts no crossing, so
        that run is final even when the stop comes mid-turn (the EXIT
        upcall) and packets still reach the stack afterwards."""
        for layer in self.layers:
            layer.stop()
        for collector in self._collectors:
            collector()
            self.context.metrics.remove_collector(collector)
        self._collectors = []

    # -- application edge --------------------------------------------------

    def down(self, downcall: Downcall) -> None:
        """Inject a downcall at the top: run to the wire before this
        returns, or — from inside a turn — when the running handler has.

        A layer may hold a downcall back past that: under TOTAL a cast
        leaves at the end of the turn that made it, packed with the
        other casts that turn made.  Layers above the holding one, such
        as CREDIT, still handle the downcall before this returns."""
        self._turn.cross(self.layers[0].down, DOWN, downcall)

    def deliver_from_network(self, upcall: Upcall) -> None:
        """Inject an upcall at the bottom (used only by the endpoint demux).

        The demux unmarshals every datagram lazily: its structure is
        checked there, but each header decodes only when its layer pops
        it, so a corrupt header surfaces *here*, mid-traversal.  The
        turn drops the crossing that hit it and counts it
        (:attr:`undecodable_messages`).
        """
        self._turn.cross(self.layers[-1].up, UP, upcall)

    @property
    def undecodable_messages(self) -> int:
        """Crossings dropped on a corrupt lazily-decoded header."""
        return self._turn.undecodable

    # -- introspection (Table 1: focus, dump) ------------------------------

    def focus(self, name: str, topmost: bool = False) -> Layer:
        """Return the unique layer instance with the given name.

        A stack may legitimately contain a layer twice (e.g. two CRYPT
        instances bracketing a gateway); silently returning the first
        hid that.  When the name is ambiguous this raises unless
        ``topmost=True`` explicitly asks for the uppermost instance;
        :meth:`focus_all` returns every match.
        """
        matches = self.focus_all(name)
        if not matches:
            raise StackError(f"no layer named {name!r} in this stack")
        if len(matches) > 1 and not topmost:
            raise StackError(
                f"layer name {name!r} is ambiguous: {len(matches)} instances "
                f"in {self.spec()}; pass topmost=True or use focus_all()"
            )
        return matches[0]

    def focus_all(self, name: str) -> List[Layer]:
        """Every layer instance with the given name, top first."""
        return [layer for layer in self.layers if layer.name == name]

    def dump(self) -> List[Dict[str, Any]]:
        """Per-layer introspection blobs, top first."""
        return [layer.dump() for layer in self.layers]

    def spec(self) -> str:
        """The spec string this stack corresponds to (names only)."""
        return ":".join(layer.name for layer in self.layers)

    def __repr__(self) -> str:
        return f"<Stack {self.spec()} for {self.context.endpoint}/{self.context.group}>"


class StackConfig:
    """Keyword-only description of one protocol stack to build.

    Collects everything a stack build needs — spec string and per-layer
    overrides — in one reusable value::

        config = StackConfig(spec="TOTAL:MBRSHIP:FRAG:NAK:COM",
                             overrides={"FRAG": {"max_size": 512}})
        stack = config.build(context, deliver)

    ``overrides`` maps layer names to extra constructor kwargs, merged
    over any inline arguments in the spec (programmatic configuration
    wins over the spec string).  What a stack observes comes from its
    context (``context.obs``, the world's
    :class:`~repro.obs.ObsOptions`).  One config may build many stacks
    (one per endpoint/group pair); they share the context-provided
    registry and span recorder but each gets its own observer.
    """

    def __init__(
        self,
        *,
        spec: str,
        overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        # Parse eagerly so a bad spec fails where the config is written,
        # not later at some endpoint's join().
        self.spec = spec
        self.parsed = parse_stack_spec(spec)
        self.overrides = dict(overrides) if overrides else {}

    def build(
        self, context: LayerContext, deliver: Callable[[Upcall], None]
    ) -> Stack:
        """Instantiate and wire one stack for ``context``.

        Refuses a layer that seals the datagram (CHKSUM, SIGN) above
        one that reshapes the body (CRYPT, COMPRESS, FRAG, NFRAG).  A
        seal covers the headers above it and the body as it travels:
        above CRYPT or COMPRESS it would leave the header that decides
        what those bytes mean uncovered (a changed nonce decrypts to
        plaintext no member sent), and above FRAG or NFRAG it would
        cover one fragment of the body.
        """
        layers: List[Layer] = []
        sealer = None
        for name, kwargs in self.parsed:
            cls = layer_class(name)
            if cls.seals_datagram:
                sealer = sealer or name
            elif cls.reshapes_body and sealer:
                raise StackError(
                    f"stack {self.spec!r}: {sealer} must sit below {name}, "
                    f"which rewrites or splits the body {sealer} covers"
                )
            merged = dict(kwargs)
            if name in self.overrides:
                merged.update(self.overrides[name])
            layers.append(cls(context, **merged))
        return Stack(layers, context, deliver)

    def __repr__(self) -> str:
        return f"<StackConfig {self.spec!r}>"


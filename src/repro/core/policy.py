"""Layer-protection policies over structured layer addressing.

A policy decides which layers are shielded in the enclave during each FL
cycle.  It is built over a :class:`ModelLayout` — the model's ordered
:class:`LayerRef` list, or the model itself — and addresses layers by
*selector*: a :class:`LayerRef`, a :class:`BlockSelector`, or a string
(``"L2"``, ``"block2"``, ``"block2.softmax"``).  That is the only
vocabulary: an integer where a selector or a layout belongs is a
:class:`PolicyError` naming the spelling to use.

* :class:`StaticPolicy` — GradSec's static mode (§7.1): a fixed set of
  layers, possibly **non-contiguous** (up to two separate slices, per the
  paper's description), for every cycle.
* :class:`DarknetzPolicy` — the DarkneTZ baseline: a static policy held to
  one protection unit; requesting non-successive layers is a hard error,
  which is the limitation GradSec removes.
* :class:`DynamicPolicy` — GradSec's dynamic mode (§7.2): a moving window
  of ``size_mw`` successive layers whose position is drawn each cycle from
  the probability vector ``V_MW``.
* :class:`PeltaPolicy` — Pelta-style block shielding for transformers: the
  protection unit is a structured sublayer set (by default the softmax and
  layernorms of a block), either as a fixed set of blocks or as the same
  moving window slid over block positions.
* :class:`NoProtection` — the unprotected baseline.

``layers_for_cycle`` always returns a ``FrozenSet[int]`` of 1-based
indices, so every downstream consumer (cost model, leakage ledger, planner,
shielded runtime) sees resolved sets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PolicyError",
    "LayerRef",
    "BlockSelector",
    "ModelLayout",
    "ProtectionPolicy",
    "NoProtection",
    "StaticPolicy",
    "DarknetzPolicy",
    "DynamicPolicy",
    "PeltaPolicy",
    "policy_from_spec",
    "structured_slices",
]


class PolicyError(ValueError):
    """A protection policy was configured outside its legal envelope."""


@dataclass(frozen=True)
class LayerRef:
    """Typed reference to one shieldable layer.

    ``index`` is the paper's 1-based position.  Flat conv/fc layers carry
    only a name (``"L2"``); transformer sublayers additionally carry the
    ``block``/``role`` pair that makes them addressable as a structured
    protection unit (``block2.softmax``).
    """

    index: int
    name: str = ""
    block: Optional[str] = None
    role: Optional[str] = None

    def __lt__(self, other: "LayerRef") -> bool:
        return self.index < other.index

    def __repr__(self) -> str:  # compact, address-first
        return f"LayerRef({self.name or self.index!r}@{self.index})"


@dataclass(frozen=True)
class BlockSelector:
    """Select sublayers of one named block, optionally filtered by role.

    ``BlockSelector("block2")`` addresses the whole block;
    ``BlockSelector("block2", roles=("softmax", "ln1", "ln2"))`` addresses
    the Pelta protection unit inside it.
    """

    block: str
    roles: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))


# Selector spellings a policy accepts for one-or-more layers.
Selector = Union[str, LayerRef, BlockSelector]


class ModelLayout:
    """The addressable layer structure of one model.

    An ordered list of :class:`LayerRef` with consecutive 1-based indices;
    the resolver that turns any selector spelling into concrete refs lives
    here, so policies stay pure schedule logic.
    """

    def __init__(self, refs: Sequence[LayerRef]) -> None:
        refs = tuple(refs)
        if not refs:
            raise PolicyError("a layout needs at least one layer")
        for position, ref in enumerate(refs, start=1):
            if ref.index != position:
                raise PolicyError(
                    f"layout indices must be consecutive from 1; "
                    f"position {position} holds index {ref.index}"
                )
        self.refs = refs
        self._by_name: Dict[str, LayerRef] = {}
        self._blocks: Dict[str, List[LayerRef]] = {}
        for ref in refs:
            if ref.name:
                self._by_name.setdefault(ref.name, ref)
            if ref.block is not None:
                self._blocks.setdefault(ref.block, []).append(ref)

    # -- introspection ---------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.refs)

    def __iter__(self) -> Iterator[LayerRef]:
        return iter(self.refs)

    def ref(self, index: int) -> LayerRef:
        """The ref at a 1-based index."""
        if not 1 <= int(index) <= len(self.refs):
            raise PolicyError(
                f"layer index {index} outside 1..{len(self.refs)}"
            )
        return self.refs[int(index) - 1]

    def block_names(self) -> List[str]:
        return list(self._blocks)

    # -- construction ----------------------------------------------------
    @classmethod
    def of(cls, model) -> "ModelLayout":
        """Read the layout off a :class:`repro.nn.model.Sequential`.

        Layers exposing ``block``/``role`` attributes (the transformer
        sublayers) become structured refs; everything else stays flat.  A
        layout is its own layout.
        """
        if isinstance(model, ModelLayout):
            return model
        if not hasattr(model, "layers"):
            raise PolicyError(
                f"expected a ModelLayout or a model, got {model!r}: pass "
                "model.layout() and address layers by name ('L2', 'block1')"
            )
        refs = [
            LayerRef(
                index=i,
                name=layer.name or f"L{i}",
                block=getattr(layer, "block", None),
                role=getattr(layer, "role", None),
            )
            for i, layer in enumerate(model.layers, start=1)
        ]
        return cls(refs)

    # -- resolution ------------------------------------------------------
    def resolve(self, spec: Selector) -> Tuple[LayerRef, ...]:
        """Resolve one selector to concrete refs (in model order)."""
        if isinstance(spec, LayerRef):
            ref = self.ref(spec.index)
            for attr in ("name", "block", "role"):
                want = getattr(spec, attr)
                if want and want != getattr(ref, attr):
                    raise PolicyError(
                        f"stale LayerRef: {spec!r} does not match this "
                        f"layout's {ref!r}"
                    )
            return (ref,)
        if isinstance(spec, BlockSelector):
            if spec.block not in self._blocks:
                raise PolicyError(
                    f"unknown block {spec.block!r}; "
                    f"layout has {self.block_names() or 'no blocks'}"
                )
            refs = self._blocks[spec.block]
            if spec.roles:
                picked = [r for r in refs if r.role in spec.roles]
                missing = set(spec.roles) - {r.role for r in picked}
                if missing:
                    raise PolicyError(
                        f"block {spec.block!r} has no role(s) {sorted(missing)}"
                    )
                return tuple(picked)
            return tuple(refs)
        if isinstance(spec, str):
            if spec in self._by_name:
                return (self._by_name[spec],)
            if spec in self._blocks:
                return tuple(self._blocks[spec])
            if "." in spec:
                block, role = spec.split(".", 1)
                return self.resolve(BlockSelector(block, roles=(role,)))
        raise PolicyError(
            f"cannot resolve layer selector {spec!r}; address layers by name "
            "('L2'), block ('block1') or 'block.role', or pass a LayerRef "
            "(layout.ref(i) holds the 1-based index i)"
        )


def structured_slices(refs: Sequence[LayerRef]) -> List[Tuple[LayerRef, ...]]:
    """Group refs into protection units over the *block* structure.

    One unit is either (a) all selected sublayers of one named block —
    regardless of flat adjacency, the enclave provisions a block as one
    structured region — or (b) a maximal run of flat-adjacent block-less
    refs.  Block boundaries always split, even when the flat indices touch:
    two attention blocks are two units.  For fully flat layouts the units
    are the maximal runs of consecutive layer indices.
    """
    ordered = sorted(set(refs))
    units: List[Tuple[LayerRef, ...]] = []
    current: List[LayerRef] = []
    for ref in ordered:
        if current:
            prev = current[-1]
            same_block = ref.block is not None and ref.block == prev.block
            flat_run = (
                ref.block is None
                and prev.block is None
                and ref.index == prev.index + 1
            )
            if same_block or flat_run:
                current.append(ref)
                continue
            units.append(tuple(current))
        current = [ref]
    if current:
        units.append(tuple(current))
    return units


class ProtectionPolicy:
    """Base class: maps an FL cycle number to a set of protected layers.

    The first constructor argument is the model's :class:`ModelLayout`, or
    a model exposing ``.layers`` (whose layout is read off it).
    """

    def __init__(self, layout: Union[ModelLayout, object]) -> None:
        self.layout = ModelLayout.of(layout)
        self.num_layers = self.layout.num_layers

    def layers_for_cycle(self, cycle: int) -> FrozenSet[int]:
        raise NotImplementedError

    def all_possible_sets(self) -> List[FrozenSet[int]]:
        """Every distinct protected set the policy can produce."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class NoProtection(ProtectionPolicy):
    """Train fully in the normal world (the paper's baseline row)."""

    def layers_for_cycle(self, cycle: int) -> FrozenSet[int]:
        return frozenset()

    def all_possible_sets(self) -> List[FrozenSet[int]]:
        return [frozenset()]

    def describe(self) -> str:
        return "no protection"


class StaticPolicy(ProtectionPolicy):
    """Static GradSec: a fixed, possibly non-contiguous set of layers.

    Parameters
    ----------
    layout:
        The model's :class:`ModelLayout` (or the model).
    layers:
        Selectors for the layers to shield every cycle — refs, block
        selectors, or address strings.
    max_slices:
        Maximum number of separate protection units (the paper supports
        "one or two separate slices").  Units are counted over the *block*
        structure (see :func:`structured_slices`): a whole attention block
        is one unit, but two blocks are two units even when their flat
        indices are adjacent.  Pass ``None`` to lift the restriction.
    """

    _label = "static GradSec"

    def __init__(
        self,
        layout: Union[ModelLayout, object],
        layers: Sequence[Selector],
        max_slices: int | None = 2,
    ) -> None:
        super().__init__(layout)
        self.layer_refs = frozenset(
            ref for spec in layers for ref in self.layout.resolve(spec)
        )
        self.layers = frozenset(ref.index for ref in self.layer_refs)
        self.units = structured_slices(self.layer_refs)
        if max_slices is not None and len(self.units) > max_slices:
            pretty = ["+".join(r.name or str(r.index) for r in u) for u in self.units]
            raise PolicyError(
                f"static GradSec supports at most {max_slices} slices, "
                f"got {len(self.units)}: {pretty}"
            )

    def layers_for_cycle(self, cycle: int) -> FrozenSet[int]:
        return self.layers

    def all_possible_sets(self) -> List[FrozenSet[int]]:
        return [self.layers]

    def describe(self) -> str:
        ordered = sorted(self.layer_refs)
        pretty = "+".join(ref.name or f"L{ref.index}" for ref in ordered) or "none"
        return f"{self._label} [{pretty}]"


class DarknetzPolicy(StaticPolicy):
    """DarkneTZ baseline: a static policy of one protection unit.

    DarkneTZ protects the *last* layers of a model (or generally one run of
    successive layers).  Asking it for non-successive layers raises — this
    is exactly the capability gap Table 1 quantifies.
    """

    _label = "DarkneTZ"

    def __init__(
        self,
        layout: Union[ModelLayout, object],
        layers: Sequence[Selector],
    ) -> None:
        super().__init__(layout, layers, max_slices=None)
        if len(self.units) > 1:
            raise PolicyError(
                "DarkneTZ can only protect successive layers; "
                f"{sorted(self.layers)} spans {len(self.units)} separate slices "
                "(use StaticPolicy for non-contiguous protection)"
            )


class _MovingWindow(ProtectionPolicy):
    """The moving window shared by :class:`DynamicPolicy` (over layers) and
    :class:`PeltaPolicy` (over blocks).

    ``windows`` lists every position as a tuple of 1-based layer indices.
    The position protected in a cycle is drawn from ``v_mw`` by a generator
    keyed on ``(seed, cycle)``, so every participant replays the schedule
    without sharing generator state.
    """

    size_mw: Optional[int]
    v_mw: np.ndarray
    seed: int
    windows: List[Tuple[int, ...]]

    def _slide(
        self,
        units: Sequence[Tuple[int, ...]],
        size_mw: int,
        v_mw: Sequence[float],
        seed: int,
        unit_name: str,
    ) -> None:
        """Validate ``V_MW`` and lay out every window of ``size_mw`` units."""
        if not 1 <= size_mw <= len(units):
            raise PolicyError(f"size_mw must be in 1..{len(units)}, got {size_mw}")
        self.size_mw = int(size_mw)
        positions = len(units) - self.size_mw + 1
        v = np.asarray(v_mw, dtype=np.float64)
        if v.shape != (positions,):
            raise PolicyError(
                f"V_MW must have {positions} entries for size_mw={size_mw} "
                f"over {len(units)} {unit_name}, got {v.shape}"
            )
        # Every comparison with NaN is false: test finiteness explicitly.
        if not np.isfinite(v).all() or (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise PolicyError("V_MW entries must be finite, non-negative and sum to 1")
        self.v_mw = v
        self.seed = int(seed)
        self.windows = [
            tuple(sorted(i for unit in units[start : start + self.size_mw] for i in unit))
            for start in range(positions)
        ]

    def window_for_cycle(self, cycle: int) -> Tuple[int, ...]:
        """Window protected during ``cycle`` (deterministic)."""
        rng = np.random.default_rng((self.seed, int(cycle)))
        position = rng.choice(len(self.v_mw), p=self.v_mw)
        return self.windows[int(position)]

    def layers_for_cycle(self, cycle: int) -> FrozenSet[int]:
        return frozenset(self.window_for_cycle(cycle))

    def all_possible_sets(self) -> List[FrozenSet[int]]:
        return [frozenset(w) for w, p in zip(self.windows, self.v_mw) if p > 0]


class DynamicPolicy(_MovingWindow):
    """Dynamic GradSec: a moving window over FL cycles (§7.2).

    Parameters
    ----------
    layout:
        The model's :class:`ModelLayout` (or the model).
    size_mw:
        Number of successive layers shielded each cycle.
    v_mw:
        Probability of each window position; length must be
        ``num_layers - size_mw + 1`` and the entries must sum to 1.
    seed:
        Seed of the per-cycle position draw.  The draw is deterministic in
        ``(seed, cycle)`` so every participant can replay the schedule.
    """

    def __init__(
        self,
        layout: Union[ModelLayout, object],
        size_mw: int,
        v_mw: Sequence[float],
        seed: int = 0,
    ) -> None:
        super().__init__(layout)
        layers = [(ref.index,) for ref in self.layout]
        self._slide(layers, size_mw, v_mw, seed, "layers")

    def describe(self) -> str:
        probs = ", ".join(f"{p:.2f}" for p in self.v_mw)
        return f"dynamic GradSec [MW={self.size_mw}, V_MW=({probs})]"


class PeltaPolicy(_MovingWindow):
    """Pelta-style block shielding: the protection unit is an attention block.

    Within each selected block the shielded sublayers are the ``roles``
    (default: the Pelta set — ``ln1``, ``softmax``, ``ln2``: the layers
    whose intermediate values drive transformer gradient inversion).

    Two modes, mirroring static vs dynamic GradSec:

    * **static** (no ``v_mw``): a fixed set of ``blocks`` (default: every
      block) is shielded each cycle — the window with one position.
    * **moving window** (``v_mw`` given): each cycle a window of ``size_mw``
      consecutive blocks is drawn from the probability vector ``v_mw`` —
      :class:`DynamicPolicy`'s window, slid over block positions instead of
      layer positions.

    Parameters
    ----------
    layout:
        A :class:`ModelLayout` (or model) with named blocks.
    blocks:
        Block names for static mode (``"block2"``).  ``None`` selects all
        blocks.
    roles:
        Sublayer roles shielded within each selected block.
    size_mw, v_mw, seed:
        Moving-window mode over block positions (see above).
    """

    DEFAULT_ROLES: Tuple[str, ...] = ("ln1", "softmax", "ln2")

    def __init__(
        self,
        layout: Union[ModelLayout, object],
        blocks: Optional[Sequence[str]] = None,
        roles: Optional[Sequence[str]] = None,
        size_mw: Optional[int] = None,
        v_mw: Optional[Sequence[float]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(layout)
        names = self.layout.block_names()
        if not names:
            raise PolicyError(
                "PeltaPolicy needs a layout with named blocks; "
                "this model has none (use StaticPolicy/DynamicPolicy)"
            )
        self.block_names = names
        self.roles = tuple(roles) if roles is not None else self.DEFAULT_ROLES

        if v_mw is None:
            if size_mw is not None:
                raise PolicyError("size_mw without v_mw; pass both for a moving window")
            self.blocks = tuple(dict.fromkeys(names if blocks is None else blocks))
            self.size_mw, self.v_mw, self.seed = None, np.ones(1), int(seed)
            self.windows = [self._indices(self.blocks)]
        else:
            if blocks is not None:
                raise PolicyError("blocks and v_mw are mutually exclusive modes")
            self.blocks = tuple(names)
            units = [self._indices((block,)) for block in names]
            self._slide(units, 1 if size_mw is None else size_mw, v_mw, seed, "blocks")

    def _indices(self, blocks: Sequence[str]) -> Tuple[int, ...]:
        """Indices of the shielded roles in ``blocks`` (raises on a bad name)."""
        return tuple(
            sorted(
                ref.index
                for block in blocks
                for ref in self.layout.resolve(BlockSelector(block, roles=self.roles))
            )
        )

    def describe(self) -> str:
        roles = ",".join(self.roles)
        if self.size_mw is None:
            return f"Pelta [{'+'.join(self.blocks)}: {roles}]"
        probs = ", ".join(f"{p:.2f}" for p in self.v_mw)
        return f"Pelta MW [size={self.size_mw}, roles={roles}, V_MW=({probs})]"


def policy_from_spec(spec: str, layout: Union[ModelLayout, object], seed: int = 0) -> ProtectionPolicy:
    """Build a policy from a compact CLI-style spec string.

    Grammar (``layout`` is a :class:`ModelLayout` or a model)::

        none                        no protection
        static:SEL[+SEL...]         StaticPolicy over selectors (layer
                                    names, blocks, or block.role)
        darknetz:SEL[+SEL...]       DarknetzPolicy over selectors
        mw:K                        DynamicPolicy, uniform window of K layers
        pelta                       PeltaPolicy, every block, default roles
        pelta:BLOCK[+BLOCK...]      PeltaPolicy over named blocks
        pelta-mw:K                  PeltaPolicy moving window of K blocks

    Dynamic modes draw their windows from ``seed``.
    """
    layout = ModelLayout.of(layout)
    head, _, rest = str(spec).strip().partition(":")
    selectors = [part for part in rest.split("+") if part]
    if head in ("", "none"):
        return NoProtection(layout)
    if head == "static":
        if not selectors:
            raise PolicyError("static policy spec needs selectors, e.g. static:L2+L5")
        return StaticPolicy(layout, selectors, max_slices=None)
    if head == "darknetz":
        if not selectors:
            raise PolicyError("darknetz policy spec needs selectors, e.g. darknetz:L4+L5")
        return DarknetzPolicy(layout, selectors)
    if head == "mw":
        size = int(rest or 1)
        positions = layout.num_layers - size + 1
        if positions < 1:
            raise PolicyError(
                f"window of {size} does not fit a {layout.num_layers}-layer model"
            )
        return DynamicPolicy(
            layout, size, (1.0 / positions,) * positions, seed=seed
        )
    if head == "pelta":
        return PeltaPolicy(layout, blocks=selectors or None)
    if head == "pelta-mw":
        size = int(rest or 1)
        positions = len(layout.block_names()) - size + 1
        if positions < 1:
            raise PolicyError(
                f"block window of {size} does not fit "
                f"{len(layout.block_names())} blocks"
            )
        return PeltaPolicy(
            layout, size_mw=size, v_mw=(1.0 / positions,) * positions, seed=seed
        )
    raise PolicyError(
        f"unknown policy spec {spec!r}; expected none, static:…, darknetz:…, "
        "mw:K, pelta, pelta:…, or pelta-mw:K"
    )

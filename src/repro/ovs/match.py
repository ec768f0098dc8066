"""OpenFlow matches over flow-key fields.

A :class:`Match` is a set of ``field: (value, mask)`` constraints over
:class:`~repro.net.flow.FlowKey` fields.  Matches with the same *shape*
(set of masked fields) share a classifier subtable, which is what makes
tuple-space-search lookup cost proportional to the number of distinct
shapes — the quantity Table 3 reports as "matching fields among all
rules: 31".
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.net.flow import FlowKey, FlowMask, MaskSpec, N_FLOW_FIELDS

_FIELD_INDEX = {name: i for i, name in enumerate(FlowKey._fields)}

#: Full-field widths, for normalising -1 ("exact") masks per field.
_FULL_MASK = {
    "in_port": 0xFFFFFFFF,
    "eth_src": 0xFFFFFFFFFFFF,
    "eth_dst": 0xFFFFFFFFFFFF,
    "eth_type": 0xFFFF,
    "vlan_tci": 0x1FFF,
    "nw_src": 0xFFFFFFFF,
    "nw_dst": 0xFFFFFFFF,
    "nw_proto": 0xFF,
    "nw_tos": 0xFF,
    "nw_ttl": 0xFF,
    "nw_frag": 0x3,
    "tp_src": 0xFFFF,
    "tp_dst": 0xFFFF,
    "tcp_flags": 0xFF,
    "recirc_id": 0xFFFFFFFF,
    "ct_state": 0xFF,
    "ct_zone": 0xFFFF,
    "ct_mark": 0xFFFFFFFF,
    "tun_id": 0xFFFFFF,
    "tun_src": 0xFFFFFFFF,
    "tun_dst": 0xFFFFFFFF,
    "metadata": 0xFFFFFFFFFFFFFFFF,
    **{f"reg{i}": 0xFFFFFFFF for i in range(9)},
}


class _Shape(MaskSpec):
    """What every match with one ``(fields, masks)`` signature shares.

    ``mask`` is the dense :data:`FlowMask` (what ``probed_masks`` and
    megaflow masks are built from) and ``fields`` the non-zero ``(index,
    bits)`` pairs a packet key is projected through, both inherited;
    ``names`` is every constrained field in :class:`FlowKey` order,
    including zero-mask ones such as ``nw_src=(0, 0)``, which constrain
    nothing but still tell two matches apart.  Shapes are interned, so
    matches compare them by identity.
    """

    __slots__ = ("names", "mask_hash")

    def __init__(self, names: Tuple[str, ...], mask: FlowMask) -> None:
        super().__init__(mask)
        self.names = names
        self.mask_hash = hash(self.mask)

    def __reduce__(self):
        # Copies and unpickles re-intern instead of forking the identity.
        return _intern, (self.names, self.mask)


#: The intern tables: pure caches, no behaviour depends on what they
#: hold.  ``_SHAPES`` is keyed canonically, ``_SIGNATURES`` by the
#: constraints as a call site wrote them (names in keyword order, raw
#: masks, -1 for "exact").
_SHAPES: Dict[Tuple[Tuple[str, ...], FlowMask], _Shape] = {}
_SIGNATURES: Dict[tuple, Tuple[_Shape, Tuple[int, ...], Tuple[int, ...]]] = {}


def _intern(names: Tuple[str, ...], mask: FlowMask) -> _Shape:
    shape = _SHAPES.get((names, mask))
    if shape is None:
        shape = _SHAPES[names, mask] = _Shape(names, mask)
    return shape


def _compile(names: Tuple[str, ...], raw_masks: Tuple[int, ...]):
    """``(shape, normalised masks as written, where the key's values sit)``."""
    masks = []
    dense = [0] * N_FLOW_FIELDS
    for name, mask in zip(names, raw_masks):
        if name not in _FIELD_INDEX:
            raise KeyError(f"unknown match field: {name}")
        mask &= _FULL_MASK[name]
        masks.append(mask)
        dense[_FIELD_INDEX[name]] = mask
    order = sorted(range(len(names)), key=lambda i: _FIELD_INDEX[names[i]])
    shape = _intern(tuple(names[i] for i in order), tuple(dense))
    return shape, tuple(masks), tuple(i for i in order if masks[i])


class Match:
    """An immutable-after-construction field match.

    Stored sparsely: an interned :class:`_Shape` plus ``key``, the values
    of the shape's non-zero-mask fields in :class:`FlowKey` order —
    exactly what a packet key projects to when it matches, so ``key`` is
    the classifier's bucket key as is.
    """

    __slots__ = ("shape", "key")

    def __init__(self, **constraints: "int | Tuple[int, int]") -> None:
        values, raw_masks = [], []
        for spec in constraints.values():
            if isinstance(spec, tuple):
                values.append(spec[0])
                raw_masks.append(spec[1])
            else:
                values.append(spec)
                raw_masks.append(-1)
        signature = (tuple(constraints), tuple(raw_masks))
        compiled = _SIGNATURES.get(signature)
        if compiled is None:
            compiled = _SIGNATURES[signature] = _compile(*signature)
        self.shape, masks, order = compiled
        for name, value, mask in zip(constraints, values, masks):
            if value & ~mask:
                raise ValueError(
                    f"{name}: value {value:#x} has bits outside mask {mask:#x}"
                )
        self.key: Tuple[int, ...] = tuple([values[i] for i in order])

    @property
    def mask(self) -> FlowMask:
        return self.shape.mask

    @property
    def masked_value(self) -> Tuple[int, ...]:
        """The match's value projected through its own mask."""
        dense = [0] * N_FLOW_FIELDS
        for (index, _bits), value in zip(self.shape.fields, self.key):
            dense[index] = value
        return tuple(dense)

    def fields(self) -> Dict[str, Tuple[int, int]]:
        mask = self.shape.mask
        values = iter(self.key)
        out = {}
        for name in self.shape.names:
            bits = mask[_FIELD_INDEX[name]]
            out[name] = (next(values) if bits else 0, bits)
        return out

    def field_names(self) -> Iterable[str]:
        return self.shape.names

    def matches(self, key: FlowKey) -> bool:
        return self.shape.project(key) == self.key

    def is_catchall(self) -> bool:
        return not self.shape.names

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Match):
            return self.shape is other.shape and self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape.mask_hash, self.key))

    def __repr__(self) -> str:
        if not self.shape.names:
            return "Match(*)"
        parts = []
        for name, (value, mask) in sorted(self.fields().items()):
            if mask == _FULL_MASK[name]:
                parts.append(f"{name}={value:#x}")
            else:
                parts.append(f"{name}={value:#x}/{mask:#x}")
        return f"Match({', '.join(parts)})"


def full_field_mask(name: str) -> int:
    """The all-ones mask for a named field (for building ODP masks)."""
    return _FULL_MASK[name]

"""The software RSS hash against the full parse it shortcuts.

``repro.net.flow.rxhash_of`` reads an untagged, option-less TCP/UDP
frame's 5-tuple in one unpack and hashes it; every other frame goes
through ``extract_flow``.  The oracle is the expression it must equal,
``rss_hash(extract_flow(data).five_tuple())``, over the frame shapes of
``test_extract_flow_differential`` (VLAN, IHL 5-15, first and later
fragments, ICMP, ARP, non-IP, each cut at every header boundary), over
arbitrary bytes, and over the exhaustive every-byte cut sweep (plus an
IPv4 header behind each non-IPv4 ethertype).  The memo is emptied
before each frame so the unpack path, not a remembered hash, is what
gets compared.

Teeth: each mutant below is ``rxhash_of``'s own source with one guard
of its unpack path broken, and the sweep must catch every one.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import flow
from repro.net.ethernet import ETH_HLEN
from repro.net.flow import extract_flow, rss_hash, rxhash_of
from repro.traffic.trex import FlowSpec, TrexStream

from .test_extract_flow_differential import (
    FRAG_BITS,
    IP_PROTO,
    L3_KINDS,
    build_frame,
    structured_frames,
)


def oracle(data: bytes) -> int:
    return rss_hash(extract_flow(data).five_tuple())


def disagrees(fn, data: bytes) -> bool:
    """``fn`` hashes ``data`` unlike the oracle, with its memo empty
    first and then warm (or raises)."""
    fn.__globals__["_RXHASH_MEMO"].clear()
    want = oracle(data)
    try:
        return fn(data) != want or fn(data) != want
    except Exception:
        return True


def sweep():
    """Each frame kind x untagged/tagged x IHL 5-15 x fragment bits, then
    a UDP frame relabelled with every other ethertype (an IPv4 header
    that only the ethertype disowns), each truncated at every length
    from a bare Ethernet header up."""
    fill = bytes(range(1, 62))
    frames = [build_frame(kind, vlan_tci, ihl, flags_frag, fill)[0]
              for kind in L3_KINDS
              for vlan_tci in (None, 0x0000, 0xA02A)
              for ihl in (range(5, 16) if kind in IP_PROTO else (5,))
              for flags_frag in FRAG_BITS]
    for ethertype in (0x0806, 0x8100, 0x86DD, 0x88CC):
        for flags_frag in FRAG_BITS:
            frame = build_frame("udp", None, 5, flags_frag, fill)[0]
            frames.append(frame[:12] + ethertype.to_bytes(2, "big")
                          + frame[14:])
    for frame in frames:
        for cut in range(ETH_HLEN, len(frame) + 1):
            yield frame[:cut]


@settings(max_examples=400, deadline=None)
@given(structured_frames())
def test_structured_frames_hash_like_the_oracle(data):
    assert not disagrees(rxhash_of, data), data.hex()


@settings(max_examples=400, deadline=None)
@given(st.binary(min_size=14))
def test_arbitrary_bytes_hash_like_the_oracle(data):
    assert not disagrees(rxhash_of, data), data.hex()


def test_every_shape_cut_at_every_byte():
    bad = [data.hex() for data in sweep() if disagrees(rxhash_of, data)]
    assert bad == []


def test_the_unpack_path_serves_the_stream_frames(monkeypatch):
    """A TRex UDP frame is hashed without a parse."""
    data = TrexStream(FlowSpec(n_flows=4), seed=2).next_packet().data
    want = oracle(data)
    flow._RXHASH_MEMO.clear()
    monkeypatch.setattr(flow, "extract_flow", None)
    assert rxhash_of(data) == want


#: One guard of the unpack path broken per mutant: (what it breaks,
#: the source text, its replacement).
MUTANTS = (
    ("reads ports behind IP options", "fields[1] & 0xF == 5", "True"),
    ("reads ports of later fragments", "not fields[2] & 0x1FFF", "True"),
    ("reads ICMP type/code as ports",
     "(proto == _UDP or proto == _TCP)", "True"),
    ("ignores the ethertype", "fields[0] == _ETH_P_IP", "True"),
    ("unpacks past a short frame", "len(data) >= _RSS_FRAME.size", "True"),
)


def mutant(source: str, replacement: str):
    text = inspect.getsource(flow.rxhash_of)
    assert text.count(source) == 1, source
    namespace = dict(vars(flow), _RXHASH_MEMO={})
    exec(text.replace(source, replacement), namespace)
    return namespace["rxhash_of"]


@pytest.mark.parametrize("why,source,replacement", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_the_sweep_catches_a_broken_unpack_path(why, source, replacement):
    broken = mutant(source, replacement)
    assert any(disagrees(broken, data) for data in sweep()), why

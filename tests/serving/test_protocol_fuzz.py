"""Property tests (hypothesis) for the incremental :class:`RequestParser`.

Two properties pin the push parser's contract with the transport:

* a valid pipelined byte stream parses to the same requests (method,
  target, version, headers, body bytes) whether it arrives in one
  segment or cut at arbitrary points — the gateway's body-digest memo
  keys on those framed body bytes, so a split must never change them;
* arbitrary bytes, fed in arbitrary splits, raise nothing but
  :class:`ProtocolError` (the transport answers that structurally and
  closes; anything else would escape the event loop).
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ProtocolError, RequestParser

_HEADER_NAME = st.text(string.ascii_letters + string.digits + "-",
                       min_size=1, max_size=12).filter(
    lambda name: name.lower() not in ("content-length", "transfer-encoding"))
# Printable ASCII; the parser strips a value's edges, so the expected
# value is stripped too.
_HEADER_VALUE = st.text(string.printable[:95], max_size=20).map(str.strip)
_TARGET = st.text(string.ascii_lowercase + string.digits + "/_.?=&-",
                  max_size=20).map("/".__add__)


@st.composite
def _request(draw) -> tuple[bytes, tuple]:
    """One valid request's bytes and the fields it must parse to."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    target = draw(_TARGET)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    headers = draw(st.dictionaries(_HEADER_NAME, _HEADER_VALUE, max_size=4))
    body = draw(st.binary(max_size=96))
    # A stray CRLF pair between keep-alive requests is tolerated.
    lead = b"\r\n" * draw(st.integers(0, 2))
    lines = [f"{method} {target} {version}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    if body or draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    raw = lead + ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    expected_headers = {name.lower(): value for name, value in headers.items()}
    return raw, (method, target, version, expected_headers, body)


def _fields(request) -> tuple:
    headers = {name: value for name, value in request.headers.items()
               if name != "content-length"}
    return (request.method, request.target, request.version, headers,
            request.body)


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    bounds = [0, *points, len(data)]
    return [data[start:end] for start, end in zip(bounds, bounds[1:])]


# Heads built from valid and broken lines, mixed with random bytes, so
# random streams reach every framing check instead of dying on the
# first line.
_LINE = st.sampled_from([
    b"GET / HTTP/1.1", b"POST /rank HTTP/1.1", b"GET /x HTTP/1.0",
    b"GET / HTTP/2.0", b"GET /", b"", b"Content-Length: 7",
    b"Content-Length: 0", b"Content-Length: -1", b"Content-Length: x",
    b"Content-Length: 99999999", b"Transfer-Encoding: chunked",
    b"Host: a", b": no-name", b" bad: space", b"no-colon", b"\x00\xff"])
_HEAD = st.lists(_LINE, min_size=1, max_size=6).map(
    lambda lines: b"\r\n".join(lines) + b"\r\n\r\n")
_STREAM = st.lists(st.one_of(_HEAD, st.binary(max_size=16)),
                   max_size=5).map(b"".join)


class TestRequestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_request(), min_size=1, max_size=4),
           st.lists(st.integers(0, 10_000), max_size=12))
    def test_any_split_parses_to_the_same_requests(self, requests, cuts):
        stream = b"".join(raw for raw, _ in requests)
        whole = RequestParser().feed(stream)
        assert [_fields(r) for r in whole] == [fields for _, fields in requests]
        parser = RequestParser()
        pieces = []
        for chunk in _split(stream, cuts):
            pieces.extend(parser.feed(chunk))
        assert [_fields(r) for r in pieces] == [_fields(r) for r in whole]
        assert not parser.mid_request

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=300), _STREAM),
           st.lists(st.integers(0, 10_000), max_size=8))
    def test_arbitrary_bytes_raise_only_protocol_errors(self, data, cuts):
        parser = RequestParser(max_header_bytes=128, max_body_bytes=64)
        try:
            for chunk in _split(data, cuts):
                parser.feed(chunk)
        except ProtocolError:
            pass

"""Fuzz properties: hostile inputs never crash the parsers.

A DisCFS server accepts credentials and RPC bytes from the network;
malformed input must surface as the library's own exceptions (which the
server maps to clean denials), never as unhandled errors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import struct

import xdr_reference as ref  # tests/xdr_reference.py

from repro.errors import ReproError, RPCError
from repro.keynote.lexer import tokenize
from repro.keynote.parser import parse_assertion
from repro.crypto.keycodec import decode_key, decode_signature
from repro.rpc.message import CallMessage, ReplyMessage


@settings(max_examples=300)
@given(text=st.text(max_size=300))
def test_assertion_parser_total(text):
    try:
        parse_assertion(text)
    except ReproError:
        pass  # rejection is fine; crashing is not


@settings(max_examples=300)
@given(text=st.text(
    alphabet="Authorizer:LicensesCondt\"'()&|=<>~!@$.;{}-0123456789abc \n\t",
    max_size=400,
))
def test_assertion_parser_structured_garbage(text):
    try:
        parse_assertion(text)
    except ReproError:
        pass


@settings(max_examples=300)
@given(text=st.text(max_size=200))
def test_lexer_total(text):
    try:
        tokenize(text)
    except ReproError:
        pass


@settings(max_examples=300)
@given(text=st.text(max_size=200))
def test_key_decoder_total(text):
    try:
        decode_key(text)
    except ReproError:
        pass


@settings(max_examples=200)
@given(prefix=st.sampled_from(["dsa-hex:", "rsa-hex:", "dsa-base64:",
                               "sig-dsa-sha1-hex:"]),
       payload=st.text(alphabet="0123456789abcdefghXYZ=+/", max_size=200))
def test_codec_with_plausible_prefixes(prefix, payload):
    try:
        if prefix.startswith("sig-"):
            decode_signature(prefix + payload)
        else:
            decode_key(prefix + payload)
    except ReproError:
        pass


@settings(max_examples=300)
@given(data=st.binary(max_size=400))
def test_rpc_message_decoders_total(data):
    for decoder in (CallMessage.decode, ReplyMessage.decode):
        try:
            decoder(data)
        except RPCError:
            pass  # XDRError included; nothing untyped, enum words too


def _typed(decode, data):
    """``decode(data)``, or RPCError if it raised one (XDRError is one).
    Anything else propagates and fails the test."""
    try:
        return decode(data)
    except RPCError:
        return RPCError


def _mutations(wire: bytes, header_words: int):
    """Every truncation of ``wire``, and every header word replaced by
    each of a few hostile values (and by its neighbours)."""
    for cut in range(len(wire)):
        yield wire[:cut]
    for word in range(header_words):
        at = 4 * word
        (old,) = struct.unpack_from(">I", wire, at)
        for value in (0, 1, 7, 400, 401, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
                      old ^ 1, (old + 1) & 0xFFFFFFFF):
            yield wire[:at] + struct.pack(">I", value) + wire[at + 4:]


def _call_fields(data):
    call = CallMessage.decode(data)
    return dict(xid=call.xid, prog=call.prog, vers=call.vers, proc=call.proc,
                args=call.args, auth_flavor=call.auth_flavor,
                auth_body=call.auth_body)


def _reply_fields(data):
    reply = ReplyMessage.decode(data)
    return dict(xid=reply.xid, stat=reply.stat, results=reply.results)


@settings(max_examples=25, deadline=None)
@given(xid=st.integers(0, (1 << 32) - 1), proc=st.integers(0, 200),
       body=st.one_of(st.just(b""), st.binary(min_size=25, max_size=25),
                      st.binary(max_size=64)),
       args=st.binary(max_size=24))
def test_mangled_calls_and_replies_raise_only_typed_errors(xid, proc, body, args):
    """Every truncation of a valid call or reply and every corrupted
    header word: the compiled decoders accept nothing the field-by-field
    reference refuses, agree with it on what both accept, and raise
    nothing but RPCError/XDRError; the server answers every one."""
    from repro.rpc.message import encode_call, encode_reply
    from repro.rpc.server import RPCServer

    server = RPCServer()
    call = encode_call(xid, 100003, 2, proc, args, auth_body=body)
    words = 8 + (len(body) + 3) // 4 + 2  # through the verifier
    for data in _mutations(call, words):
        got, want = _typed(_call_fields, data), _typed(ref.decode_call, data)
        if want is RPCError:
            assert got is RPCError
        elif got is not RPCError:
            assert got == want
        answer = server.handle(data)
        assert isinstance(answer, bytes)
        if len(data) >= 4:
            assert answer[:4] == data[:4]  # under the call's own xid

    reply = encode_reply(xid, 0, args)
    for data in _mutations(reply, 6):
        got, want = _typed(_reply_fields, data), _typed(ref.decode_reply, data)
        if want is RPCError:
            assert got is RPCError
        elif got is not RPCError:
            assert got == want


@settings(max_examples=300)
@given(data=st.binary(max_size=256))
def test_rpc_server_never_crashes_on_garbage(data):
    """The full server entry point must always produce a reply."""
    from repro.rpc.server import RPCServer

    server = RPCServer()
    reply = server.handle(data)
    assert isinstance(reply, bytes)


@settings(max_examples=200)
@given(data=st.binary(max_size=200))
def test_channel_server_rejects_garbage_cleanly(data, bob_key):
    from repro.errors import ChannelError, HandshakeError
    from repro.ipsec.channel import SecureChannelServer
    from repro.ipsec.ike import IKEResponder

    server = SecureChannelServer(IKEResponder(bob_key),
                                 lambda req, ident: req)
    try:
        server.handle(data)
    except (ChannelError, HandshakeError, ReproError):
        pass


def _fuzz_stack():
    """A module-level DisCFS client for submission fuzzing.

    Shared across examples deliberately: garbage submissions must not
    corrupt server state either, so reuse strengthens the property.
    """
    from repro.core.admin import Administrator, make_user_keypair
    from repro.core.client import DisCFSClient
    from repro.core.server import DisCFSServer

    admin = Administrator.generate(seed=b"fuzz-admin")
    server = DisCFSServer(admin_identity=admin.identity)
    admin.trust_server(server)
    client = DisCFSClient.connect(server, make_user_keypair(b"fuzz-user"),
                                  secure=False)
    client.attach("/")
    return client


_FUZZ_CLIENT = _fuzz_stack()


@settings(max_examples=150)
@given(data=st.binary(max_size=200))
def test_discfs_credential_submission_fuzz(data):
    """Submitting garbage credentials over the real RPC path returns a
    clean NFS error (and never wedges the server)."""
    from repro.errors import NFSError

    try:
        _FUZZ_CLIENT.nfs.submit_credential(data.decode("latin-1"))
    except (NFSError, ReproError):
        pass
    _FUZZ_CLIENT.nfs.null()  # server still serving

"""Length-prefixed message framing for the shard worker protocol.

One message = a 4-byte little-endian length followed by a pickled
payload.  Requests are plain tuples ``(verb, *operands)``; replies are
``("ok", result)`` or ``("err", class_name, message)``.  Errors cross
the process boundary by *name*, not by pickling the exception object —
several taxonomy classes take structured constructor arguments that do
not survive ``pickle``'s default exception reduction, and a worker
bug must never be able to crash the router's unpickler.
"""

from __future__ import annotations

import pickle
import struct

_LEN = struct.Struct("<I")

#: hard cap on one message body; a corrupt length prefix must not make
#: the receiver try to allocate gigabytes
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


def send_msg(sock, obj) -> None:  # noqa: ANN001
    """Serialize ``obj`` and write one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_msg(sock):  # noqa: ANN001, ANN201
    """Read one frame; returns the object, or ``None`` on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ConnectionError(f"oversized rpc frame: {length} bytes")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("connection closed mid-frame")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any decode failure
        raise ConnectionError(f"undecodable rpc frame: {exc!r}") from exc


def check_reply(reply):  # noqa: ANN001, ANN201
    """Return ``reply`` if it is ``("ok", result)`` or ``("err",
    class_name, message)``; raise :class:`ConnectionError` otherwise."""
    if type(reply) is tuple and (
            (len(reply) == 2 and reply[0] == "ok")
            or (len(reply) == 3 and reply[0] == "err"
                and type(reply[1]) is str and type(reply[2]) is str)):
        return reply
    raise ConnectionError(f"malformed rpc reply: {reply!r:.200}")


def _recv_exact(sock, n: int) -> bytes | None:  # noqa: ANN001
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ConnectionError("connection closed mid-frame")
            return None  # clean EOF between frames
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Error marshalling
# ----------------------------------------------------------------------
def marshal_error(exc: BaseException) -> tuple[str, str]:
    """Flatten an exception into ``(class_name, message)``."""
    return type(exc).__name__, str(exc)


def unmarshal_error(name: str, message: str) -> Exception:
    """Rehydrate a worker-side error into the closest taxonomy class.

    Classes are resolved from :mod:`repro.errors` (and the lock
    manager's conflict types); anything unresolvable — or whose
    constructor wants more than a message — comes back as a
    :class:`repro.errors.ShardError` carrying the original name.
    """
    import repro.errors as errors_mod
    import repro.txn.locks as locks_mod

    for mod in (errors_mod, locks_mod):
        cls = getattr(mod, name, None)
        if (isinstance(cls, type) and issubclass(cls, Exception)):
            try:
                return cls(message)
            except TypeError:
                break
    return errors_mod.ShardError(f"{name}: {message}")

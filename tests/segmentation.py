"""One byte stream, every way a transport can cut it.

The segmentation property the wire decoders are held to: however TCP
splits a valid stream — at any offset, or a byte at a time — it
decodes to the messages of the stream fed whole; and hostile bytes
raise the decoder's typed error, without over-reading or waiting for
bytes that will never come.  :func:`splits` enumerates the cuts; each
decoder's tests feed them to its sans-I/O parser.
"""

from __future__ import annotations

from typing import Iterator


def splits(stream: bytes) -> Iterator[list[bytes]]:
    """Every two-way cut of ``stream`` (the first is the stream whole),
    then the stream a byte at a time."""
    for cut in range(len(stream)):
        yield [chunk for chunk in (stream[:cut], stream[cut:]) if chunk]
    yield [stream[i:i + 1] for i in range(len(stream))]


"""One byte stream, every way a transport can cut it.

The segmentation property the wire decoders are held to: however TCP
splits a valid stream — at any offset, or a byte at a time — it
decodes to the messages of the stream fed whole; and hostile bytes
raise the decoder's typed error, without over-reading or waiting for
bytes that will never come.  :func:`splits` enumerates the cuts;
:func:`read_split` drives an ``asyncio.StreamReader`` decoder through
one of them and fails the test, instead of hanging it, if the decoder
waits past EOF.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Iterator, TypeVar

T = TypeVar("T")


def splits(stream: bytes) -> Iterator[list[bytes]]:
    """Every two-way cut of ``stream`` (the first is the stream whole),
    then the stream a byte at a time."""
    for cut in range(len(stream)):
        yield [chunk for chunk in (stream[:cut], stream[cut:]) if chunk]
    yield [stream[i:i + 1] for i in range(len(stream))]


def read_split(
    decode: Callable[[asyncio.StreamReader], Awaitable[T]],
    chunks: list[bytes],
    *,
    timeout: float = 5.0,
) -> T:
    """``decode(reader)`` while ``chunks`` arrive one per event-loop
    turn, then EOF; returns what it returns, raises what it raises."""

    async def main() -> T:
        reader = asyncio.StreamReader()

        async def feed() -> None:
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            return await asyncio.wait_for(decode(reader), timeout)
        finally:
            await feeder

    return asyncio.run(main())

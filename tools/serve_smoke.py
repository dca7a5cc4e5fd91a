#!/usr/bin/env python3
"""Loopback smoke test of `pegasus serve --port` (the socket front end).

Drives the full wire protocol (src/serve/wire.h) against a freshly built
summary from an out-of-process client:

  * generate + summarize a small graph with the CLI itself,
  * start `pegasus serve <summary> --port 0` and parse the ephemeral port
    from the "listening on 127.0.0.1:<port>" line,
  * assert batch answers (correct framing, trailing "epoch 1" line, and
    byte-identity across repeated sends and across connections),
  * assert the error-frame paths: bad query line, unsupported version
    byte, unknown frame type — all of which must leave the connection
    usable,
  * assert epoch/stats directives,
  * close stdin and require a clean exit 0 (the stdin loop's EOF is the
    server's shutdown signal),
  * run plain `pegasus serve <summary>` over stdin alone and require each
    batch's stdout to equal the socket reply body byte for byte, the
    directive replies to equal the socket's, and the timing line to go to
    stderr.

Usage: serve_smoke.py <path-to-pegasus-binary>
Exit code 0 on success; any assertion prints a diagnostic and exits 1.
"""

import socket
import struct
import subprocess
import sys
import tempfile
import os

WIRE_VERSION = 2
K_BATCH, K_PUBLISH, K_STATS, K_EPOCH = 0x01, 0x02, 0x03, 0x04
K_OK, K_ERROR = 0x81, 0xE1

MIXED_BATCH = b"degree\nrwr 3 0.1\nneighbors 5\nhop 7\npagerank 0.5\n"


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def send_frame(sock, ftype, body=b"", version=WIRE_VERSION):
    payload = bytes([version, ftype]) + body
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            fail("connection closed mid-frame (wanted %d bytes)" % n)
        data += chunk
    return data


def read_frame(sock):
    (length,) = struct.unpack("<I", read_exact(sock, 4))
    payload = read_exact(sock, length)
    if length < 2:
        fail("short frame payload: %d bytes" % length)
    return payload[0], payload[1], payload[2:]


def expect_ok(sock, ftype, body, what):
    send_frame(sock, ftype, body)
    version, rtype, rbody = read_frame(sock)
    if version != WIRE_VERSION or rtype != K_OK:
        fail("%s: expected kOk, got version=%d type=0x%02x body=%r"
             % (what, version, rtype, rbody[:200]))
    return rbody


def expect_error(sock, raw_payload, needle, what):
    sock.sendall(struct.pack("<I", len(raw_payload)) + raw_payload)
    version, rtype, rbody = read_frame(sock)
    if rtype != K_ERROR:
        fail("%s: expected kError, got type=0x%02x body=%r"
             % (what, rtype, rbody[:200]))
    if needle not in rbody:
        fail("%s: error body %r lacks %r" % (what, rbody[:200], needle))


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_smoke.py <pegasus-binary>")
    pegasus = sys.argv[1]
    workdir = tempfile.mkdtemp(prefix="pegasus_serve_smoke_")
    edges = os.path.join(workdir, "g.txt")
    summary = os.path.join(workdir, "g.summary")

    for cmd in (
        [pegasus, "generate", "ba", edges, "--nodes", "300", "--seed", "7"],
        [pegasus, "summarize", edges, summary, "--ratio", "0.5", "--seed",
         "7"],
    ):
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        if proc.returncode != 0:
            fail("%r exited %d: %s"
                 % (cmd, proc.returncode, proc.stderr.decode()))

    server = subprocess.Popen(
        [pegasus, "serve", summary, "--port", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = None
        for _ in range(10):  # banner, then the listening line
            line = server.stdout.readline()
            if not line:
                break
            if line.startswith("listening on 127.0.0.1:"):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            fail("server never printed its listening line")

        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.settimeout(30)

            body = expect_ok(s, K_EPOCH, b"", "epoch directive")
            if body != b"epoch 1\n":
                fail("epoch directive answered %r" % body)

            first = expect_ok(s, K_BATCH, MIXED_BATCH, "mixed batch")
            if not first.endswith(b"epoch 1\n"):
                fail("batch response lacks epoch trailer: %r" % first[-80:])
            if first.count(b"\n") != MIXED_BATCH.count(b"\n") + 1:
                fail("batch response has wrong line count: %r" % first)
            again = expect_ok(s, K_BATCH, MIXED_BATCH, "repeat batch")
            if again != first:
                fail("repeated batch not byte-identical")

            # Bad query line: error frame, connection stays usable.
            send_frame(s, K_BATCH, b"bogus 1\n")
            _, rtype, rbody = read_frame(s)
            if rtype != K_ERROR or b"INVALID_ARGUMENT" not in rbody \
                    or b"line 1" not in rbody:
                fail("bad query line answered type=0x%02x body=%r"
                     % (rtype, rbody[:200]))

            expect_error(s, bytes([9, K_EPOCH]),
                         b"unsupported wire version 9", "bad version")
            expect_error(s, bytes([WIRE_VERSION, 0x42]),
                         b"unknown frame type 0x42", "unknown type")

            stats = expect_ok(s, K_STATS, b"", "stats directive")
            needles = [b"epoch 1 ", b"inflight_batches",
                       b"connections_open 1", b"conn 1 inflight 0"]
            if sys.platform.startswith("linux"):
                needles += [b"\nresident_kb ", b" peak_resident_kb "]
            for needle in needles:
                if needle not in stats:
                    fail("stats body %r lacks %r" % (stats, needle))

            # A second connection sees the same bytes for the same batch.
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as s2:
                s2.settimeout(30)
                other = expect_ok(s2, K_BATCH, MIXED_BATCH,
                                  "second connection batch")
                if other != first:
                    fail("cross-connection batch not byte-identical")

        # stdin EOF shuts the whole process down cleanly.
        server.stdin.close()
        rc = server.wait(timeout=30)
        if rc != 0:
            fail("server exited %d after stdin EOF" % rc)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    # stdin leg: the same batch and directives through the stdin loop of a
    # fresh `serve` without --port.
    stdin_text = ("epoch\n" + MIXED_BATCH.decode() + "\n" +
                  "publish " + summary + "\n" + MIXED_BATCH.decode())
    proc = subprocess.run([pegasus, "serve", summary], input=stdin_text,
                          capture_output=True, timeout=120, text=True)
    if proc.returncode != 0:
        fail("stdin serve exited %d: %s" % (proc.returncode, proc.stderr))
    banner, _, stdout = proc.stdout.partition("\n")
    if not banner.startswith("serving "):
        fail("stdin serve banner missing: %r" % proc.stdout[:200])
    published = b"epoch 2 published ("
    expected_head = b"epoch 1\n" + first + published
    if not stdout.encode().startswith(expected_head):
        fail("stdin stdout diverged from the socket replies:\n%r\nvs\n%r"
             % (stdout[:600], expected_head[:600]))
    # The second batch answers from epoch 2 with the same summary: the
    # socket reply with the epoch line swapped.
    second = first[:-len(b"epoch 1\n")] + b"epoch 2\n"
    if not stdout.encode().endswith(b")\n" + second):
        fail("stdin batch after publish diverged: %r" % stdout[-400:])
    if proc.stderr.count("answered 5 queries in ") != 2 or \
            "error" in proc.stderr:
        fail("stdin serve stderr: %r" % proc.stderr)

    print("serve socket smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

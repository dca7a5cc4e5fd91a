#!/usr/bin/env python3
"""End-to-end multi-process smoke of the sharded serving stack.

Drives the full `src/shard` pipeline with real processes and sockets:

  * generate a small graph and `pegasus shard-build` it twice (3 shards
    and 1 shard),
  * spawn one `pegasus shard-worker` process per shard, parsing each
    ephemeral port from its "listening on 127.0.0.1:<port>" line,
  * run `pegasus serve --shards <manifest> --workers p0,p1,p2` (the
    multi-process coordinator) over a mixed batch, twice, and require the
    two responses byte-identical,
  * run `pegasus serve --shards <manifest>` (in-process worker fleet) on
    the same batch and require it byte-identical to the multi-process
    run — process topology must never reach the answer bytes,
  * for the 1-shard manifest, require the coordinator's response
    byte-identical to a plain `pegasus serve <shard.psb> --port` socket
    batch — sharded serving at N=1 is indistinguishable from single-view
    serving,
  * shut every worker down via stdin EOF and require clean exit 0,
  * reject malformed integer arguments (--workers, --targets, a
    shard-worker index) and `serve --shards --port` as usage errors
    (exit 1) that name the offending entry.

Usage: shard_smoke.py <path-to-pegasus-binary>
Exit code 0 on success; any assertion prints a diagnostic and exits 1.
"""

import os
import socket
import struct
import subprocess
import sys
import tempfile

WIRE_VERSION = 2
K_BATCH, K_OK = 0x01, 0x81

QUERY_LINES = "degree\nrwr 3 0.1\nneighbors 5\nhop 7\npagerank 0.5\n"
NUM_QUERIES = QUERY_LINES.count("\n")


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run_cli(cmd):
    proc = subprocess.run(cmd, capture_output=True, timeout=300, text=True)
    if proc.returncode != 0:
        fail("%r exited %d: %s" % (cmd, proc.returncode, proc.stderr))
    return proc.stdout


def read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            fail("connection closed mid-frame (wanted %d bytes)" % n)
        data += chunk
    return data


def socket_batch(port, batch_text):
    """One kBatch round trip against a wire server; returns the body."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.settimeout(30)
        payload = bytes([WIRE_VERSION, K_BATCH]) + batch_text.encode()
        s.sendall(struct.pack("<I", len(payload)) + payload)
        (length,) = struct.unpack("<I", read_exact(s, 4))
        payload = read_exact(s, length)
        if length < 2 or payload[0] != WIRE_VERSION or payload[1] != K_OK:
            fail("socket batch answered %r" % payload[:200])
        return payload[2:].decode()


def parse_listening_port(proc, what):
    for _ in range(10):
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("listening on 127.0.0.1:"):
            return int(line.rsplit(":", 1)[1])
    fail("%s never printed its listening line" % what)


def coordinator_blocks(output, expected_blocks):
    """Splits `serve --shards` stdout into per-flush answer blocks."""
    lines = output.splitlines(keepends=True)
    if not lines or not lines[0].startswith("serving "):
        fail("coordinator banner missing: %r" % output[:200])
    body = lines[1:]
    per_block = NUM_QUERIES + 1  # answers + "epoch N" trailer
    if len(body) != expected_blocks * per_block:
        fail("expected %d blocks of %d lines, got %d lines: %r"
             % (expected_blocks, per_block, len(body), "".join(body)[:400]))
    return ["".join(body[i * per_block:(i + 1) * per_block])
            for i in range(expected_blocks)]


def run_coordinator(pegasus, manifest, stdin_text, blocks, workers=None):
    cmd = [pegasus, "serve", "--shards", manifest]
    if workers:
        cmd += ["--workers", ",".join(str(p) for p in workers)]
    proc = subprocess.run(cmd, input=stdin_text, capture_output=True,
                          timeout=300, text=True)
    if proc.returncode != 0:
        fail("%r exited %d: %s" % (cmd, proc.returncode, proc.stderr))
    return coordinator_blocks(proc.stdout, blocks)


def expect_usage_error(cmd, needle):
    proc = subprocess.run(cmd, input="", capture_output=True, timeout=60,
                          text=True)
    if proc.returncode != 1 or needle not in proc.stderr:
        fail("%r: expected exit 1 with %r on stderr, got %d: %r"
             % (cmd, needle, proc.returncode, proc.stderr[:300]))


def main():
    if len(sys.argv) != 2:
        fail("usage: shard_smoke.py <pegasus-binary>")
    pegasus = sys.argv[1]
    workdir = tempfile.mkdtemp(prefix="pegasus_shard_smoke_")
    edges = os.path.join(workdir, "g.txt")
    out3 = os.path.join(workdir, "shards3")
    out1 = os.path.join(workdir, "shards1")

    run_cli([pegasus, "generate", "ba", edges, "--nodes", "300", "--seed",
             "7"])
    run_cli([pegasus, "shard-build", edges, out3, "--shards", "3",
             "--partitioner", "random", "--ratio", "0.5", "--seed", "7"])
    run_cli([pegasus, "shard-build", edges, out1, "--shards", "1",
             "--ratio", "0.5", "--seed", "7"])
    manifest3 = os.path.join(out3, "manifest.psm")
    manifest1 = os.path.join(out1, "manifest.psm")

    # --- multi-process: 3 shard-worker processes + coordinator ------------
    workers = []
    try:
        ports = []
        for index in range(3):
            worker = subprocess.Popen(
                [pegasus, "shard-worker", manifest3, str(index)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            workers.append(worker)
            ports.append(parse_listening_port(worker,
                                              "shard-worker %d" % index))

        # The same batch twice in one session: byte-identical blocks.
        two_batches = QUERY_LINES + "\n" + QUERY_LINES + "\n"
        multi = run_coordinator(pegasus, manifest3, two_batches, 2,
                                workers=ports)
        if multi[0] != multi[1]:
            fail("repeated batch not byte-identical:\n%r\nvs\n%r"
                 % (multi[0], multi[1]))

        # In-process fleet answers with the same bytes as the real
        # process fleet.
        inproc = run_coordinator(pegasus, manifest3, two_batches, 2)
        if inproc[0] != multi[0]:
            fail("in-process vs multi-process mismatch:\n%r\nvs\n%r"
                 % (inproc[0], multi[0]))

        # Workers shut down cleanly on stdin EOF.
        for index, worker in enumerate(workers):
            worker.stdin.close()
            rc = worker.wait(timeout=30)
            if rc != 0:
                fail("shard-worker %d exited %d after stdin EOF"
                     % (index, rc))
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()

    # --- 1 shard == single-view serving -----------------------------------
    sharded = run_coordinator(pegasus, manifest1, QUERY_LINES + "\n", 1)[0]
    single = subprocess.Popen(
        [pegasus, "serve", os.path.join(out1, "shard_000.psb"), "--port",
         "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = parse_listening_port(single, "serve --port")
        direct = socket_batch(port, QUERY_LINES)
        single.stdin.close()
        rc = single.wait(timeout=30)
        if rc != 0:
            fail("serve exited %d after stdin EOF" % rc)
    finally:
        if single.poll() is None:
            single.kill()
            single.wait()
    if sharded != direct:
        fail("1-shard coordinator diverged from single-view serving:\n"
             "%r\nvs\n%r" % (sharded, direct))

    # --- strict integer arguments -----------------------------------------
    serve3 = [pegasus, "serve", "--shards", manifest3]
    expect_usage_error(serve3 + ["--workers", "65537"],
                       "--workers: bad entry '65537'")
    expect_usage_error(serve3 + ["--workers", "1,x,3"],
                       "--workers: bad entry 'x'")
    expect_usage_error(serve3 + ["--workers", "1,,3"],
                       "--workers: bad entry ''")
    expect_usage_error(serve3 + ["--port", "0"], "--port")
    expect_usage_error([pegasus, "summarize", edges,
                        os.path.join(workdir, "unused.summary"),
                        "--targets", "1,x"], "--targets: bad entry 'x'")
    expect_usage_error([pegasus, "shard-worker", manifest3, "abc"],
                       "shard index: bad entry 'abc'")

    print("shard scatter-gather smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Slow-header drill for the check.sh / CI fleet smoke.

    slowheader.py PORT [PORT...]

Opens a TCP connection to each local server, sends half a request line and
then nothing. Each server must keep answering /healthz meanwhile and must
close the stalled connection on its own (ReadHeaderTimeout in cmd/wbserve
and cmd/wbgate is 5s) — a slow-header client may not pin a connection.
"""
import socket
import sys
import time
import urllib.request

DEADLINE = 10.0  # seconds; the servers' header timeout is 5s

ports = [int(p) for p in sys.argv[1:]]
start = time.time()
socks = []
for port in ports:
    s = socket.create_connection(("127.0.0.1", port))
    s.sendall(b"POST /brief HT")
    socks.append(s)
for port in ports:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=2) as r:
        assert r.status == 200, (port, r.status)
for port, s in zip(ports, socks):
    s.settimeout(max(0.1, DEADLINE - (time.time() - start)))
    try:
        while s.recv(4096):
            pass  # an error response before the close is fine too
    except socket.timeout:
        sys.exit(f"port {port}: stalled connection still open after {DEADLINE:.0f}s")
    s.close()
print(f"   slow-header drill ok ({time.time() - start:.1f}s, ports {ports})")

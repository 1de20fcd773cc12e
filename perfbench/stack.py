"""The processes under test: ``serve`` and ``route`` started through the CLI.

Each process runs ``launch.py`` (the CLI entry point, with layer spans
when traced) in its own session, so a terminal's Ctrl-C reaches only
the generator, which then stops every child here.  :meth:`Stack.stop`
sends SIGTERM (the servers drain and exit), kills what is left after a
grace period, waits for each, and raises :class:`ChildLeak` if any
process of a child's session is still alive afterwards.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")

READY_TIMEOUT_S = 120.0
STOP_GRACE_S = 15.0


class ChildLeak(RuntimeError):
    """A server process outlived its stop."""


class ChildFailed(RuntimeError):
    """A server process exited before it became ready."""


@dataclass
class Child:
    name: str
    proc: subprocess.Popen
    ready_path: str
    log_path: str
    spans_path: Optional[str]
    address: Optional[Tuple[str, int]] = None

    def log_tail(self, lines: int = 15) -> str:
        try:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.name}: no VmHWM in /proc status")


def control(address: Tuple[str, int], op: str,
            timeout_s: float = 30.0) -> Dict[str, Any]:
    """One JSON-lines control request (``stats``, ``topology``, ...)."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(json.dumps({"op": op}).encode("ascii") + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
    if not response.get("ok"):
        raise RuntimeError(f"{op} failed at {address}: {response}")
    return response


class Stack:
    """Children started for one pass, in start order."""

    def __init__(self, workdir: str, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.children: List[Child] = []
        self._serial = 0

    def spawn(self, name: str, cli_args: Sequence[str]) -> Child:
        self._serial += 1
        stem = os.path.join(self.workdir, f"{name}-{self._serial}")
        ready = stem + ".ready"
        spans_path = stem + ".spans.json" if self.traced else None
        argv = [sys.executable, LAUNCHER]
        if spans_path:
            argv += ["--spans", spans_path]
        argv += ["--", *cli_args, "--ready-file", ready]
        log = open(stem + ".log", "wb")
        try:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
        finally:
            log.close()
        child = Child(name, proc, ready, stem + ".log", spans_path)
        self.children.append(child)
        return child

    def wait_ready(self, child: Child) -> Tuple[str, int]:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not os.path.exists(child.ready_path):
            if child.proc.poll() is not None:
                raise ChildFailed(
                    f"{child.name} exited with {child.proc.returncode} "
                    f"before it was ready:\n{child.log_tail()}")
            if time.perf_counter() > deadline:
                raise ChildFailed(f"{child.name} not ready after "
                                  f"{READY_TIMEOUT_S:g}s")
            time.sleep(0.002)
        with open(child.ready_path, encoding="ascii") as handle:
            host, port = handle.read().split()
        child.address = (host, int(port))
        return child.address

    def start_windows(self) -> None:
        """Clear every child's span aggregates (SIGUSR1) and wait for acks."""
        for child in self.children:
            child.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        for child in self.children:
            while not os.path.exists(child.spans_path + ".reset"):
                if time.perf_counter() > deadline:
                    raise RuntimeError(
                        f"{child.name} did not acknowledge SIGUSR1")
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return sum(child.peak_rss_mb() for child in self.children)

    def stop(self) -> List[Dict[str, Any]]:
        """Stop every child; returns the span snapshots they wrote.

        Safe to call more than once and on a partly started stack.
        """
        for child in reversed(self.children):
            if child.proc.poll() is None:
                child.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_GRACE_S
        leaked = []
        for child in self.children:
            try:
                child.proc.wait(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                leaked.append(child.name)
            try:
                # The child's session outlives it only through a process
                # it started; either way nothing of it may keep running.
                os.killpg(child.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            else:
                leaked.append(child.name)
            child.proc.wait()
        snapshots = []
        for child in self.children:
            stale = [child.ready_path, child.ready_path + ".part"]
            if child.spans_path:
                if os.path.exists(child.spans_path):
                    with open(child.spans_path,
                              encoding="ascii") as handle:
                        snapshots.append(json.load(handle))
                stale += [child.spans_path, child.spans_path + ".reset"]
            for path in stale:
                if os.path.exists(path):
                    os.unlink(path)
        self.children = []
        if leaked:
            raise ChildLeak(f"still running after SIGTERM and a "
                            f"{STOP_GRACE_S:g}s grace period: "
                            f"{', '.join(sorted(set(leaked)))}")
        return snapshots

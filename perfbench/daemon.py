"""Oracle daemon launcher owned by the benchmark.

Run as a script, this starts :class:`repro.server.daemon.OracleServer`
through its public API with the settings ``pythia-trace serve`` uses by
default (one process, a trace cache of 8, the event-loop I/O model, the
19 Hz sampling profiler), prints ``ready`` and serves until SIGTERM.
With ``--spans PATH`` it first installs the benchmark's tracer and
writes the daemon's spans to ``PATH`` on exit.  With ``--cpu N`` the
daemon and every thread it starts run on CPU ``N`` only.  The daemon
also stops when its standard input closes, which happens when the
benchmark process ends, however it ends.

:class:`Daemon` spawns the script with a fresh socket and a fresh
``PYTHIA_ARTIFACT_DIR`` under the given work directory, so nothing
carries over between daemons.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """One daemon subprocess; :meth:`stop` ends it."""

    def __init__(self, root: str, workdir: str, *, spans: str | None = None,
                 cpu: int | None = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        # relative to the checkout root, which is both processes' cwd:
        # keeps the AF_UNIX path under its 108-byte limit
        self.socket = os.path.relpath(os.path.join(workdir, "oracle.sock"), root)
        self.spans = spans
        artifacts = os.path.join(workdir, "artifacts")
        os.makedirs(artifacts, exist_ok=True)
        env = dict(os.environ)
        env["PYTHIA_ARTIFACT_DIR"] = artifacts
        env["PYTHONPATH"] = os.path.join(root, "src")
        cmd = [sys.executable, os.path.join(HERE, "daemon.py"), "--socket", self.socket]
        if spans is not None:
            cmd += ["--spans", spans]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"daemon failed to start (said {line!r})")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time the daemon has used so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime/stime are fields 14/15
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        """Resident set size, from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill after 20 s."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return self.proc.returncode


def _stop_on_eof() -> None:
    """SIGTERM this process (the daemon's graceful stop) at stdin EOF."""
    sys.stdin.read()
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        # before any thread exists, so that every thread inherits it
        os.sched_setaffinity(0, {args.cpu})

    from repro.obs.profiler import profiler_from_env
    from repro.server.daemon import OracleServer
    from repro.server.store import TraceStore

    tracer = None
    if args.spans is not None:
        sys.path.insert(0, os.path.dirname(HERE))
        from perfbench.tracer import Tracer

        tracer = Tracer().install()
    server = OracleServer(args.socket, store=TraceStore(capacity=8))
    server.start()
    profiler_from_env(default_hz=19.0)
    threading.Thread(target=_stop_on_eof, daemon=True).start()
    print("ready", flush=True)
    try:
        server.serve_forever()
    finally:
        if tracer is not None:
            tracer.uninstall()
            # let the event loop's last span close before dumping
            time.sleep(0.05)
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

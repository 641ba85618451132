"""Worker processes: set-up probes, cold CLI jobs and the warm library session.

Every worker is forked from the benchmark process, which never imports
periodhecke itself, so a forked worker starts with every cache cold and pays
only for importing the package.  At most one worker runs at a time.

Each job is timed twice: on the wall clock and on the CPU clock (user plus
system time of the worker).  The metrics use the CPU clock because on a
shared virtual machine the wall clock also counts time the hypervisor gives
to other tenants, which changes from minute to minute.

The CPU clock is not steady either: other tenants slow the core itself
down, so one job's CPU time varies up to twofold from repeat to repeat, in
phases of seconds.  Every worker therefore runs a fixed reference loop right
before and right after its job (or its import, for a set-up probe), in the
same process, and reports the loop's mean CPU time with the job; run.py
scales job times by it.  The loop's own time is not counted in the job.
"""

from __future__ import annotations

import io
import json
import os
import selectors
import signal
import sys
import time
import traceback

import tracing

CLI_MODULES = ("periodhecke.cli",)
SESSION_MODULES = ("periodhecke", "periodhecke.verify")
# The spectral parameter of the session's residual jobs.
SPECTRAL_S = complex(0.5, 3.0)
# Iterations of the reference loop: about 8 ms of CPU time on the machine the
# benchmark was built on.
REFERENCE_ROUNDS = 40000


def reference():
    """Run the reference loop, pure-Python integer work that touches no new
    memory; returns its (CPU seconds, wall seconds)."""
    start, start_cpu = time.perf_counter(), time.process_time()
    x, total = 12345, 0
    for _ in range(REFERENCE_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += x % 7
    return time.process_time() - start_cpu, time.perf_counter() - start


class Outcome:
    """What the benchmark process observed of one job; `reference` is the
    mean CPU time of the worker's reference loops, None if it never
    reported."""

    def __init__(self, latency, cpu, code=None, stdout=b"", meta=None, rss_kb=0, timed_out=False, reference=None):
        self.latency = latency
        self.cpu = cpu
        self.reference = reference
        self.code = code
        self.stdout = stdout
        self.meta = meta or {}
        self.rss_kb = rss_kb
        self.timed_out = timed_out


def _fork(child):
    """Fork a worker that runs child() and exits with its return value.

    The worker must never return into the benchmark's own code, so every
    exception ends in os._exit after its traceback is printed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 70
    try:
        code = child()
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _import(src, modules):
    """Import the package as a fresh process would; returns the CPU seconds taken."""
    start = time.process_time()
    sys.path.insert(0, src)
    for name in modules:
        __import__(name)
    return time.process_time() - start


def _read_until_eof(fds, deadline):
    """Drain every pipe in fds until EOF or the deadline; True if in time."""
    chunks = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        open_fds = len(fds)
        while open_fds:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False, chunks
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
                    open_fds -= 1
    return True, chunks


def _reap(pid, kill):
    """Wait for a worker; returns (exit status, CPU seconds, peak RSS in KiB)."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def probe_setup(src, modules):
    """Fork a fresh worker that only imports the package; returns
    (CPU seconds the import took, mean CPU seconds of the reference loops
    around it, peak RSS in KiB)."""
    read_fd, write_fd = os.pipe()

    def child():
        os.close(read_fd)
        before, _ = reference()
        seconds = _import(src, modules)
        after, _ = reference()
        os.write(write_fd, json.dumps([seconds, (before + after) / 2]).encode())
        return 0

    pid = _fork(child)
    os.close(write_fd)
    in_time, chunks = _read_until_eof([read_fd], time.perf_counter() + 60)
    os.close(read_fd)
    code, _, rss_kb = _reap(pid, kill=not in_time)
    if code != 0 or not in_time:
        raise RuntimeError("set-up probe failed (exit status %d)" % code)
    seconds, reference_s = json.loads(b"".join(chunks[read_fd]))
    return seconds, reference_s, rss_kb


def run_cli(src, argv, timeout, trace=False):
    """Run one CLI job in a fresh worker.  Latency runs from dispatch until
    this process holds the complete stdout and the exit status, less the
    worker's reference loops."""
    out_r, out_w = os.pipe()
    meta_r, meta_w = os.pipe()

    def child():
        os.close(out_r)
        os.close(meta_r)
        before = reference()
        _import(src, CLI_MODULES)
        meta, tracer = {}, None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.job = 0
        sys.stdout = io.TextIOWrapper(io.FileIO(out_w, "w"), encoding="utf-8")
        code = sys.modules["periodhecke.cli"].main(argv)
        sys.stdout.close()
        if tracer is not None:
            meta["trace"] = tracer.summary()
        after = reference()
        meta["reference"] = [before, after]
        with io.FileIO(meta_w, "w") as handle:
            handle.write(json.dumps(meta).encode())
        return code

    start = time.perf_counter()
    pid = _fork(child)
    os.close(out_w)
    os.close(meta_w)
    in_time, chunks = _read_until_eof([out_r, meta_r], start + timeout)
    os.close(out_r)
    os.close(meta_r)
    code, cpu, rss_kb = _reap(pid, kill=not in_time)
    latency = time.perf_counter() - start
    if not in_time:
        return Outcome(latency, cpu, code, rss_kb=rss_kb, timed_out=True)
    meta = b"".join(chunks[meta_r])
    meta = json.loads(meta) if meta else {}
    loops = meta.pop("reference", None)
    if loops is None:
        return Outcome(latency, cpu, code, b"".join(chunks[out_r]), meta, rss_kb)
    (before, before_wall), (after, after_wall) = loops
    return Outcome(latency - before_wall - after_wall, cpu - before - after, code, b"".join(chunks[out_r]),
                   meta, rss_kb, reference=(before + after) / 2)


# -- the warm library session ----------------------------------------------


def _cycles(image):
    """The orbits of a permutation given by its image array."""
    seen, orbits = set(), []
    for start in range(len(image)):
        orbit, i = [], start
        while i not in seen:
            seen.add(i)
            orbit.append(i)
            i = image[i]
        if orbit:
            orbits.append(orbit)
    return orbits


def cusp_solution(ph, table, orbit_choice):
    """psi(z) = v - z^(-2s) rho(S) v, with v the indicator of one orbit of
    rho(T): a solution of the vector three-term equation for every s."""
    s = SPECTRAL_S
    orbits = _cycles(ph.rho(table, ph.T).image)
    v = [0.0] * table.mu
    for i in orbits[orbit_choice % len(orbits)]:
        v[i] = 1.0
    w = ph.rho(table, ph.S).apply(v)

    def psi(z):
        factor = z ** (-2 * s)
        return [a - factor * b for a, b in zip(v, w)]

    return psi


def image_residual(ph, table, op, psi, points):
    """(max |three-term residual of op psi|, max |op psi|) over the values
    the residual evaluates."""
    s = SPECTRAL_S
    image = ph.hecke_image(op, psi, s)
    largest = 0.0

    def observed(z):
        nonlocal largest
        values = image(z)
        largest = max(largest, max(abs(x) for x in values))
        return values

    residual = max(abs(x) for z in points for x in ph.three_term_residual(observed, table, s, z))
    return residual, largest


def run_session_job(ph, verify, job):
    """Run one library job; returns the reply sent to the benchmark process,
    timed from the first library call until the result is ready."""
    start, start_cpu = time.perf_counter(), time.process_time()
    if job["kind"] == "checks":
        checks = verify.run_all_checks(job["n"], job["m"])
        reply = {"checks": [[name, bool(ok)] for name, ok, _ in checks]}
    else:
        table = ph.coset_table(job["n"])
        op = ph.vector_hecke(table, job["m"])
        psi = cusp_solution(ph, table, job["orbit"])
        residual, largest = image_residual(ph, table, op, psi, job["points"])
        reply = {"residual": residual, "image_max": largest}
    reply.update(latency_s=time.perf_counter() - start, cpu_s=time.process_time() - start_cpu)
    return reply


def _session_child(src, job_r, reply_w, trace):
    _import(src, SESSION_MODULES)
    ph, verify = sys.modules["periodhecke"], sys.modules["periodhecke.verify"]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    with io.open(job_r, "r", encoding="utf-8") as jobs, io.open(reply_w, "w", encoding="utf-8") as replies:
        for line in jobs:
            request = json.loads(line)
            if request is None:
                break
            if tracer is not None:
                tracer.job = request["id"]
            before, _ = reference()
            try:
                reply = run_session_job(ph, verify, request["job"])
            except Exception:
                reply = {"error": traceback.format_exc()}
            if tracer is not None:
                tracer.count_hecke_results()
            after, _ = reference()
            reply["reference_s"] = (before + after) / 2
            replies.write(json.dumps(reply) + "\n")
            replies.flush()
        final = {"trace": tracer.summary()} if tracer is not None else {}
        replies.write(json.dumps(final) + "\n")
    return 0


class Session:
    """One warm library process; jobs go in one at a time over a pipe."""

    def __init__(self, src, trace=False):
        job_r, job_w = os.pipe()
        reply_r, reply_w = os.pipe()

        def child():
            os.close(job_w)
            os.close(reply_r)
            return _session_child(src, job_r, reply_w, trace)

        self.pid = _fork(child)
        os.close(job_r)
        os.close(reply_w)
        self._jobs = os.fdopen(job_w, "w", encoding="utf-8")
        self._reply_fd = reply_r
        self._buffer = b""
        self._next_id = 0

    def _read_line(self, deadline):
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            with selectors.DefaultSelector() as selector:
                selector.register(self._reply_fd, selectors.EVENT_READ)
                if not selector.select(remaining):
                    return None
            data = os.read(self._reply_fd, 1 << 16)
            if not data:
                return None
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def run(self, job, timeout):
        """Send one job; returns the worker's reply, or None on timeout."""
        self._jobs.write(json.dumps({"id": self._next_id, "job": job}) + "\n")
        self._jobs.flush()
        self._next_id += 1
        return self._read_line(time.perf_counter() + timeout)

    def close(self, kill=False):
        """Stop the worker; returns (final message or None, peak RSS in KiB)."""
        final = None
        if not kill:
            try:
                self._jobs.write("null\n")
                self._jobs.flush()
            except BrokenPipeError:
                kill = True
            else:
                final = self._read_line(time.perf_counter() + 15)
                kill = final is None
        try:
            self._jobs.close()
        except BrokenPipeError:
            pass
        os.close(self._reply_fd)
        _, _, rss_kb = _reap(self.pid, kill)
        return final, rss_kb

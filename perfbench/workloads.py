"""The four benchmark workloads, driven through the public API only.

Each workload builds its job and library objects in :meth:`setup`
(timed as set-up) and runs them in :meth:`run` (timed as the run).
Every rank program is a closed loop: a rank waits on its notifications
before posting its next operation.  ``run`` checks every output through
a :class:`~perfbench.checks.Checker` and returns the simulated outputs
that the default seed compares against ``references.json``, plus the
host CPU nanoseconds of each closed-loop iteration.

Why these four (README.md has the measured profile of each):

* ``pingpong-8b`` -- the per-op cost of the kernel and the API/engine
  straight-line path, every optional feature off.
* ``bulk-putget-obs`` -- fragments, striping over both rails, the GET
  path beside the PUT path, and the only armed recorder.
* ``fig6-hpcib`` -- the only ``mpi`` user, and ``core`` through the
  Level-2 (Verbs) encoding instead of GLEX.
* ``fig7-thxy-288`` -- a large live heap and 288 rank processes: where
  GC policy, the scheduler and placement lookups show.
"""

# Iteration times are host CPU time read inside the rank programs.
# unrlint: disable-file=UNR012

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro import Recorder, Unr, get_platform, make_job, run_job
from repro.mpi import MpiWorld
from repro.powerllel import PowerLLELConfig, run_powerllel

from .checks import Checker, compare_reference
from .hostclock import cpu_ns

__all__ = ["WORKLOADS", "Workload"]

#: Every optional library feature, explicitly off (never read from the
#: environment); a workload re-arms only what it measures.
FEATURES_OFF: Dict[str, Any] = dict(
    reliability=False, sanitize=False, observe=False, health=False, replication=False,
)

Outputs = Dict[str, Any]


def cluster_seed(seed: int) -> int:
    """Cluster (fabric jitter) seed for workload seed ``seed``; seed 0
    gives the library's default cluster."""
    return 0xC0FFEE + seed


class Workload:
    name = ""
    #: parameters recorded with every result
    params: Dict[str, Any] = {}
    #: operations one repetition checks (failed wholesale if it raises)
    planned_ops = 0

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any, chk: Checker) -> Tuple[Outputs, List[int]]:
        raise NotImplementedError

    def reference_failures(self, outputs: Outputs, reference: Mapping[str, Any]) -> List[str]:
        return compare_reference(outputs, reference)


class PingPong8B(Workload):
    name = "pingpong-8b"
    round_trips = 1000
    params = {"platform": "th-xy", "nodes": 2, "bytes": 8, "round_trips": round_trips,
              "local_signal": None, "features": "all off"}
    planned_ops = 2 * round_trips

    def setup(self, seed: int) -> Any:
        job = make_job("th-xy", 2, seed=cluster_seed(seed))
        unr = Unr(job, "glex", **FEATURES_OFF)
        pats = np.random.default_rng(seed).integers(
            0, 256, size=(2, self.round_trips, 8), dtype=np.uint8)
        return job, unr, pats

    def run(self, state: Any, chk: Checker) -> Tuple[Outputs, List[int]]:
        job, unr, pats = state
        n = self.round_trips
        iter_ns: List[int] = []
        half_rtt: Dict[int, float] = {}

        def program(ctx):
            me, peer = ctx.rank, 1 - ctx.rank
            ep = unr.endpoint(me)
            buf = np.zeros(8, dtype=np.uint8)
            sig = ep.sig_init(1)
            blk = ep.blk_init(ep.mem_reg(buf), 0, 8, signal=sig)
            rmt = yield from ep.exchange_blk(peer, blk)
            mine, theirs = pats[me], pats[peer]
            t_sim = ctx.env.now
            last = cpu_ns()
            for it in range(n):
                if me == 0:
                    buf[:] = mine[it]
                    ep.put(blk, rmt, local_signal=None)
                    yield from ep.sig_wait(sig)
                    chk.payload(buf, theirs[it], f"pong {it}")
                    ep.sig_reset(sig)
                    now = cpu_ns()
                    iter_ns.append(now - last)
                    last = now
                else:
                    yield from ep.sig_wait(sig)
                    chk.payload(buf, theirs[it], f"ping {it}")
                    ep.sig_reset(sig)
                    buf[:] = mine[it]
                    ep.put(blk, rmt, local_signal=None)
            half_rtt[me] = (ctx.env.now - t_sim) / n / 2.0

        run_job(job, program)
        return {"end_time": job.env.now, "half_rtt": half_rtt[0]}, iter_ns


class BulkPutGetObs(Workload):
    name = "bulk-putget-obs"
    iterations = 1000
    put_bytes = 1 << 20
    get_bytes = 64 << 10
    windows = 16  # distinct GET source windows, cycled
    patterns = 4  # distinct PUT payloads, cycled (each stamped with its iteration)
    params = {"platform": "th-xy", "nodes": 2, "put_bytes": put_bytes, "get_bytes": get_bytes,
              "iterations": iterations, "recorder": True}
    planned_ops = 3 * iterations  # PUT, GET and ack, each checked

    def setup(self, seed: int) -> Any:
        job = make_job("th-xy", 2, seed=cluster_seed(seed))
        rec = Recorder.attach(job.cluster)
        unr = Unr(job, "glex", **dict(FEATURES_OFF, observe=rec))
        rng = np.random.default_rng(seed)
        put_pats = rng.integers(0, 256, size=(self.patterns, self.put_bytes), dtype=np.uint8)
        get_src = rng.integers(0, 256, size=self.windows * self.get_bytes, dtype=np.uint8)
        return job, unr, put_pats, get_src

    def run(self, state: Any, chk: Checker) -> Tuple[Outputs, List[int]]:
        job, unr, put_pats, get_src = state
        n, gb, nwin = self.iterations, self.get_bytes, self.windows
        iter_ns: List[int] = []
        sim_times: Dict[int, List[float]] = {0: [], 1: []}
        stamps = [np.frombuffer(it.to_bytes(8, "little"), dtype=np.uint8) for it in range(n)]

        def origin(ctx):
            ep = unr.endpoint(0)
            env, times = ctx.env, sim_times[0]
            sbuf = np.zeros(self.put_bytes, dtype=np.uint8)
            sblk = ep.blk_init(ep.mem_reg(sbuf), 0, self.put_bytes)
            gbuf = np.zeros(gb, dtype=np.uint8)
            gsig = ep.sig_init(1)
            gblk = ep.blk_init(ep.mem_reg(gbuf), 0, gb, signal=gsig)
            abuf = np.zeros(8, dtype=np.uint8)
            asig = ep.sig_init(1)
            ablk = ep.blk_init(ep.mem_reg(abuf), 0, 8, signal=asig)
            yield from ep.send_ctl(1, ablk, tag="ack")
            rblk, gwins = yield from ep.recv_ctl(1, tag="blks")
            last = cpu_ns()
            for it in range(n):
                np.copyto(sbuf, put_pats[it % self.patterns])
                sbuf[:8] = stamps[it]
                ep.put(sblk, rblk, local_signal=None)
                w = it % nwin
                ep.get(gblk, gwins[w])
                yield from ep.sig_wait(gsig)
                chk.payload(gbuf, get_src[w * gb:(w + 1) * gb], f"get {it}")
                ep.sig_reset(gsig)
                times.append(env.now)
                yield from ep.sig_wait(asig)
                chk.payload(abuf, stamps[it], f"ack {it}")
                ep.sig_reset(asig)
                times.append(env.now)
                now = cpu_ns()
                iter_ns.append(now - last)
                last = now

        def target(ctx):
            ep = unr.endpoint(1)
            env, times = ctx.env, sim_times[1]
            rbuf = np.zeros(self.put_bytes, dtype=np.uint8)
            psig = ep.sig_init(1)
            rblk = ep.blk_init(ep.mem_reg(rbuf), 0, self.put_bytes, signal=psig)
            gmr = ep.mem_reg(get_src.copy())
            gwins = tuple(ep.blk_init(gmr, w * gb, gb) for w in range(nwin))
            abuf = np.zeros(8, dtype=np.uint8)
            asrc = ep.blk_init(ep.mem_reg(abuf), 0, 8)
            yield from ep.send_ctl(0, (rblk, gwins), tag="blks")
            adst = yield from ep.recv_ctl(0, tag="ack")
            for it in range(n):
                yield from ep.sig_wait(psig)
                pat = put_pats[it % self.patterns]
                chk.op(np.array_equal(rbuf[8:], pat[8:]) and np.array_equal(rbuf[:8], stamps[it]),
                       f"put {it}: payload mismatch")
                ep.sig_reset(psig)
                times.append(env.now)
                abuf[:] = stamps[it]
                ep.put(asrc, adst, local_signal=None)

        run_job(job, lambda ctx: origin(ctx) if ctx.rank == 0 else target(ctx))
        trail = np.array(sim_times[0] + sim_times[1], dtype=np.float64)
        fingerprint = hashlib.sha256(trail.tobytes()).hexdigest()[:16]
        return {"end_time": job.env.now, "transfer_fingerprint": fingerprint}, iter_ns


class _PowerLLEL(Workload):
    """One PowerLLEL point in model mode (virtual buffers + cost model)."""

    platform = ""
    nodes = 0
    grid: Dict[str, int] = {}
    steps = 1
    pipeline_slabs = 4

    def config(self) -> PowerLLELConfig:
        return PowerLLELConfig(
            **self.grid, steps=self.steps, mode="model", pipeline_slabs=self.pipeline_slabs,
            threads=None, lengths=(1.0, 1.0, 8.0),
        )

    def unr(self, seed: int) -> Tuple[Any, Unr]:
        plat = get_platform(self.platform)
        job = make_job(self.platform, self.nodes, seed=cluster_seed(seed))
        return job, Unr(job, plat.channel, **FEATURES_OFF)  # busy polling: the Level 0-3 default


class Fig6HpcIb(_PowerLLEL):
    name = "fig6-hpcib"
    platform = "hpc-ib"
    nodes = 24
    grid = dict(nx=576, ny=576, nz=432, py=6, pz=4)
    steps = 2  # the Fig 6 harness default
    params = {"platform": platform, "nodes": nodes, **grid, "steps": steps,
              "pipeline_slabs": 4, "backends": ["mpi", "unr"], "polling": "busy"}
    planned_ops = 2 * nodes  # one checked result per rank and backend

    def setup(self, seed: int) -> Any:
        cfg = self.config()
        mjob = make_job(self.platform, self.nodes, seed=cluster_seed(seed))
        world = MpiWorld(mjob, get_platform(self.platform).mpi)
        ujob, unr = self.unr(seed)
        return cfg, mjob, world, ujob, unr

    def run(self, state: Any, chk: Checker) -> Tuple[Outputs, List[int]]:
        cfg, mjob, world, ujob, unr = state
        t0 = cpu_ns()
        mres = run_powerllel(mjob, cfg, backend="mpi", world=world)
        chk.powerllel(mres, cfg.n_ranks, "mpi")
        ures = run_powerllel(ujob, cfg, backend="unr", unr=unr)
        chk.powerllel(ures, cfg.n_ranks, "unr")
        per_step = (cpu_ns() - t0) // cfg.steps
        outputs = {
            "mpi_time": mres["time"], "mpi_phases": mres["phases"],
            "unr_time": ures["time"], "unr_phases": ures["phases"],
            "speedup": mres["time"] / ures["time"],
        }
        return outputs, [per_step]

    def reference_failures(self, outputs: Outputs, reference: Mapping[str, Any]) -> List[str]:
        bad = compare_reference(outputs, reference)
        if not outputs["speedup"] > 1:
            bad.append("speedup <= 1")
        return bad


class Fig7Thxy288(_PowerLLEL):
    name = "fig7-thxy-288"
    platform = "th-xy"
    nodes = 288
    grid = dict(nx=2880, ny=2880, nz=2160, py=24, pz=12)
    steps = 1
    pipeline_slabs = 2
    params = {"platform": platform, "nodes": nodes, **grid, "steps": steps,
              "pipeline_slabs": 2, "backends": ["unr"], "polling": "busy"}
    planned_ops = nodes

    def setup(self, seed: int) -> Any:
        return (self.config(), *self.unr(seed))

    def run(self, state: Any, chk: Checker) -> Tuple[Outputs, List[int]]:
        cfg, job, unr = state
        t0 = cpu_ns()
        res = run_powerllel(job, cfg, backend="unr", unr=unr)
        chk.powerllel(res, cfg.n_ranks, "unr")
        per_step = (cpu_ns() - t0) // cfg.steps
        return {"time": res["time"], "phases": res["phases"]}, [per_step]


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (PingPong8B(), BulkPutGetObs(), Fig6HpcIb(), Fig7Thxy288())
}

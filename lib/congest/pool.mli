(** Domain pools for the multicore layer.

    Two shapes of parallelism live here:

    - {!map} is Tier B: embarrassingly parallel run sweeps — bench
      matrices, chaos seed sweeps, property-test family sweeps — with
      chunked {e static} scheduling, so the assignment of tasks to
      domains depends only on [(jobs, n)], never on timing.
    - {!t} is the engine tier: a {e persistent} pool with one shared
      task queue, built for {!Network.exec}'s round loop, which
      dispatches thousands of small parallel sections per run. Workers
      stay spawned across calls to {!run} and claim task indices
      dynamically (work stealing), so an imbalanced task list cannot
      serialize on the slowest statically-assigned worker. Determinism
      is preserved by construction on the caller's side: tasks write to
      task-indexed buffers and the caller merges them in index order
      after {!run} returns, which makes the executing domain
      unobservable.

    Tasks must be independent: they run concurrently on separate
    domains, so any shared mutable state (a common [Metrics.t] sink, a
    global [Random] state) is a race unless the tasks partition it.
    Everything in this library is safe to use from pool tasks as long
    as each task builds its own sinks, graphs and fault plans. *)

exception Task_failed of { index : int; exn : exn }
(** A task raised: [index] is the task's position in [0 .. n-1] and
    [exn] the exception it raised. When several tasks fail in one sweep,
    the {e lowest} index is reported — the failure a sequential
    left-to-right sweep would have hit first, independent of timing. *)

val default_jobs : unit -> int
(** What the hardware offers: [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] computes [[| f 0; ...; f (n-1) |]], running tasks on
    up to [jobs] domains (default {!default_jobs}; values [<= 1] run
    sequentially in the calling domain, as do sweeps with [n <= 1]).
    [jobs] is capped at {!default_jobs} — oversubscribing a host
    multiplies per-domain GC work while the cores time-slice, so a
    [--jobs 4] sweep on a 1-core container runs sequentially instead of
    3.5x slower. Results are identical at every jobs value; only wall
    time changes. Tasks are dealt to domains in contiguous chunks of
    [ceil(n / jobs)].

    Nested use is rejected: a task that itself calls [map] gets
    [Invalid_argument] (wrapped in {!Task_failed} like any other task
    error) — domains would multiply quadratically otherwise. Combining
    pool tasks with [Network.exec] at more than one domain is the same
    mistake one level down and is also on the caller to avoid.
    @raise Task_failed re-raising the lowest-index task failure.
    @raise Invalid_argument if [n < 0]. *)

(** {1 Persistent pools} *)

type t
(** A persistent pool of domains: [domains - 1] spawned workers plus the
    calling domain, which participates in every {!run}. Workers spin
    briefly then park between calls, so a hot round loop pays a few
    atomic operations per dispatch while an idle or single-core host
    degrades to ordinary blocking. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of [domains] parties total
    (default {!default_jobs}). The calling domain is one of them, so
    [domains = 1] spawns nothing and {!run} executes inline.
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Number of parties (domains) in the pool, counting the caller. *)

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] executes [f 0 .. f (tasks - 1)], claiming task
    indices dynamically from a shared counter across all parties, and
    returns only when {e every} party has finished — a full barrier, so
    all task effects are visible to the caller (and to every party on
    the next [run]) when it returns. [f] must not call back into the
    same pool. If tasks raise, the lowest failing index is re-raised as
    {!Task_failed} after the barrier; the other tasks still ran. A
    one-party pool runs the tasks inline, in index order, with the same
    envelope.
    @raise Invalid_argument if [tasks < 0] or the pool is shut down. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Calling {!run} afterwards is
    an error. *)

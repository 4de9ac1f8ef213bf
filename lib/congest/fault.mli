(** Deterministic fault injection for the CONGEST engine.

    A {e fault plan} describes a controlled departure from the clean
    synchronous model: per-message drop / duplication / reordering
    probabilities, bounded extra delivery delay (asynchrony within the
    round structure), scheduled node crashes with optional restarts, and
    an adversarial delivery mode that permutes every inbox. Installing a
    plan in {!Network.exec} (the [faults] field of its
    {!Network.Config.t}) switches the engine to its fault-aware
    {e clocked} loop; with no plan installed the engine's behavior and
    performance are exactly those of the clean sharded loop. The
    precise semantics of each fault kind are specified in DESIGN.md §9.

    {b Determinism.} Every random decision is drawn from a keyed
    splitmix64 {!substream} derived from the plan's seed and the
    decision's (round, slot) key — never from a shared stream position.
    A faulted run is therefore a pure function of (seed, spec, protocol,
    graph): the same at every domain count — same states, same rounds,
    same fault events, same trace. [test_fault.ml] and
    [test_engine_diff.ml] assert this.

    A plan is mutable (the {!stats} counters advance as the engine
    consults it); build a fresh plan, or {!reset} an existing one, for
    every run whose stats must be reproducible. *)

type crash = {
  node : int;  (** the node that fails. *)
  at : int;  (** first round (within one [exec] run) the node is down. *)
  restart : int option;
      (** first round the node is up again; [None] = permanent crash. *)
}
(** One scheduled crash: the node takes no step and receives nothing in
    rounds [at <= r < restart]; it resumes from its {e held} state (a warm
    restart — crash amnesia is out of scope). Rounds are relative to the
    [exec] run the plan is installed in. *)

type spec = {
  drop : float;  (** per-message loss probability, in [[0,1]]. *)
  duplicate : float;  (** per-message duplication probability. *)
  reorder : float;
      (** per-copy probability of losing its place in the sender's FIFO
          order (the copy sorts under a random key instead of its send
          sequence number). *)
  delay : float;  (** per-copy probability of a late delivery. *)
  max_delay : int;
      (** a delayed copy arrives [1..max_delay] rounds after its normal
          next-round delivery (uniform); must be [>= 1]. *)
  adversarial : bool;
      (** permute every delivered inbox (seeded Fisher–Yates), voiding
          the sorted-by-sender delivery-order guarantee. *)
  crashes : crash list;
  grace : int;
      (** quiescence patience: the clocked loop stops only after [grace]
          consecutive rounds with no sends and nothing in flight (gives
          timer-driven protocols, e.g. {!Reliable} retransmission, room
          to wake up); must be [>= 1]. *)
}
(** What can go wrong, and how often. Build one by overriding
    {!default}: [{ Fault.default with drop = 0.05 }]. *)

val default : spec
(** The all-zero spec: no drops, no duplicates, no reordering, no
    delays ([max_delay = 3] for when [delay] is raised), no crashes,
    fair delivery, [grace = 8]. *)

type plan
(** A spec bound to a seed (the root of every keyed {!substream}) plus
    the run's fault counters. *)

val make : ?spec:spec -> seed:int -> unit -> plan
(** [make ~spec ~seed ()] compiles the spec (default {!default}) into a
    plan. @raise Invalid_argument if a probability is outside [[0,1]],
    [max_delay < 1], [grace < 1], or a crash has [at < 0] or
    [restart <= at]. *)

val spec : plan -> spec
val seed : plan -> int

val reset : plan -> unit
(** Zero the {!stats} — the plan will drive an identical run again (the
    draws themselves depend only on the seed and their keys). *)

type stats = {
  dropped : int;  (** messages lost on the wire. *)
  duplicated : int;  (** messages delivered twice. *)
  reordered : int;  (** copies that lost their FIFO place. *)
  delayed : int;  (** copies delivered late. *)
  crash_lost : int;  (** deliveries discarded at a down node. *)
  crashes : int;  (** crash transitions executed. *)
  restarts : int;  (** restart transitions executed. *)
}

val stats : plan -> stats
(** What the plan actually did to the run so far. Deterministic given
    the seed; equality of stats is part of the determinism contract. *)

(** {2 Engine-facing interface}

    The functions below are consulted by the fault-aware loop of
    {!Network.exec}; library users normally never call them. They tally
    the plan's counters, so the engine calls them from its serial
    network phase. *)

type delivery = {
  offset : int;
      (** extra rounds beyond the normal next-round delivery ([0] =
          on time). *)
  key : int option;
      (** [Some k]: sort this copy under random key [k] instead of its
          send sequence number (a reordering). *)
}

val down : plan -> node:int -> round:int -> bool
(** Is the node crashed (and not yet restarted) in this round? *)

val transitions : plan -> round:int -> (int * [ `Crash | `Restart ]) list
(** The crash/restart transitions scheduled for this round, in spec
    order. The engine calls this exactly once per round; the call counts
    the transitions into {!stats}. *)

val note_crash_lost : plan -> unit
(** Count one delivery discarded at a down node (the engine discards;
    the plan only keeps the score). *)

(** {2:substreams Keyed substreams}

    The engine opens a fresh substream per decision point, keyed by
    [(round, slot)] and derived from the plan's seed by splitmix64
    finalization — no draw consumes another key's randomness, and no
    key depends on how the nodes are sharded over domains, so the whole
    run is a pure function of [(seed, spec, protocol, graph)] at every
    domain count.

    Substream draws tally {!stats} into the shared plan, so they must be
    made from a serial section — the engine's network phase — never
    concurrently. *)

type sub
(** A keyed substream of a plan's randomness. *)

val substream : plan -> round:int -> slot:int -> sub
(** [substream p ~round ~slot] opens the substream for one decision
    point. The engine keys per-message fates by the send round and the
    target dart slot (a global dart id), and adversarial inbox
    permutations by the delivery round and [nd + v] for recipient [v]
    ([nd] the dart count, so the two key ranges never collide). *)

val sub_fate : sub -> delivery list
(** Decide what happens to one sent message: [[]] = dropped; one or (on
    duplication) two deliveries otherwise, each with its own delay and
    reordering draws. Updates {!stats}. *)

val sub_permute : sub -> 'a array -> unit
(** Seeded in-place Fisher–Yates shuffle — the adversarial inbox
    permutation. Consumes no randomness on arrays shorter than 2. *)

val horizon : plan -> int
(** The last round mentioned by the crash schedule (0 if none): the
    clocked loop refuses to declare quiescence earlier, so a restart
    scheduled after a lull still happens. *)

val grace : plan -> int
(** The spec's quiescence patience (see {!type:spec}). *)

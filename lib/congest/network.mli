(** Synchronous message-passing engine for the CONGEST model.

    Execution proceeds in synchronous rounds. In each round every node
    reads the messages delivered over its incident edges, updates its
    state, and emits at most [bandwidth] bits per incident edge (the
    CONGEST restriction: one [O(log n)]-bit message per edge per round).
    Exceeding the budget raises {!Bandwidth_exceeded} — the simulator
    enforces the model rather than silently queueing.

    The engine runs until {e quiescence}: a round in which no node sends
    any message. Nodes in a real deployment would detect termination with
    standard echo techniques at the same asymptotic cost; the simulator
    plays the global observer, which is the usual convention for measuring
    round complexity.

    The entry point is {!exec}: a flat-array engine over the graph's dart
    tables ({!Gr.dart_offsets}) whose round loop allocates nothing beyond
    the message lists the protocol interface requires, and whose per-round
    cost is [O(active + messages)] rather than [O(n)]. Every knob — domain
    count, bandwidth, observation sinks, fault plan — travels in one
    {!Config.t} value. The pre-redesign hashtable engine lives on only in
    the test suite, as the {e differential oracle} of
    [test/test_engine_diff.ml]. *)

type ('s, 'm) protocol = {
  init : Gr.t -> int -> 's * (int * 'm) list;
      (** initial state and round-0 outbox of each node. A node knows only
          its own id and its neighbor ids, as in the paper's input model. *)
  round : Gr.t -> int -> 's -> (int * 'm) list -> 's * (int * 'm) list;
      (** [round g v state inbox] processes the messages [(from, msg)]
          delivered this round and returns the new state and outbox
          [(to, msg)]. Destinations must be neighbors of [v].

          {b Delivery order guarantee:} the inbox is sorted by sender id
          (ascending), and several messages from the same sender arrive
          in the order that sender listed them in its outbox. Protocols
          may rely on this; it is deterministic by construction. *)
  msg_bits : 'm -> int;
      (** the size in bits charged for a message — the protocol declares
          its own coding, the engine enforces the budget. *)
}
(** A node-level synchronous protocol: what a node does at wake-up and
    in every round in which it receives mail. *)

exception Bandwidth_exceeded of { round : int; u : int; v : int; bits : int }
(** A node pushed more than [bandwidth] bits over one directed edge in
    one round — the CONGEST restriction, enforced rather than queued. *)

exception No_quiescence of { round : int; active : int; messages : int }
(** Raised by {!exec} when [max_rounds] elapse without quiescence:
    [round] is the livelock guard's limit, [active] the number of nodes
    still holding undelivered mail, [messages] the number of messages
    sent in the last executed round — enough to tell a protocol that
    never converges from one that is merely slow. *)

val default_bandwidth : Gr.t -> int
(** [16 * ceil(log2 n)] bits — the [O(log n)] budget with an explicit
    constant, recorded in every experiment output. *)

type report = {
  messages : int;  (** messages sent across the whole run. *)
  bits : int;  (** total bits of those messages. *)
  max_message_bits : int;  (** largest single message. *)
  max_round_edge_bits : int;
      (** largest per-directed-edge load within one round — the value the
          bandwidth budget was checked against. *)
  active_peak : int;  (** most nodes computing in any one round. *)
  verdict : Bounds.verdict option;
      (** present iff the observer carried a bounds request. *)
}
(** The engine's own summary of a run, tallied from flat counters
    independently of any {!Metrics.t} sink — available even under
    {!Observe.none}. *)

type 's run_result = { states : 's array; rounds : int; report : report }
(** What {!exec} returns: every node's final state, the number of rounds
    executed, and the engine's {!report}. *)

(** The run configuration. One value carries every engine knob, so call
    sites build it once — [Config.default |> Config.with_domains 4] —
    and thread it through {!Proto}, {!Embedder} and {!Certify} instead
    of re-threading five optional labels per layer. *)
module Config : sig
  type t = {
    domains : int;  (** domains executing the round loop (default 1). *)
    bandwidth : int option;  (** per-edge bits per round; default
            {!default_bandwidth}. *)
    max_rounds : int option;  (** livelock guard; default [16n + 64]. *)
    observe : Observe.t;  (** observation sinks (default {!Observe.none}). *)
    faults : Fault.plan option;
        (** fault plan; composes with any [domains], and the faulted run
            is the same at every domain count — see {!exec}. *)
  }

  val default : t
  (** One domain, unobserved, fault-free: [domains = 1], default
      bandwidth and round guard. *)

  val with_domains : int -> t -> t
  val with_bandwidth : int -> t -> t
  val with_max_rounds : int -> t -> t
  val with_observe : Observe.t -> t -> t
  val with_faults : Fault.plan -> t -> t

  val make :
    ?domains:int ->
    ?bandwidth:int ->
    ?max_rounds:int ->
    ?observe:Observe.t ->
    ?faults:Fault.plan ->
    unit ->
    t
  (** Labelled constructor: unspecified fields are {!default}'s. *)
end

val exec : ?config:Config.t -> Gr.t -> ('s, 'm) protocol -> 's run_result
(** Run to quiescence under [config] (default {!Config.default}). The
    final states, the executed round count and the {!report} come back
    together; everything else — a metrics accumulator, a trace journal,
    a bounds verdict — is requested via the config's [observe] sink.
    Successive runs on the same metrics sink continue one round
    timeline: this run's round numbers are offset by [Metrics.rounds]
    at entry.

    With no fault plan installed (the default), the run executes on the
    clean sharded loop at every domain count: the node range splits into
    [domains] contiguous shards, and each round's {e active list} is
    spread over a fixed number of dynamically-claimed chunks per domain
    (at [domains = 1] one party runs them inline, spawning no domain).
    Unobserved, a round allocates nothing beyond the message lists the
    protocol interface requires, and the delivery order is exactly as
    documented on {!type:protocol}. The result — states, rounds, report,
    and the full metrics/trace timelines — is {b bit-identical} at every
    domain count, including which error is raised and what the sinks
    saw before it; the differential suite pins this across domain
    counts against an independent reference engine. Observation is
    deferred: slots log events during the run and a serial merge
    rebuilds the exact metrics/trace timeline — at run end, at an
    error, and whenever the buffered events pass a fixed threshold, so
    an observed run's extra memory stays bounded; unobserved runs log
    nothing. The protocol's [init] and [round] closures must be pure up
    to their returned values: they run concurrently for different nodes
    when [domains > 1]. Each node's [init] runs exactly once.

    Installing a {!Fault.plan} switches the run to the fault-aware
    {e clocked} loop, at any domain count: messages are dropped,
    duplicated, reordered or delayed and nodes crash and restart as the
    plan dictates; every live node then takes a step {e every} round
    (with an empty inbox when nothing arrived), which is the clock
    timeout-driven recovery layers such as {!Reliable} run on, and the
    run ends only after the plan's grace period of consecutive quiet
    rounds. Fault events are counted into the metrics sink
    ({!Metrics.faults}) and recorded on the trace timeline
    ({!Trace.on_fault}). The clocked loop computes over [domains]
    contiguous node shards and runs one serial network phase per round
    for everything order-sensitive; every fault decision is drawn from
    a {!Fault.substream} keyed by round and global slot, never by
    shard. A faulted run is therefore a pure function of
    (seed, spec, protocol, graph) — states, rounds, report, fault
    stats, metrics and trace are the same at every domain count.
    DESIGN.md §9 and §10 specify the fault model and the parallel
    engine.
    @raise Bandwidth_exceeded when a node over-sends on an edge.
    @raise No_quiescence if [max_rounds] elapse without quiescence — a
    livelock guard for buggy protocols.
    @raise Invalid_argument if a node addresses a non-neighbor, or if
    [domains < 1]. *)

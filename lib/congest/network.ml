type ('s, 'm) protocol = {
  init : Gr.t -> int -> 's * (int * 'm) list;
  round : Gr.t -> int -> 's -> (int * 'm) list -> 's * (int * 'm) list;
  msg_bits : 'm -> int;
}

exception Bandwidth_exceeded of { round : int; u : int; v : int; bits : int }
exception No_quiescence of { round : int; active : int; messages : int }

let default_bandwidth g =
  let n = max 2 (Gr.n g) in
  let rec bits_needed k acc = if k <= 1 then acc else bits_needed (k / 2) (acc + 1) in
  16 * bits_needed (n - 1) 1

type report = {
  messages : int;
  bits : int;
  max_message_bits : int;
  max_round_edge_bits : int;
  active_peak : int;
  verdict : Bounds.verdict option;
}

type 's run_result = { states : 's array; rounds : int; report : report }

(* The run configuration: every engine knob in one value, so call sites
   thread one [Config.t] instead of re-threading five optional labels
   per layer. [default] is one domain, unobserved, fault-free. *)
module Config = struct
  type t = {
    domains : int;
    bandwidth : int option;
    max_rounds : int option;
    observe : Observe.t;
    faults : Fault.plan option;
  }

  let default =
    {
      domains = 1;
      bandwidth = None;
      max_rounds = None;
      observe = Observe.none;
      faults = None;
    }

  let with_domains domains c = { c with domains }
  let with_bandwidth b c = { c with bandwidth = Some b }
  let with_max_rounds r c = { c with max_rounds = Some r }
  let with_observe observe c = { c with observe }
  let with_faults p c = { c with faults = Some p }

  let make ?(domains = 1) ?bandwidth ?max_rounds ?(observe = Observe.none)
      ?faults () =
    { domains; bandwidth; max_rounds; observe; faults }
end

(* What every engine resolves from the config the same way. A bounds
   request needs a metrics accumulator, so a private one is conjured when
   the caller supplied no sink. Successive runs on the same metrics
   continue one timeline: rounds already accumulated ([base]) offset
   this run's round numbers in the round log and the trace. *)
type setup = {
  bandwidth : int;
  max_rounds : int;
  trace : Trace.t option;
  metrics : Metrics.t option;
  base : int;
}

let setup ?bandwidth ?max_rounds observe g =
  let bandwidth =
    match bandwidth with Some b -> b | None -> default_bandwidth g
  in
  let max_rounds =
    match max_rounds with Some r -> r | None -> (16 * Gr.n g) + 64
  in
  let metrics =
    match (Observe.metrics observe, Observe.bounds observe) with
    | None, Some _ -> Some (Metrics.create g)
    | m, _ -> m
  in
  let base = match metrics with Some m -> Metrics.rounds m | None -> 0 in
  { bandwidth; max_rounds; trace = Observe.trace observe; metrics; base }

(* The books every round loop keeps: the round being computed, its
   message and bit tallies, and the run totals and maxima the report is
   built from. *)
type tally = {
  mutable t_round : int;
  mutable t_msgs : int;  (* messages sent in round [t_round] *)
  mutable t_bits : int;
  mutable t_total_msgs : int;
  mutable t_total_bits : int;
  mutable t_max_msg : int;
  mutable t_max_burst : int;
  mutable t_active_peak : int;
}

let tally () =
  { t_round = 0; t_msgs = 0; t_bits = 0; t_total_msgs = 0; t_total_bits = 0;
    t_max_msg = 0; t_max_burst = 0; t_active_peak = 0 }

let next_round t =
  t.t_round <- t.t_round + 1;
  t.t_msgs <- 0;
  t.t_bits <- 0

(* Fold the round just computed into the run totals. *)
let commit t ~active =
  if active > t.t_active_peak then t.t_active_peak <- active;
  t.t_total_msgs <- t.t_total_msgs + t.t_msgs;
  t.t_total_bits <- t.t_total_bits + t.t_bits

let record_round su ~rnd ~active ~msgs ~bits =
  (match su.metrics with
  | Some m ->
      Metrics.record_round m ~round:(su.base + rnd) ~active ~messages:msgs
        ~bits
  | None -> ());
  match su.trace with
  | Some tr ->
      Trace.on_round tr ~round:(su.base + rnd) ~active ~messages:msgs ~bits
  | None -> ()

(* Emit one message event, on directed-edge slot [dir], to the sinks. *)
let record_message su ~rnd ~dir ~src ~dst ~bits =
  (match su.metrics with
  | Some m -> Metrics.add_message_at m ~dir ~bits
  | None -> ());
  match su.trace with
  | Some tr -> Trace.on_message tr ~round:(su.base + rnd) ~src ~dst ~bits
  | None -> ()

let non_neighbor u v =
  Invalid_argument
    (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d" u v)

(* Close a run: fold its rounds into the metrics timeline and build the
   engine's report from the tally, with the bounds verdict attached if
   one was requested. *)
let finish observe su t states =
  let rounds = t.t_round in
  (match su.metrics with Some m -> Metrics.add_rounds m rounds | None -> ());
  let verdict =
    match (Observe.bounds observe, su.metrics) with
    | Some b, Some m ->
        Some
          (Bounds.check ?c_rounds:b.Observe.c_rounds ?c_bits:b.Observe.c_bits
             ~bandwidth:su.bandwidth ~n:(Array.length states) ~d:b.Observe.d m)
    | _ -> None
  in
  {
    states;
    rounds;
    report =
      {
        messages = t.t_total_msgs;
        bits = t.t_total_bits;
        max_message_bits = t.t_max_msg;
        max_round_edge_bits = t.t_max_burst;
        active_peak = t.t_active_peak;
        verdict;
      };
  }

(* In-place ascending heapsort of a.(0 .. k-1): the engine's worklists
   live in preallocated buffers, so the sort must not allocate. *)
let sort_prefix a k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec down i k =
    let l = (2 * i) + 1 in
    if l < k then begin
      let c = if l + 1 < k && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap c i;
        down c k
      end
    end
  in
  for i = (k / 2) - 1 downto 0 do
    down i k
  done;
  for j = k - 1 downto 1 do
    swap 0 j;
    down 0 j
  done

(* Rank of [v] in the sorted slice [a.(lo .. hi)], or -1. This is the
   engine's per-message neighbor lookup: the sender's own CSR slice is
   searched (cache-hot across a whole outbox) and the matching dart comes
   from the reversal involution — no cross-module call, no exception
   handler, no allocation. *)
let rec rank (a : int array) lo hi v =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = v then mid
    else if y < v then rank a (mid + 1) hi v
    else rank a lo (mid - 1) v
  end

(* ------------------------------------------------------------------ *)
(* The sharded work-stealing engine                                    *)
(* ------------------------------------------------------------------ *)

(* Growable int buffer, reused across rounds: per-slot stagings and
   event logs have no static bound, so they amortize to their peak and
   stay there. The header is padded past a cache line: adjacent slots'
   buffers are allocated back to back and their [len] fields are bumped
   concurrently by different domains — without the pad every push would
   false-share. *)
module Ibuf = struct
  type t = {
    mutable a : int array;
    mutable len : int;
    mutable _p0 : int;
    mutable _p1 : int;
    mutable _p2 : int;
    mutable _p3 : int;
    mutable _p4 : int;
    mutable _p5 : int;
  }

  let make cap =
    { a = Array.make (max 16 cap) 0; len = 0; _p0 = 0; _p1 = 0; _p2 = 0;
      _p3 = 0; _p4 = 0; _p5 = 0 }

  let clear t = t.len <- 0

  let push t x =
    let cap = Array.length t.a in
    if t.len = cap then begin
      let a' = Array.make (2 * cap) 0 in
      Array.blit t.a 0 a' 0 cap;
      t.a <- a'
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* Growable message buffer — [Ibuf] for 'm values (boundary-mail
   payloads, shard outboxes). Starts empty so no dummy element is
   needed; padded for the same false-sharing reason. *)
module Mbuf = struct
  type 'm t = {
    mutable a : 'm array;
    mutable len : int;
    mutable _p0 : int;
    mutable _p1 : int;
    mutable _p2 : int;
    mutable _p3 : int;
    mutable _p4 : int;
    mutable _p5 : int;
  }

  let make () =
    { a = [||]; len = 0; _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0;
      _p5 = 0 }

  let clear t = t.len <- 0

  let push t x =
    let cap = Array.length t.a in
    if t.len = cap then begin
      let a' = Array.make (max 16 (2 * cap)) x in
      Array.blit t.a 0 a' 0 cap;
      t.a <- a'
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* A slot aborts at its first error so its event buffer is exactly the
   prefix a sequential sweep would have recorded before raising: [pos]
   is the buffered event count at the instant the error struck, [rnd]
   the round it struck in. *)
exception Stop_shard

type slot_error = { rnd : int; pos : int; err : exn }

(* Per-slot counters, one padded block per slot: every send bumps its
   slot's counters, and unpadded, adjacent slots' counters would share
   cache lines. 13 fields + header > 64 bytes keeps any two slots' hot
   fields on different lines. *)
type slot_acc = {
  mutable a_msgs : int;
  mutable a_bits : int;
  mutable a_maxmsg : int;
  mutable a_maxburst : int;
  mutable a_tick : int;  (* current sender's stamp for the load scratch *)
  mutable a_err : slot_error option;
  mutable _a0 : int;
  mutable _a1 : int;
  mutable _a2 : int;
  mutable _a3 : int;
  mutable _a4 : int;
  mutable _a5 : int;
  mutable _a6 : int;
  mutable _a7 : int;
}

let slot_acc () =
  { a_msgs = 0; a_bits = 0; a_maxmsg = 0; a_maxburst = 0; a_tick = 0;
    a_err = None;
    _a0 = 0; _a1 = 0; _a2 = 0; _a3 = 0; _a4 = 0; _a5 = 0; _a6 = 0; _a7 = 0 }

(* Work-stealing chunks per domain in each round's split (see below). *)
let chunks_per_domain = 4

(* An observed run merges its buffered frames and events into the sinks,
   and recycles the logs, once they hold more than this many ints
   (2^17 two-int message events). *)
let flush_ints = 1 lsl 18

(* The clean round engine, at every domain count. The node range is
   split into [k] contiguous shards; a persistent [Pool.t] of [k]
   parties executes each round's sections, claiming tasks dynamically
   (at [k = 1] the lone party runs them inline). Each round, the
   {e sorted active list} — not the node range — is split into up to
   [k * chunks_per_domain] contiguous index chunks, so a wavefront
   concentrated in one shard still spreads over every domain, and the
   work-stealing pool keeps all domains busy even when chunk costs are
   skewed. Deliver and compute are separate pool dispatches (a barrier
   sits between them because sends may cross chunks); per-chunk
   counters, event logs and stagings then merge in chunk order, which
   equals ascending node order — the visit order of a sequential sweep.

   Bookkeeping lives in arrays preallocated at entry: [box.(d)] holds
   the messages in flight on dart [d], head = most recent (a
   recipient's in-darts are one contiguous CSR range ordered by sender,
   so draining it back-to-front yields the documented delivery order
   with no sort), and [staged]/[has_mail] is the worklist of recipients
   with mail, so a round costs O(active + messages), never O(n).

   {b Deferred observation.} Observation sinks cost no serial replay
   per barrier. When no sink consumes per-message events (the benchmark
   hot path) the slots buffer nothing and the barriers fold plain
   counters. When observation is on, each slot appends its events to a
   log, every committed round appends one {e frame} (round, active,
   totals, per-slot event watermarks) to a frame log, and the timeline
   is merged later in one serial pass — a slot-order k-way walk of the
   frame log that replays messages, derives each round's first-touched
   recipients for burst accounting, and emits the round records. The
   merge runs at run end, at an error, and whenever the logs pass
   [flush_ints], after which they are recycled: an observed run's
   buffered events stay bounded whatever its length.

   {b Boundary mail.} Sends never write another shard's cache lines
   during a parallel section: a cross-shard message (sid u <> sid v) is
   staged in its slot's per-destination-shard buffer and flushed at the
   barrier — serially when light, by a pool dispatch over destination
   shards when heavy (each destination's box/has_mail cells then have
   exactly one writer, draining slots in order, which preserves the
   sequential per-dart cons order). Bandwidth is charged at send time
   from a slot-local per-outbox accumulator — all traffic on a dart in
   one round comes from its unique sender's single outbox — so the
   engine keeps no shared per-dart load array at all.

   The result — states, rounds, report, metrics, trace — is the same at
   every domain count and bit-identical to the reference semantics the
   differential suite (test_engine_diff.ml) holds it to. Error behavior
   is faithful too: each slot stops at its first error, the merge
   flushes the frame log and then replays exactly the event prefix a
   sequential sweep would have recorded (slots below the failing one in
   full, the failing slot up to the error), and re-raises the error the
   sequential sweep would have hit first: the lowest slot's.

   Protocols must be pure (no shared mutable state in their closures):
   [init]/[round] of different nodes run concurrently. Each node's
   [init] runs exactly once. *)
let exec_sharded ~pool ?bandwidth ?max_rounds ?(observe = Observe.none) g
    proto =
  let n = Gr.n g in
  let k = Pool.size pool in
  let su = setup ?bandwidth ?max_rounds observe g in
  let { bandwidth; max_rounds; trace; metrics; _ } = su in
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  let rev = Gr.dart_reversals g in
  let nd = Array.length srcs in
  (* Events are buffered as (dart, bits) pairs; the head table turns a
     dart back into its recipient at replay time. *)
  let head = Array.make (max 1 nd) 0 in
  for v = 0 to n - 1 do
    for d = xadj.(v) to xadj.(v + 1) - 1 do
      head.(d) <- v
    done
  done;
  (* Replay is only needed when a sink actually consumes per-message
     events; a trace that drops messages costs nothing in the slots. *)
  let observing =
    Option.is_some metrics
    || (match trace with Some tr -> Trace.keep_messages tr | None -> false)
  in
  let shard_lo = Array.init (k + 1) (fun i -> i * n / k) in
  (* Shard of each node: the boundary-mail test (stage iff
     sid u <> sid v) consults it on every chunk-mode send. *)
  let sid = Array.make (max 1 n) 0 in
  for i = 0 to k - 1 do
    for v = shard_lo.(i) to shard_lo.(i + 1) - 1 do
      sid.(v) <- i
    done
  done;
  let box : 'm list array = Array.make (max 1 nd) [] in
  let has_mail = Array.make (max 1 n) false in
  let staged = Array.make (max 1 n) 0 in
  let n_staged = ref 0 in
  let active_buf = Array.make (max 1 n) 0 in
  let inbox : (int * 'm) list array = Array.make (max 1 n) [] in
  let tl = tally () in
  (* Per-slot accumulators, one per chunk: up to k * chunks_per_domain
     of them, or one when a lone party has nothing to steal. Counters
     fold at the merge, stagings dedupe there; event logs are
     append-only between frame-log flushes. *)
  let nslots = if k = 1 then 1 else k * chunks_per_domain in
  let sl = Array.init nslots (fun _ -> slot_acc ()) in
  let sl_staged = Array.init nslots (fun _ -> Ibuf.make 64) in
  let sl_events =
    Array.init nslots (fun _ -> Ibuf.make (if observing then 256 else 16))
  in
  (* Slot-local per-round load scratch, indexed by the sender's
     adjacency rank: within one round all traffic on a dart comes from
     its unique sender's single outbox, so the bandwidth/burst
     accumulator needs no shared load array. [ld_cum.(slot).(o)] is the
     cumulative bits of the current sender's out-dart [o] (its rank in
     the sender's CSR slice); validity is a stamp compare against the
     slot's [a_tick], bumped once per sender — O(1) per send, no
     per-node clearing, no probe. *)
  let maxdeg =
    let m = ref 1 in
    for v = 0 to n - 1 do
      let d = xadj.(v + 1) - xadj.(v) in
      if d > !m then m := d
    done;
    !m
  in
  let ld_cum = Array.init nslots (fun _ -> Array.make maxdeg 0) in
  let ld_stp = Array.init nslots (fun _ -> Array.make maxdeg 0) in
  (* Boundary mail staged at send, per (slot, destination shard),
     flushed at the barrier. *)
  let ob_d = Array.init nslots (fun _ -> Array.init k (fun _ -> Ibuf.make 32)) in
  let ob_m : 'm Mbuf.t array array =
    Array.init nslots (fun _ -> Array.init k (fun _ -> Mbuf.make ()))
  in
  let fl_staged = Array.init k (fun _ -> Ibuf.make 64) in
  (* The frame log (observing runs only): per committed round
     [rnd; nc; active; msgs; bits; wm_0 .. wm_{nc-1}], where wm_s is
     slot s's event-log length at commit. [cursor] tracks each slot's
     replay position during the merge. *)
  let frames = Ibuf.make (if observing then 256 else 16) in
  let fpos = ref 0 in
  let cursor = Array.make nslots 0 in
  (* Merge-time per-dart load reconstruction: the burst accounting of
     every round replays into a scratch copy at merge time. [mstamp]
     and [rbuf] derive the round's first-touched recipients from the
     replayed events — exactly the round's staging set. *)
  let burst = Option.is_some metrics in
  let mload = if burst then Array.make (max 1 nd) 0 else [||] in
  let mtouch = Ibuf.make 16 in
  let mstamp = if burst then Array.make (max 1 n) 0 else [||] in
  let rbuf = Ibuf.make 16 in
  let frame_no = ref 0 in
  let send slot rnd u (v, msg) =
    let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
    if s < 0 then begin
      sl.(slot).a_err <-
        Some { rnd; pos = sl_events.(slot).Ibuf.len; err = non_neighbor u v };
      raise_notrace Stop_shard
    end;
    let d = rev.(s) in
    let bits = proto.msg_bits msg in
    if observing then begin
      Ibuf.push sl_events.(slot) d;
      Ibuf.push sl_events.(slot) bits
    end;
    let a = sl.(slot) in
    a.a_msgs <- a.a_msgs + 1;
    a.a_bits <- a.a_bits + bits;
    if bits > a.a_maxmsg then a.a_maxmsg <- bits;
    let o = s - xadj.(u) in
    let cum = ld_cum.(slot) and stp = ld_stp.(slot) in
    let now =
      if stp.(o) = a.a_tick then cum.(o) + bits else bits
    in
    cum.(o) <- now;
    stp.(o) <- a.a_tick;
    if now > a.a_maxburst then a.a_maxburst <- now;
    if now > bandwidth then begin
      (* The violating message is recorded in the sinks before the
         raise; [pos] already includes it. *)
      a.a_err <-
        Some
          {
            rnd;
            pos = sl_events.(slot).Ibuf.len;
            err = Bandwidth_exceeded { round = rnd; u; v; bits = now };
          };
      raise_notrace Stop_shard
    end;
    if sid.(u) = sid.(v) then begin
      (match box.(d) with
      | [] -> Ibuf.push sl_staged.(slot) v
      | _ :: _ -> ());
      box.(d) <- msg :: box.(d)
    end
    else begin
      Ibuf.push ob_d.(slot).(sid.(v)) d;
      Mbuf.push ob_m.(slot).(sid.(v)) msg
    end
  in
  (* Replay buffered event pairs [lo, hi) of a slot into the sinks as
     round [rnd]; with [burst] also rebuild the per-dart round loads and
     collect first-touched recipients for burst accounting. *)
  let replay ~rnd ~burst slot lo hi =
    let ev = sl_events.(slot).Ibuf.a in
    for j = lo to hi - 1 do
      let d = ev.(2 * j) and bits = ev.((2 * j) + 1) in
      let u = srcs.(d) and v = head.(d) in
      record_message su ~rnd
        ~dir:((2 * dedge.(d)) + if u < v then 0 else 1)
        ~src:u ~dst:v ~bits;
      if burst then begin
        if mload.(d) = 0 then Ibuf.push mtouch d;
        mload.(d) <- mload.(d) + bits;
        if mstamp.(v) <> !frame_no then begin
          mstamp.(v) <- !frame_no;
          Ibuf.push rbuf v
        end
      end
    done
  in
  (* The deferred observation merge: walk the frame log once, replaying
     each round's events in slot order (the sequential visit order),
     scanning the round's first-touched recipients' darts for the
     per-edge burst maxima, and emitting the round records. *)
  let flush_frames () =
    let fa = frames.Ibuf.a in
    while !fpos < frames.Ibuf.len do
      incr frame_no;
      let p = !fpos in
      let rnd = fa.(p) in
      let nc = fa.(p + 1) in
      Ibuf.clear rbuf;
      for s = 0 to nc - 1 do
        let wm = fa.(p + 5 + s) in
        replay ~rnd ~burst s (cursor.(s) / 2) (wm / 2);
        cursor.(s) <- wm
      done;
      (match metrics with
      | Some m ->
          for i = 0 to rbuf.Ibuf.len - 1 do
            let v = rbuf.Ibuf.a.(i) in
            for d = xadj.(v) to xadj.(v + 1) - 1 do
              if mload.(d) > 0 then
                Metrics.note_round_edge_at m
                  ~dir:((2 * dedge.(d)) + if srcs.(d) < v then 0 else 1)
                  ~bits:mload.(d)
            done
          done;
          for i = 0 to mtouch.Ibuf.len - 1 do
            mload.(mtouch.Ibuf.a.(i)) <- 0
          done;
          Ibuf.clear mtouch
      | None -> ());
      record_round su ~rnd ~active:fa.(p + 2) ~msgs:fa.(p + 3)
        ~bits:fa.(p + 4);
      fpos := p + 5 + nc
    done
  in
  (* Commit one round (or init): when observing, append a frame, and
     merge and recycle the logs once they pass [flush_ints] — every
     buffered event belongs to a committed frame at this point. Totals
     fold either way. *)
  let commit_round ~nc ~active =
    if observing then begin
      Ibuf.push frames tl.t_round;
      Ibuf.push frames nc;
      Ibuf.push frames active;
      Ibuf.push frames tl.t_msgs;
      Ibuf.push frames tl.t_bits;
      for s = 0 to nc - 1 do
        Ibuf.push frames sl_events.(s).Ibuf.len
      done;
      let buffered = ref frames.Ibuf.len in
      Array.iter (fun ev -> buffered := !buffered + ev.Ibuf.len) sl_events;
      if !buffered > flush_ints then begin
        flush_frames ();
        Array.iter Ibuf.clear sl_events;
        Array.fill cursor 0 nslots 0;
        Ibuf.clear frames;
        fpos := 0
      end
    end;
    commit tl ~active
  in
  (* Deliver the boundary mail staged during a parallel section: walk
     destination shards, draining slots in ascending order — each
     destination's box/has_mail cells get exactly one writer, and slot
     order preserves the sequential per-dart cons order. Serial when the
     volume wouldn't pay for a dispatch. Flushing cannot fail: darts
     were resolved and bandwidth charged at send time. *)
  let flush_boundary nc =
    let total = ref 0 in
    for s = 0 to nc - 1 do
      for t = 0 to k - 1 do
        total := !total + ob_d.(s).(t).Ibuf.len
      done
    done;
    if !total > 0 then begin
      let flush_to t =
        let fs = fl_staged.(t) in
        for s = 0 to nc - 1 do
          let db = ob_d.(s).(t) and mb = ob_m.(s).(t) in
          for j = 0 to db.Ibuf.len - 1 do
            let d = db.Ibuf.a.(j) in
            let msg = mb.Mbuf.a.(j) in
            (match box.(d) with
            | [] ->
                let v = head.(d) in
                if not has_mail.(v) then begin
                  has_mail.(v) <- true;
                  Ibuf.push fs v
                end
            | _ :: _ -> ());
            box.(d) <- msg :: box.(d)
          done;
          Ibuf.clear db;
          Mbuf.clear mb
        done
      in
      if !total < 512 then
        for t = 0 to k - 1 do
          flush_to t
        done
      else Pool.run pool ~tasks:k flush_to;
      for t = 0 to k - 1 do
        let fs = fl_staged.(t) in
        for j = 0 to fs.Ibuf.len - 1 do
          staged.(!n_staged) <- fs.Ibuf.a.(j);
          incr n_staged
        done;
        Ibuf.clear fs
      done
    end
  in
  (* Fold one parallel section (init or a chunked round) back
     into the global round state; on error, flush the frame log and
     replay only the sequential prefix of the failing round, then
     re-raise. Chunks are contiguous ascending slices of the visit
     order, so slot order = sequential order and the lowest erring slot
     holds the error a sequential sweep would hit first. *)
  let merge_slots nc =
    let erri = ref (-1) in
    for i = nc - 1 downto 0 do
      if sl.(i).a_err <> None then erri := i
    done;
    if !erri >= 0 then begin
      let { rnd; pos; err } =
        match sl.(!erri).a_err with Some e -> e | None -> assert false
      in
      if observing then begin
        flush_frames ();
        for i = 0 to !erri - 1 do
          replay ~rnd ~burst:false i
            (cursor.(i) / 2)
            (sl_events.(i).Ibuf.len / 2)
        done;
        replay ~rnd ~burst:false !erri (cursor.(!erri) / 2) (pos / 2)
      end;
      raise err
    end;
    flush_boundary nc;
    for i = 0 to nc - 1 do
      let a = sl.(i) in
      tl.t_msgs <- tl.t_msgs + a.a_msgs;
      tl.t_bits <- tl.t_bits + a.a_bits;
      if a.a_maxmsg > tl.t_max_msg then tl.t_max_msg <- a.a_maxmsg;
      if a.a_maxburst > tl.t_max_burst then tl.t_max_burst <- a.a_maxburst;
      let st = sl_staged.(i) in
      for j = 0 to st.Ibuf.len - 1 do
        let w = st.Ibuf.a.(j) in
        if not has_mail.(w) then begin
          has_mail.(w) <- true;
          staged.(!n_staged) <- w;
          incr n_staged
        end
      done;
      a.a_msgs <- 0;
      a.a_bits <- 0;
      a.a_maxmsg <- 0;
      a.a_maxburst <- 0;
      Ibuf.clear sl_staged.(i)
    done
  in
  (* Init: chunked over contiguous node ranges, each chunk filling its
     own slice of the states, with the standard merge. *)
  let nc_init = max 1 (min nslots n) in
  let parts = Array.make nc_init [||] in
  Pool.run pool ~tasks:nc_init (fun c ->
      let lo = c * n / nc_init and hi = (c + 1) * n / nc_init in
      try
        parts.(c) <-
          Array.init (hi - lo) (fun j ->
              let v = lo + j in
              let (s, out) = proto.init g v in
              sl.(c).a_tick <- sl.(c).a_tick + 1;
              List.iter (send c 0 v) out;
              s)
      with
      | Stop_shard -> ()
      | e ->
          sl.(c).a_err <-
            Some { rnd = 0; pos = sl_events.(c).Ibuf.len; err = e });
  merge_slots nc_init;
  let states = Array.concat (Array.to_list parts) in
  (* Round 0's spontaneous sends are checked and counted too; every node
     ran its init, so all n nodes are active. *)
  if tl.t_msgs > 0 then commit_round ~nc:nc_init ~active:n;
  while !n_staged > 0 do
    if tl.t_round >= max_rounds then begin
      if observing then flush_frames ();
      raise
        (No_quiescence
           { round = tl.t_round; active = !n_staged; messages = tl.t_msgs })
    end;
    let kact = !n_staged in
    Array.blit staged 0 active_buf 0 kact;
    sort_prefix active_buf kact;
    n_staged := 0;
    next_round tl;
    let rnd = tl.t_round in
    let nc = min nslots kact in
    (* Deliver: drain each active recipient's in-dart range back-to-front
       into its inbox list — sorted by sender id by construction, with a
       sender's own messages kept in outbox order. *)
    Pool.run pool ~tasks:nc (fun c ->
        let lo = c * kact / nc and hi = (c + 1) * kact / nc in
        try
          for idx = lo to hi - 1 do
            let v = active_buf.(idx) in
            has_mail.(v) <- false;
            let acc = ref [] in
            for d = xadj.(v + 1) - 1 downto xadj.(v) do
              match box.(d) with
              | [] -> ()
              | msgs ->
                  let u = srcs.(d) in
                  List.iter (fun m -> acc := (u, m) :: !acc) msgs;
                  box.(d) <- []
            done;
            inbox.(v) <- !acc
          done
        with e ->
          sl.(c).a_err <- Some { rnd; pos = sl_events.(c).Ibuf.len; err = e });
    (* Compute: only the recipients run, in ascending id order within
       each chunk. *)
    Pool.run pool ~tasks:nc (fun c ->
        let lo = c * kact / nc and hi = (c + 1) * kact / nc in
        try
          for idx = lo to hi - 1 do
            let v = active_buf.(idx) in
            let (s, out) = proto.round g v states.(v) inbox.(v) in
            inbox.(v) <- [];
            states.(v) <- s;
            sl.(c).a_tick <- sl.(c).a_tick + 1;
            List.iter (send c rnd v) out
          done
        with
        | Stop_shard -> ()
        | e ->
            sl.(c).a_err <- Some { rnd; pos = sl_events.(c).Ibuf.len; err = e });
    merge_slots nc;
    commit_round ~nc ~active:kact
  done;
  if observing then flush_frames ();
  finish observe su tl states

(* The fault-aware clocked engine. [exec] dispatches here whenever a
   fault plan is installed, at any domain count, so this loop favors
   clarity over allocation discipline: deliveries live in a
   round-indexed pending table (messages can be delayed across rounds),
   and every live node takes a step every round — the clock that
   timeout-driven recovery layers ({!Reliable}) need in order to
   retransmit. The semantics of each fault kind are specified in
   DESIGN.md §9.

   The compute phase runs over [k] contiguous node shards (one shard,
   run inline by a 1-party pool, at [domains = 1]). Each shard steps
   its own nodes against shard-owned state/inbox cells and stages its
   sends as (sender, recipient, msg) triples; a {e serial} network
   phase then walks the staged sends in ascending shard order — which
   is ascending node order whatever [k] is — doing everything
   order-sensitive in one thread: metrics, trace, bandwidth accounting,
   fault fates, delivery scheduling and the plan's stats.

   Fault decisions come from keyed {!Fault.substream}s — per-message
   fates from [(send round, target dart)], adversarial inbox permutes
   from [(delivery round, nd + v)] — none of which names a shard, so
   the run is a pure function of (seed, spec, protocol, graph): the
   same at every domain count. All messages of one dart in one round
   draw from one substream (a per-dart table in the serial phase),
   keeping their fates independent draws rather than replays of the
   same position.

   Error faithfulness: a compute error in shard i suppresses the
   network phase for shards > i and for the erring shard's unstaged
   tail, so the error surfaces exactly after the sends a sequential
   sweep would have processed first; bandwidth violations raise from
   the serial phase mid-walk. *)
let exec_clocked ~plan ~pool ?bandwidth ?max_rounds
    ?(observe = Observe.none) g proto =
  let n = Gr.n g in
  let k = Pool.size pool in
  let su = setup ?bandwidth ?max_rounds observe g in
  let { bandwidth; max_rounds; trace; metrics; base } = su in
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  let rev = Gr.dart_reversals g in
  let nd = Array.length srcs in
  let dir_of_dart = Array.make (max 1 nd) 0 in
  for v = 0 to n - 1 do
    for d = xadj.(v) to xadj.(v + 1) - 1 do
      dir_of_dart.(d) <- (2 * dedge.(d)) + if srcs.(d) < v then 0 else 1
    done
  done;
  let shard_lo = Array.init (k + 1) (fun i -> i * n / k) in
  let tl = tally () in
  (* Load/touched are only read and written by the serial network
     phase. *)
  let load = Array.make (max 1 nd) 0 in
  let touched = ref [] in
  let pending : (int, (int * int * int * int * 'm) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let in_flight = ref 0 in
  let seq = ref 0 in
  (* Per-shard staged sends of the current phase: (u, v) int pairs plus
     the message payloads, in the shard's node order. [sh_err] holds the
     shard's first compute error. *)
  let ob_uv = Array.init k (fun _ -> Ibuf.make 64) in
  let ob_m : 'm Mbuf.t array = Array.init k (fun _ -> Mbuf.make ()) in
  let sh_err : exn option array = Array.make k None in
  let on_fault kind ~src ~dst =
    (match metrics with Some m -> Metrics.note_fault m ~kind | None -> ());
    match trace with
    | Some tr -> Trace.on_fault tr ~round:(base + tl.t_round) ~kind ~src ~dst
    | None -> ()
  in
  let schedule ~src ~dst msg (c : Fault.delivery) =
    if c.Fault.offset > 0 then on_fault "delay" ~src ~dst;
    let key =
      match c.Fault.key with
      | Some key ->
          on_fault "reorder" ~src ~dst;
          key
      | None -> !seq
    in
    let at = tl.t_round + 1 + c.Fault.offset in
    let sofar = try Hashtbl.find pending at with Not_found -> [] in
    Hashtbl.replace pending at ((dst, src, key, !seq, msg) :: sofar);
    incr seq;
    incr in_flight
  in
  (* The serial network phase: walk the shards' staged sends in shard
     (= node) order, charging metrics and bandwidth and drawing each
     message's fate from the dart's keyed substream. A shard's compute
     error re-raises after its staged prefix — and before any higher
     shard's sends, which a sequential sweep would never have reached. *)
  let subs : (int, Fault.sub) Hashtbl.t = Hashtbl.create 16 in
  let apply_sends r =
    Hashtbl.reset subs;
    for i = 0 to k - 1 do
      let uv = ob_uv.(i) in
      let mb = ob_m.(i) in
      for j = 0 to (uv.Ibuf.len / 2) - 1 do
        let u = uv.Ibuf.a.(2 * j) in
        let v = uv.Ibuf.a.((2 * j) + 1) in
        let msg = mb.Mbuf.a.(j) in
        let d =
          let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
          if s < 0 then raise (non_neighbor u v);
          rev.(s)
        in
        let bits = proto.msg_bits msg in
        record_message su ~rnd:r ~dir:dir_of_dart.(d) ~src:u ~dst:v ~bits;
        tl.t_msgs <- tl.t_msgs + 1;
        tl.t_bits <- tl.t_bits + bits;
        if bits > tl.t_max_msg then tl.t_max_msg <- bits;
        if load.(d) = 0 then touched := d :: !touched;
        let now = load.(d) + bits in
        load.(d) <- now;
        if now > tl.t_max_burst then tl.t_max_burst <- now;
        if now > bandwidth then
          raise (Bandwidth_exceeded { round = r; u; v; bits = now });
        let sub =
          match Hashtbl.find_opt subs d with
          | Some sub -> sub
          | None ->
              let sub = Fault.substream plan ~round:r ~slot:d in
              Hashtbl.add subs d sub;
              sub
        in
        (match Fault.sub_fate sub with
        | [] -> on_fault "drop" ~src:u ~dst:v
        | [ c ] -> schedule ~src:u ~dst:v msg c
        | cs ->
            on_fault "duplicate" ~src:u ~dst:v;
            List.iter (schedule ~src:u ~dst:v msg) cs)
      done;
      Ibuf.clear uv;
      Mbuf.clear mb;
      match sh_err.(i) with Some e -> raise e | None -> ()
    done
  in
  let commit_round ~active =
    (match metrics with
    | Some m ->
        List.iter
          (fun d ->
            Metrics.note_round_edge_at m ~dir:dir_of_dart.(d) ~bits:load.(d))
          !touched
    | None -> ());
    record_round su ~rnd:tl.t_round ~active ~msgs:tl.t_msgs ~bits:tl.t_bits;
    commit tl ~active
  in
  let reset_loads () =
    List.iter (fun d -> load.(d) <- 0) !touched;
    touched := []
  in
  let apply_transitions r =
    List.iter
      (fun (node, what) ->
        match what with
        | `Crash -> on_fault "crash" ~src:node ~dst:(-1)
        | `Restart -> on_fault "restart" ~src:node ~dst:(-1))
      (Fault.transitions plan ~round:r)
  in
  (* Round 0: crashes scheduled at round 0 apply first; a node that is
     down at round 0 still computes its initial state (the engine needs
     one) but takes no step — its spontaneous sends are suppressed.
     Shards init their own nodes into shard-local state slices, staging
     the sends of live nodes; the slices join once every init ran. *)
  apply_transitions 0;
  let parts = Array.make k [||] in
  Pool.run pool ~tasks:k (fun i ->
      let lo = shard_lo.(i) in
      try
        parts.(i) <-
          Array.init (shard_lo.(i + 1) - lo) (fun j ->
              let v = lo + j in
              let (s, out) = proto.init g v in
              if not (Fault.down plan ~node:v ~round:0) then
                List.iter
                  (fun (w, msg) ->
                    Ibuf.push ob_uv.(i) v;
                    Ibuf.push ob_uv.(i) w;
                    Mbuf.push ob_m.(i) msg)
                  out;
              s)
      with e -> sh_err.(i) <- Some e);
  apply_sends 0;
  let states = Array.concat (Array.to_list parts) in
  let inbox : (int * 'm) list array = Array.make (max 1 n) [] in
  if tl.t_msgs > 0 then commit_round ~active:n;
  reset_loads ();
  (* Landed copies of the round being delivered: per-recipient reverse
     lists of (src, key, seq, msg). *)
  let landed : (int * int * int * 'm) list array = Array.make (max 1 n) [] in
  let idle = ref 0 in
  let grace = Fault.grace plan in
  let horizon = Fault.horizon plan in
  let pending_recipients () =
    let seen = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ copies ->
        List.iter (fun (dst, _, _, _, _) -> Hashtbl.replace seen dst ()) copies)
      pending;
    Hashtbl.length seen
  in
  if tl.t_msgs = 0 && !in_flight = 0 then idle := grace;
  (* The clocked loop: runs until [grace] consecutive rounds saw no send
     and nothing in flight, and the crash schedule's horizon has passed
     (a restart scheduled after a lull must still execute). A run whose
     init sent nothing, under a plan that schedules nothing, is over
     immediately — as in the clean engine. *)
  while not (!idle >= grace && tl.t_round >= horizon) do
    if tl.t_round >= max_rounds then
      raise
        (No_quiescence
           {
             round = tl.t_round;
             active = pending_recipients ();
             messages = tl.t_msgs;
           });
    next_round tl;
    let r = tl.t_round in
    apply_transitions r;
    (* Deliver: due copies land in their recipients' inboxes — unless
       the recipient is down, in which case the network discards them
       and keeps the score (a retransmission from the reliable layer,
       not the engine, is what carries data past an outage). *)
    let due = try List.rev (Hashtbl.find pending r) with Not_found -> [] in
    Hashtbl.remove pending r;
    List.iter
      (fun (dst, src, key, sq, msg) ->
        decr in_flight;
        if Fault.down plan ~node:dst ~round:r then begin
          Fault.note_crash_lost plan;
          on_fault "crash-lost" ~src ~dst
        end
        else landed.(dst) <- (src, key, sq, msg) :: landed.(dst))
      due;
    (* Sort each hit inbox by (sender, key, seq): with no reordered
       copies this is exactly the documented guarantee — ascending
       sender, per-sender send order. Adversarial mode then shuffles it
       from the recipient's keyed substream ([nd + v] cannot collide
       with a fate key, which is a dart slot). *)
    let active = ref 0 in
    for v = 0 to n - 1 do
      match landed.(v) with
      | [] -> ()
      | copies ->
          incr active;
          landed.(v) <- [];
          let a = Array.of_list copies in
          Array.sort
            (fun (s1, k1, q1, _) (s2, k2, q2, _) ->
              compare (s1, k1, q1) (s2, k2, q2))
            a;
          if (Fault.spec plan).Fault.adversarial then
            Fault.sub_permute (Fault.substream plan ~round:r ~slot:(nd + v)) a;
          inbox.(v) <-
            Array.fold_right (fun (src, _, _, m) acc -> (src, m) :: acc) a []
    done;
    (* Compute: every live node steps, with an empty inbox if nothing
       arrived — the clock a recovery layer's retransmission timers run
       on. [active] keeps its metrics meaning: nodes that had mail.
       Shards own disjoint state/inbox ranges; sends are staged, so no
       shard writes outside its range. *)
    Pool.run pool ~tasks:k (fun i ->
        let v = ref shard_lo.(i) in
        let hi = shard_lo.(i + 1) in
        (try
           while !v < hi do
             let u = !v in
             if not (Fault.down plan ~node:u ~round:r) then begin
               let (s, out) = proto.round g u states.(u) inbox.(u) in
               inbox.(u) <- [];
               states.(u) <- s;
               List.iter
                 (fun (w, msg) ->
                   Ibuf.push ob_uv.(i) u;
                   Ibuf.push ob_uv.(i) w;
                   Mbuf.push ob_m.(i) msg)
                 out
             end
             else inbox.(u) <- [];
             incr v
           done
         with e -> sh_err.(i) <- Some e));
    apply_sends r;
    commit_round ~active:!active;
    reset_loads ();
    idle := if tl.t_msgs = 0 && !in_flight = 0 then !idle + 1 else 0
  done;
  finish observe su tl states

(* One entry point, two engines: the clean sharded loop whenever no
   fault plan is installed, and the clocked fault-aware loop whenever
   one is. Both shard over a pool of [domains] parties (capped at one
   party per node, and one party for an empty graph), which is shut
   down however the run ends, and give the same run at every domain
   count. *)
let exec ?(config = Config.default) g proto =
  let { Config.domains; bandwidth; max_rounds; observe; faults } = config in
  if domains < 1 then invalid_arg "Network.exec: domains must be at least 1";
  let pool = Pool.create ~domains:(min domains (max 1 (Gr.n g))) () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      match faults with
      | Some plan ->
          exec_clocked ~plan ~pool ?bandwidth ?max_rounds ~observe g proto
      | None -> exec_sharded ~pool ?bandwidth ?max_rounds ~observe g proto)

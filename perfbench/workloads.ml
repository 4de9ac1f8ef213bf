(* The four workloads. Each is a closed loop driven by one client: the
   next operation starts only when the previous one has returned.

   Every workload makes a set of instances from the seed (graph
   relabellings, random graphs, churn traces) and sets them all up first.
   The measuring phase then runs repetitions round-robin, one repetition
   of each instance per pass, until the run's time is spent. Averaging
   over many instances keeps the seed-to-seed spread small (one grid
   relabelling alone moves the BFS root, and with it the round count, by
   about 15%). Every repetition replays the same operations from the same
   state, so each operation is timed as its best over the repetitions. The
   host this benchmark was tuned on is shared: as neighbours come and go,
   the same operation's wall time changes from one second to the next by
   up to 1.6x, for CPU time too. Spreading an instance's repetitions over
   the whole run, rather than running them back to back, lets its best
   time come from the run's fastest stretch; a median of whole
   repetitions, or a best over consecutive ones, moved with the host.
   Slower drift, over minutes, is left to reference.ml. Every count is
   taken from repetition 0, so it is a pure function of the seed, and
   later repetitions must reproduce it exactly. *)

open Stats

type ctx = { seed : int; seconds : float; traced : bool }

type row = { name : string; unit : string; value : float; detail : string }
(** One line of the human-readable report. *)

type result = {
  attempted : int;
  failed : int;
  setup : float array;  (** per instance: best set-up wall, seconds *)
  op_time : float array;
      (** per instance: mean over its operations of their best wall *)
  lat : float array;  (** best wall of each operation, seconds *)
  work_per_op : float;
  rows : row list;
  layers : (string * float) list;  (** traced run only *)
  reps : int;  (** repetitions over all instances *)
  loop_wall : float;  (** wall seconds of all repetitions *)
  loop_cpu : float;  (** CPU seconds of the same *)
}

(* Seeds for instance [i] of a run. *)
let derive seed i = ((seed * 7919) + (i * 104729) + 1) land 0x3FFFFFFF

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

let timing_row name unit scale samples =
  let s = summary (Array.map (fun x -> x *. scale) samples) in
  {
    name;
    unit;
    value = s.med;
    detail = Printf.sprintf "median of n=%d, IQR %.6g..%.6g" s.n s.q1 s.q3;
  }

let count_row name unit value detail = { name; unit; value; detail }

let p99_row name samples =
  {
    name;
    unit = "us";
    value = quantile samples 0.99 *. 1e6;
    detail = Printf.sprintf "p99 of n=%d" (Array.length samples);
  }

(* ---------------------------------------------------------------------- *)
(* The repetition loop shared by the workloads. *)

type meter = {
  setup : float array;
  op_time : float array;
  lat : samples;
  mutable best : float array;  (** current instance: best wall per operation *)
  mutable reps : int;
  mutable wall : float;
  mutable cpu : float;
  mutable traced_wall : float;
  mutable traced_cpu : float;
  base : float array;
      (** traced run: op seconds and op count of repetitions 0 (untraced)
          and 1 (traced), for the overhead ratio *)
}

let meter k =
  {
    setup = Array.make k infinity;
    op_time = Array.make k 0.0;
    lat = samples ();
    best = [||];
    reps = 0;
    wall = 0.0;
    cpu = 0.0;
    traced_wall = 0.0;
    traced_cpu = 0.0;
    base = Array.make 4 0.0;
  }

(* Record the wall time of operation [j] of the current repetition. *)
let record m j dt = if dt < m.best.(j) then m.best.(j) <- dt

(* One set-up instance: [rep r] performs repetition r, [ops]
   operations timed one by one with [record], and returns the summed wall
   of its timed operations. *)
type instance = { ops : int; rep : int -> float }

(* The share of the measuring phase spent setting instances up again. *)
let resetup_share = 0.1

(* Set up instances 0 .. k-1 with [setup], then run their repetitions in
   passes, every instance once per pass, until [ctx.seconds] have gone by;
   the first pass always runs in full. Set-up is timed the same way as the
   operations: during the passes, an instance is set up again (and the
   copy dropped) before its repetition whenever set-up has used less than
   [resetup_share] of the phase so far, and each instance keeps its best
   set-up time; [Reference.tick] times the host between repetitions. The
   traced run makes exactly two passes, with no second set-up and no
   reference kernel: r = 0 with tracing off, the base for the overhead
   figure, and r = 1 with spans recorded. Each instance then contributes
   the mean of its operations' best times to [op_time], and the best times
   themselves to the pooled samples (at most its equal share of the
   buffer, so every instance weighs the same in the percentiles). *)
let rounds ctx m ~k ~(setup : int -> instance) =
  let set_up i =
    let t0 = wall () in
    let x = setup i in
    let dt = wall () -. t0 in
    if dt < m.setup.(i) then m.setup.(i) <- dt;
    (x, dt)
  in
  let insts = Array.init k (fun i -> fst (set_up i)) in
  let bests = Array.map (fun x -> Array.make x.ops infinity) insts in
  let one i r =
    let { ops; rep } = insts.(i) in
    m.best <- bests.(i);
    Spans.enabled := ctx.traced && r = 1;
    let w0 = wall () and c0 = cpu () in
    let sum = rep r in
    let w = wall () -. w0 and c = cpu () -. c0 in
    Spans.enabled := false;
    m.reps <- m.reps + 1;
    m.wall <- m.wall +. w;
    m.cpu <- m.cpu +. c;
    if ctx.traced then begin
      m.base.(2 * r) <- m.base.(2 * r) +. sum;
      m.base.((2 * r) + 1) <- m.base.((2 * r) + 1) +. float_of_int ops;
      if r = 1 then begin
        m.traced_wall <- m.traced_wall +. w;
        m.traced_cpu <- m.traced_cpu +. c
      end
    end
  in
  if ctx.traced then
    for r = 0 to 1 do
      for i = 0 to k - 1 do
        one i r
      done
    done
  else begin
    let t0 = wall () and spent = ref 0.0 in
    let r = ref 0 in
    while !r = 0 || wall () -. t0 < ctx.seconds do
      for i = 0 to k - 1 do
        if !r = 0 || wall () -. t0 < ctx.seconds then begin
          if !spent < resetup_share *. (wall () -. t0) then
            spent := !spent +. snd (set_up i);
          Reference.tick ();
          one i !r
        end
      done;
      incr r
    done
  end;
  Array.iteri
    (fun i b ->
      m.op_time.(i) <- mean b;
      Array.iteri (fun j x -> if j < capacity / k then push m.lat x) b)
    bests

(* Time one set-up step, inside a span on traced runs. *)
let setup_step ctx name f =
  Spans.new_run ();
  Spans.enabled := ctx.traced;
  let v = Spans.with_span name f in
  Spans.enabled := false;
  v

let finish ctx m ~attempted ~work_per_op ~rows ~layers =
  let layers =
    if not ctx.traced then []
    else
      layers
      @ ("runtime.cpu_over_wall", ratio m.traced_cpu m.traced_wall)
        :: ( "trace.overhead",
             ratio (ratio m.base.(2) m.base.(3)) (ratio m.base.(0) m.base.(1)) )
        :: List.map (fun (l, s) -> ("self." ^ l ^ "_s", s)) (Spans.self_by_layer ())
  in
  {
    attempted;
    failed = !failures;
    setup = m.setup;
    op_time = m.op_time;
    lat = to_array m.lat;
    work_per_op;
    rows;
    layers;
    reps = m.reps;
    loop_wall = m.wall;
    loop_cpu = m.cpu;
  }

let sum_int f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let fsum = Array.fold_left ( +. ) 0.0

(* ---------------------------------------------------------------------- *)
(* embed-grid and embed-maxplanar: Embedder.run, then Certify.prove and
   Certify.verify on its result. One operation is the whole certified
   embedding; the report splits it into embed_s and certify_s. *)

type embed_obs = {
  report : Embedder.report;
  verify_messages : int;
  label_words : float;
}

(* Layer probes of one instance, run after the traced pass. *)
type probe = {
  bfs_s : float;
  cc_s : float;
  messages : int;
  bits : int;
  sim_rounds : int;
  alloc : float;
  gcs : int;
}

let embed ctx ~instances:k ~domains ~make =
  let m = meter k in
  let config = Network.Config.default |> Network.Config.with_domains domains in
  let first : embed_obs option array = Array.make k None in
  let embed_s = samples () and certify_s = samples () in
  let traced_embed = Array.make k 0.0 and traced_alloc = Array.make k 0.0 in
  let probes = ref [] and planarity_edges = ref 0 in
  let attempted = ref 0 in
  let graphs = Array.make k (Gr.empty 0) in
  let setup i =
    let g = setup_step ctx "setup.graph" (fun () -> make (derive ctx.seed i)) in
    graphs.(i) <- g;
    {
      ops = 1;
      rep = (fun r ->
        Spans.new_run ();
        incr attempted;
        let a0 = alloc_words () in
        let t0 = wall () in
        let o = Spans.with_span "embedder.run" (fun () -> Embedder.run ~config g) in
        let t1 = wall () in
        let a1 = alloc_words () in
        let certified =
          Option.map
            (fun rot ->
              let c = Spans.with_span "certify.prove" (fun () -> Certify.prove rot) in
              (rot, c, Spans.with_span "certify.verify" (fun () -> Certify.verify ~config rot c)))
            o.Embedder.rotation
        in
        let t2 = wall () in
        record m 0 (t2 -. t0);
        push embed_s (t1 -. t0);
        push certify_s (t2 -. t1);
        if r = 1 then begin
          traced_embed.(i) <- t1 -. t0;
          traced_alloc.(i) <- a1 -. a0
        end;
        (* Gates, outside the timed region. *)
        let rep = o.Embedder.report in
        (match certified with
        | None -> fail "instance %d: embedder rejected a planar graph" i
        | Some (rot, c, v) -> (
            if not (Spans.with_span "check.rotation" (fun () -> Rotation.is_planar_embedding rot))
            then fail "instance %d: embedding has genus > 0" i
            else if not v.Certify.all_accept then fail "instance %d: certificate rejected" i
            else
              let s = Certify.size c in
              match first.(i) with
              | None ->
                  first.(i) <-
                    Some
                      {
                        report = rep;
                        verify_messages = v.Certify.report.Network.messages;
                        label_words = ratio s.Certify.mean_bits (float_of_int s.Certify.word);
                      }
              | Some f ->
                  if
                    f.report.Embedder.rounds <> rep.Embedder.rounds
                    || f.report.total_bits <> rep.total_bits
                    || f.report.max_edge_bits <> rep.max_edge_bits
                  then fail "instance %d: counts differ between repetitions" i));
        t2 -. t0);
    }
  in
  rounds ctx m ~k ~setup;
  if ctx.traced then
    graphs
    |> Array.iteri (fun i g ->
      (* Layer probes: the engine's two phase-1 protocols re-run with the
         workload's config and a metrics sink, the whole-graph planarity
         kernel, and (when the workload runs sharded) the same embedding
         at one domain, whose counts must be identical — the engine's
         bit-identity contract checked from outside. *)
      Spans.enabled := true;
      Spans.new_run ();
      let ms = Metrics.create g in
      let pconfig = { config with Network.Config.observe = Observe.of_metrics ms } in
      let a0 = alloc_words () and g0 = major_gcs () in
      let t0 = wall () in
      let st = Spans.with_span "proto.leader_bfs" (fun () -> Proto.leader_bfs ~config:pconfig g) in
      let t1 = wall () in
      let root = st.(0).Proto.leader and parent = Array.map (fun s -> s.Proto.parent) st in
      let count =
        Spans.with_span "proto.convergecast" (fun () ->
            Proto.convergecast ~config:pconfig g ~parent ~root
              ~values:(Array.make (Gr.n g) 1) ~op:( + ) ~value_bits:(Part.word g))
      in
      let t2 = wall () in
      if count <> Gr.n g then fail "instance %d: convergecast counted %d nodes" i count;
      probes :=
        {
          bfs_s = t1 -. t0;
          cc_s = t2 -. t1;
          messages = Metrics.messages ms;
          bits = Metrics.total_bits ms;
          sim_rounds = Metrics.rounds ms;
          alloc = alloc_words () -. a0;
          gcs = major_gcs () - g0;
        }
        :: !probes;
      (match Spans.with_span "planarity.embed" (fun () -> Planarity.embed g) with
      | Planarity.Planar _ -> ()
      | Planarity.Nonplanar -> fail "instance %d: planarity kernel rejected" i);
      planarity_edges := !planarity_edges + Gr.m g;
      if domains > 1 then begin
        incr attempted;
        let config1 = Network.Config.with_domains 1 config in
        let o = Spans.with_span "determinism.embed_d1" (fun () -> Embedder.run ~config:config1 g) in
        match first.(i) with
        | Some f
          when f.report.rounds = o.report.rounds
               && f.report.total_bits = o.report.total_bits
               && f.report.max_edge_bits = o.report.max_edge_bits ->
            ()
        | _ -> fail "instance %d: counts differ between 1 and %d domains" i domains
      end;
      Spans.enabled := false);
  let reports =
    Array.to_list first |> List.filter_map (Option.map (fun o -> o.report)) |> Array.of_list
  in
  let firsts = Array.to_list first |> List.filter_map Fun.id |> Array.of_list in
  let count f = float_of_int (sum_int f reports) in
  let maximum f = float_of_int (Array.fold_left (fun a r -> max a (f r)) 0 reports) in
  let mean_of f = ratio (count f) (float_of_int (Array.length reports)) in
  let sim_rounds (r : Embedder.report) =
    List.fold_left
      (fun acc (ph, n) -> if ph = "recursive-embedding" then acc else acc + n)
      0 r.phases
  in
  let probes = Array.of_list (List.rev !probes) in
  let layers =
    if not ctx.traced then []
    else
      let messages = sum_int (fun p -> p.messages) probes in
      let net_s = fsum (Array.map (fun p -> p.bfs_s +. p.cc_s) probes) in
      [
        ("network.bfs_s", median (Array.map (fun p -> p.bfs_s) probes));
        ("network.convergecast_s", median (Array.map (fun p -> p.cc_s) probes));
        ("network.messages", float_of_int messages);
        ("network.bits", float_of_int (sum_int (fun p -> p.bits) probes));
        ("network.sim_rounds", float_of_int (sum_int (fun p -> p.sim_rounds) probes));
        ("network.ns_per_message", ratio (net_s *. 1e9) (float_of_int messages));
        ( "network.alloc_words_per_message",
          ratio (fsum (Array.map (fun p -> p.alloc) probes)) (float_of_int messages) );
        ("network.major_gcs", float_of_int (sum_int (fun p -> p.gcs) probes));
        ( "embedder.recursion_s",
          median (Array.mapi (fun i e -> e -. probes.(i).bfs_s -. probes.(i).cc_s) traced_embed) );
        ("embedder.charged_rounds", count (fun r -> r.Embedder.rounds - sim_rounds r));
        ("embedder.sim_rounds", count sim_rounds);
        ("embedder.recursion_calls", count (fun r -> r.Embedder.recursion_calls));
        ("embedder.recursion_depth", maximum (fun r -> r.Embedder.recursion_depth));
        ("embedder.merges_pairwise", count (fun r -> r.Embedder.merges_pairwise));
        ("embedder.merges_star", count (fun r -> r.Embedder.merges_star));
        ("embedder.merges_vertex", count (fun r -> r.Embedder.merges_vertex));
        ("embedder.merges_path", count (fun r -> r.Embedder.merges_path));
        ("embedder.iface_bits", count (fun r -> r.Embedder.iface_bits_shipped));
        ("embedder.total_bits", count (fun r -> r.Embedder.total_bits));
        ("embedder.max_edge_bits", maximum (fun r -> r.Embedder.max_edge_bits));
        ("embedder.alloc_words", median traced_alloc);
        ("planarity.embed_s", median (Spans.durations "planarity.embed"));
        ( "planarity.ns_per_edge",
          ratio (Spans.total "planarity.embed" *. 1e9) (float_of_int !planarity_edges) );
        ("certify.prove_s", median (Spans.durations "certify.prove"));
        ("certify.verify_s", median (Spans.durations "certify.verify"));
        ("certify.label_words_mean", mean (Array.map (fun o -> o.label_words) firsts));
        ("certify.verify_messages", float_of_int (sum_int (fun o -> o.verify_messages) firsts));
      ]
  in
  finish ctx m ~attempted:!attempted
    ~work_per_op:(mean_of (fun r -> r.Embedder.rounds))
    ~rows:
      [
        timing_row "embed_s" "s" 1.0 (to_array embed_s);
        timing_row "certify_s" "s" 1.0 (to_array certify_s);
        count_row "rounds" "count" (mean_of (fun r -> r.Embedder.rounds)) "mean over instances";
        count_row "total_bits" "bits" (mean_of (fun r -> r.Embedder.total_bits)) "mean over instances";
        count_row "max_edge_bits" "bits" (mean_of (fun r -> r.Embedder.max_edge_bits)) "mean over instances";
      ]
    ~layers

(* ---------------------------------------------------------------------- *)
(* churn-grid: Churn traces over a grid pool applied op by op to an
   Incremental.t. Each repetition replays the trace from a fresh
   Incremental.create of its initial graph (not timed; repetition 0 uses
   the one built in set-up). *)

let churn ctx ~side ~traces:k ~updates ~check_every =
  let m = meter k in
  let pool = Gen.grid side side in
  let first = Array.make k None in
  let classes = Hashtbl.create 8 in
  let add_class c dt =
    Hashtbl.replace classes c (dt :: Option.value (Hashtbl.find_opt classes c) ~default:[])
  in
  let inserts = ref 0 and kernel_time = ref 0.0 and rep0_time = ref 0.0 in
  let check_edges = ref 0 and check_times = ref [] in
  let attempted = ref 0 in
  let setup i =
    let tr =
      setup_step ctx "churn.make" (fun () ->
          Churn.make ~seed:(derive ctx.seed i) ~updates ~insert_pct:70 ~fresh_prob:0.1 pool)
    in
    let inc0 =
      setup_step ctx "incremental.create" (fun () -> Incremental.create (Churn.initial_graph tr))
    in
    let n = tr.Churn.n in
    {
      ops = updates;
      rep = (fun r ->
        let inc =
          if r = 0 then inc0
          else Spans.with_span "incremental.create" (fun () -> Incremental.create (Churn.initial_graph tr))
        in
        let sum = ref 0.0 in
        Array.iteri
          (fun j op ->
            Spans.new_run ();
            incr attempted;
            match op with
            | Churn.Delete (u, v) ->
                let t0 = wall () in
                Spans.enter "incremental.delete";
                ignore (Incremental.delete inc u v);
                Spans.leave ();
                let dt = wall () -. t0 in
                sum := !sum +. dt;
                record m j dt;
                if r = 1 then add_class "delete" dt
            | Churn.Insert (u, v) -> (
                (* Sampled verdict gate: the from-scratch kernel on the
                   current edge set plus the new edge, computed before the
                   timed call. *)
                let expect =
                  if r = 0 && j mod check_every = 0 && not (Incremental.mem inc u v) then begin
                    let g = Gr.of_edges ~n ((u, v) :: Incremental.live_edges inc) in
                    let c0 = wall () in
                    let ok = Spans.with_span "planarity.is_planar" (fun () -> Planarity.is_planar g) in
                    check_times := (wall () -. c0) :: !check_times;
                    check_edges := !check_edges + Gr.m g;
                    Some ok
                  end
                  else None
                in
                let t0 = wall () in
                Spans.enter "incremental.insert";
                let res = Incremental.insert inc u v in
                let cls =
                  match res with
                  | Incremental.Fast -> "fast"
                  | Linked -> "linked"
                  | Reembedded _ -> "reembed"
                  | Rejected -> "reject"
                  | Duplicate -> "duplicate"
                in
                Spans.leave ~rename:("incremental.insert_" ^ cls) ();
                let dt = wall () -. t0 in
                sum := !sum +. dt;
                record m j dt;
                if r = 0 then begin
                  incr inserts;
                  match res with
                  | Reembedded _ | Rejected -> kernel_time := !kernel_time +. dt
                  | _ -> ()
                end;
                if r = 1 then add_class cls dt;
                match (expect, res) with
                | Some false, (Fast | Linked | Reembedded _) ->
                    fail "trace %d op %d: accepted a non-planar insert" i j
                | Some true, Rejected -> fail "trace %d op %d: rejected a planar insert" i j
                | _ -> ()))
          tr.Churn.ops;
        if r = 0 then rep0_time := !rep0_time +. !sum;
        if not (Spans.with_span "check.validate" (fun () -> Incremental.validate inc)) then
          fail "trace %d: final embedding fails validation" i;
        (* A copy: the stats record is mutable and belongs to [inc]. *)
        let st = Incremental.stats inc in
        let c = { st with fast = st.fast } in
        (match first.(i) with
        | None -> first.(i) <- Some c
        | Some f -> if f <> c then fail "trace %d: counts differ between repetitions" i);
        !sum);
    }
  in
  rounds ctx m ~k ~setup;
  let counts = Array.to_list first |> List.filter_map Fun.id |> Array.of_list in
  let total f = sum_int f counts in
  let kernel_edges = total (fun (c : Incremental.stats) -> c.kernel_edges) in
  let cls_us c =
    median (Array.of_list (Option.value (Hashtbl.find_opt classes c) ~default:[])) *. 1e6
  in
  let layers =
    if not ctx.traced then []
    else
      [
        (* The verdict checks run in repetition 0, which the traced run
           leaves untraced, so they are timed directly. *)
        ("planarity.embed_s", median (Array.of_list !check_times));
        ( "planarity.ns_per_edge",
          ratio (fsum (Array.of_list !check_times) *. 1e9) (float_of_int !check_edges) );
        ("incremental.kernel_edges", float_of_int kernel_edges);
        ("incremental.fast_us", cls_us "fast");
        ("incremental.reembed_us", cls_us "reembed");
        ("incremental.reject_us", cls_us "reject");
        ("incremental.linked_us", cls_us "linked");
        ("incremental.delete_us", cls_us "delete");
        ("incremental.fast", float_of_int (total (fun (c : Incremental.stats) -> c.fast)));
        ("incremental.reembedded", float_of_int (total (fun (c : Incremental.stats) -> c.reembedded)));
        ("incremental.rejected", float_of_int (total (fun (c : Incremental.stats) -> c.rejected)));
        ("incremental.rescopes", float_of_int (total (fun (c : Incremental.stats) -> c.rescopes)));
        ("incremental.face_steps", float_of_int (total (fun (c : Incremental.stats) -> c.face_steps)));
        ( "incremental.fast_ratio",
          ratio (float_of_int (total (fun (c : Incremental.stats) -> c.fast))) (float_of_int !inserts) );
        ("incremental.reembed_share", ratio !kernel_time !rep0_time);
        ("incremental.ns_per_kernel_edge", ratio (!kernel_time *. 1e9) (float_of_int kernel_edges));
      ]
  in
  let res =
    finish ctx m ~attempted:!attempted
      ~work_per_op:(ratio (float_of_int kernel_edges) (float_of_int (k * updates)))
      ~rows:[] ~layers
  in
  {
    res with
    rows =
      [
        count_row "updates_per_s" "1/s" (ratio 1.0 (mean res.op_time)) "1 / mean best wall per update";
        timing_row "update_p50_us" "us" 1e6 res.lat;
        p99_row "update_p99_us" res.lat;
      ];
  }

(* ---------------------------------------------------------------------- *)
(* route-maxplanar: the geometry pipeline built once per graph, then
   seeded uniform (src, dst) queries answered one at a time. *)

let valid_path g src dst path =
  let rec go = function
    | a :: (b :: _ as rest) -> Gr.mem_edge g a b && go rest
    | [ last ] -> last = dst
    | [] -> false
  in
  match path with x :: _ -> x = src && go path | [] -> false

let route ctx ~graphs:k ~n ~queries =
  let m = meter k in
  let hops = ref 0 and greedy = ref 0 and face = ref 0 and recov = ref 0 in
  let traced_query = ref 0.0 in
  let attempted = ref 0 in
  (* The graphs are made before set-up, which starts from each graph. *)
  let graphs = Array.init k (fun i -> Gen.random_maximal_planar ~seed:(derive ctx.seed i) n) in
  let route_edges = sum_int Gr.m graphs in
  let setup i =
    let g = graphs.(i) in
    let rot = setup_step ctx "planarity.embed" (fun () -> Planarity.embed_exn g) in
    let tri = setup_step ctx "triangulate.make" (fun () -> Triangulate.make rot) in
    let sc = setup_step ctx "schnyder.of_triangulation" (fun () -> Schnyder.of_triangulation tri) in
    let rt = setup_step ctx "route.make" (fun () -> Route.make sc) in
    let rng = Random.State.make [| derive ctx.seed i; 7 |] in
    let qs =
      Array.init queries (fun _ ->
          let s = Random.State.int rng n in
          (s, (s + 1 + Random.State.int rng (n - 1)) mod n))
    in
    let first_hops = Array.make queries (-1) in
    let rg = Route.graph rt in
    {
      ops = queries;
      rep = (fun r ->
        let sum = ref 0.0 in
        Array.iteri
          (fun j (s, d) ->
            Spans.new_run ();
            incr attempted;
            let t0 = wall () in
            let o = Spans.with_span "route.query" (fun () -> Route.route rt s d) in
            let dt = wall () -. t0 in
            sum := !sum +. dt;
            record m j dt;
            match o with
            | Route.Delivered p ->
                if not (Spans.with_span "check.path" (fun () -> valid_path rg s d p.path)) then
                  fail "graph %d query %d: invalid path" i j
                else if r = 0 then begin
                  first_hops.(j) <- p.hops;
                  hops := !hops + p.hops;
                  greedy := !greedy + p.greedy_hops;
                  face := !face + p.face_hops;
                  recov := !recov + p.recoveries
                end
                else if first_hops.(j) <> p.hops then
                  fail "graph %d query %d: hops differ between repetitions" i j
            | Route.Unreachable -> fail "graph %d query %d: unreachable" i j
            | Route.Stuck _ -> fail "graph %d query %d: stuck" i j)
          qs;
        if r = 1 then traced_query := !traced_query +. !sum;
        !sum);
    }
  in
  rounds ctx m ~k ~setup;
  let hops_mean = ratio (float_of_int !hops) (float_of_int (k * queries)) in
  let layers =
    if not ctx.traced then []
    else
      [
        ("planarity.embed_s", median (Spans.durations "planarity.embed"));
        ( "planarity.ns_per_edge",
          ratio (Spans.total "planarity.embed" *. 1e9) (float_of_int route_edges) );
        ("triangulate.s", median (Spans.durations "triangulate.make"));
        ("schnyder.s", median (Spans.durations "schnyder.of_triangulation"));
        ("route.make_s", median (Spans.durations "route.make"));
        ("route.greedy_hops", float_of_int !greedy);
        ("route.face_hops", float_of_int !face);
        ("route.recoveries", float_of_int !recov);
        ("route.face_hop_share", ratio (float_of_int !face) (float_of_int (!greedy + !face)));
        ("route.ns_per_hop", ratio (!traced_query *. 1e9) (float_of_int !hops));
      ]
  in
  let res =
    finish ctx m ~attempted:!attempted ~work_per_op:hops_mean ~rows:[] ~layers
  in
  {
    res with
    rows =
      [
        count_row "queries_per_s" "1/s" (ratio 1.0 (mean res.op_time)) "1 / mean best wall per query";
        timing_row "query_p50_us" "us" 1e6 res.lat;
        p99_row "query_p99_us" res.lat;
        count_row "hops_mean" "count" hops_mean "mean over repetition-0 queries";
      ];
  }
